#include "storage/sstable.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/coding.h"
#include "storage/iterator.h"

namespace seplsm::storage {

std::string TableFilePath(const std::string& dir, uint64_t file_number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%08llu.sst",
                static_cast<unsigned long long>(file_number));
  return dir + buf;
}

namespace {

// Window index by floored division, correct for negative times too.
int64_t WindowStart(int64_t t, int64_t window) {
  int64_t q = t / window;
  if (t % window != 0 && t < 0) --q;
  return q * window;
}

}  // namespace

SSTableWriter::SSTableWriter(Env* env, std::string path,
                             size_t points_per_block,
                             format::ValueEncoding encoding,
                             format::TableMetadataConfig meta)
    : env_(env), path_(std::move(path)), points_per_block_(points_per_block),
      block_(encoding), meta_config_(meta) {
  assert(points_per_block_ > 0);
  open_status_ = env_->NewWritableFile(path_, &file_);
}

void SSTableWriter::AccumulateSummary(const DataPoint& point) {
  const int64_t start = WindowStart(point.generation_time,
                                    meta_config_.summary_window);
  if (summary_open_ && start != cur_summary_.window_start) {
    metadata_.summaries.push_back(cur_summary_);
    summary_open_ = false;
  }
  if (!summary_open_) {
    cur_summary_ = format::WindowSummary();
    cur_summary_.window_start = start;
    cur_summary_.min = point.value;
    cur_summary_.max = point.value;
    cur_summary_.first_time = point.generation_time;
    cur_summary_.first_value = point.value;
    summary_open_ = true;
  }
  ++cur_summary_.count;
  cur_summary_.sum += point.value;
  if (point.value < cur_summary_.min) cur_summary_.min = point.value;
  if (point.value > cur_summary_.max) cur_summary_.max = point.value;
  cur_summary_.last_time = point.generation_time;
  cur_summary_.last_value = point.value;
}

Status SSTableWriter::Add(const DataPoint& point) {
  SEPLSM_RETURN_IF_ERROR(open_status_);
  if (points_added_ == 0) {
    file_min_tg_ = point.generation_time;
  } else if (point.generation_time < file_max_tg_) {
    return Status::InvalidArgument("SSTableWriter: points out of order");
  }
  file_max_tg_ = point.generation_time;
  if (block_.empty()) {
    block_min_tg_ = point.generation_time;
    block_min_value_ = point.value;
    block_max_value_ = point.value;
  } else {
    if (point.value < block_min_value_) block_min_value_ = point.value;
    if (point.value > block_max_value_) block_max_value_ = point.value;
  }
  block_max_tg_ = point.generation_time;
  if (meta_config_.enabled && meta_config_.summary_window > 0) {
    AccumulateSummary(point);
  }
  block_.Add(point);
  ++points_added_;
  if (block_.count() >= points_per_block_) {
    SEPLSM_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status SSTableWriter::FlushBlock() {
  if (block_.empty()) return Status::OK();
  uint64_t count = block_.count();
  std::string data = block_.Finish();
  format::BlockIndexEntry entry;
  entry.min_generation_time = block_min_tg_;
  entry.max_generation_time = block_max_tg_;
  entry.offset = offset_;
  entry.size = data.size();
  entry.point_count = count;
  SEPLSM_RETURN_IF_ERROR(file_->Append(data));
  offset_ += data.size();
  index_.push_back(entry);
  if (meta_config_.enabled) {
    format::BlockZoneMap zone;
    zone.min_value = block_min_value_;
    zone.max_value = block_max_value_;
    metadata_.zone_maps.push_back(zone);
  }
  ++block_count_;
  return Status::OK();
}

Result<FileMetadata> SSTableWriter::Finish() {
  SEPLSM_RETURN_IF_ERROR(open_status_);
  if (points_added_ == 0) {
    return Status::InvalidArgument("SSTableWriter: empty table");
  }
  SEPLSM_RETURN_IF_ERROR(FlushBlock());
  format::Footer footer;
  std::string meta_data;
  if (meta_config_.enabled) {
    if (summary_open_) {
      metadata_.summaries.push_back(cur_summary_);
      summary_open_ = false;
    }
    metadata_.summary_window =
        meta_config_.summary_window > 0 ? meta_config_.summary_window : 0;
    // Summaries only pay when a window folds several points; on sparse
    // series (fewer than ~4 points per touched window) the section would
    // rival the data blocks in size while saving almost no decoding. Drop
    // them and keep only the zone maps; summary_window = 0 tells readers
    // "no summary coverage", so aggregation falls back to point reads.
    if (metadata_.summaries.size() * 4 > points_added_) {
      metadata_.summaries.clear();
      metadata_.summary_window = 0;
    }
    format::EncodeTableMetadata(metadata_, &meta_data);
    footer.meta_offset = offset_;
    footer.meta_size = meta_data.size();
    footer.has_metadata = true;
    SEPLSM_RETURN_IF_ERROR(file_->Append(meta_data));
    offset_ += meta_data.size();
  }
  std::string index_data;
  format::EncodeIndex(index_, &index_data);
  SEPLSM_RETURN_IF_ERROR(file_->Append(index_data));
  footer.index_offset = offset_;
  footer.index_size = index_data.size();
  footer.point_count = points_added_;
  footer.min_generation_time = file_min_tg_;
  footer.max_generation_time = file_max_tg_;
  std::string footer_data;
  format::EncodeFooter(footer, &footer_data);
  SEPLSM_RETURN_IF_ERROR(file_->Append(footer_data));
  SEPLSM_RETURN_IF_ERROR(file_->Sync());
  SEPLSM_RETURN_IF_ERROR(file_->Close());
  // The file's bytes are durable, but its directory entry is not until the
  // parent directory is fsynced. Without this a crash after a compaction
  // could drop the *new* tables while the old ones were already unlinked —
  // losing points whose WAL records were retired at an earlier checkpoint.
  size_t slash = path_.find_last_of('/');
  if (slash != std::string::npos) {
    SEPLSM_RETURN_IF_ERROR(env_->SyncDir(path_.substr(0, slash)));
  }

  FileMetadata meta;
  meta.path = path_;
  meta.point_count = points_added_;
  meta.file_bytes = offset_ + index_data.size() + footer_data.size();
  meta.min_generation_time = file_min_tg_;
  meta.max_generation_time = file_max_tg_;
  return meta;
}

Result<std::unique_ptr<SSTableReader>> SSTableReader::Open(
    Env* env, const std::string& path, BlockCacheHandle block_cache) {
  std::unique_ptr<RandomAccessFile> file;
  SEPLSM_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file));
  uint64_t size = file->Size();
  if (size < format::kFooterSize) {
    return Status::Corruption(path + ": file smaller than footer");
  }
  // The last 8 bytes carry the magic that picks the footer version, so v1
  // files — and v2-era files written with metadata disabled — parse exactly
  // as before.
  size_t tail_size = size >= format::kFooterV2Size ? format::kFooterV2Size
                                                   : format::kFooterSize;
  std::string tail;
  SEPLSM_RETURN_IF_ERROR(file->Read(size - tail_size, tail_size, &tail));
  uint64_t magic =
      DecodeFixed64(tail.data() + tail.size() - 8);
  size_t footer_size = magic == format::kTableMagicV2 ? format::kFooterV2Size
                                                      : format::kFooterSize;
  if (footer_size > tail.size()) {
    return Status::Corruption(path + ": file smaller than footer");
  }
  format::Footer footer;
  SEPLSM_RETURN_IF_ERROR(format::DecodeFooter(
      std::string_view(tail).substr(tail.size() - footer_size), &footer));
  if (footer.index_offset + footer.index_size + footer_size != size) {
    return Status::Corruption(path + ": footer does not match file size");
  }
  format::TableMetadata metadata;
  if (footer.has_metadata) {
    if (footer.meta_offset + footer.meta_size != footer.index_offset) {
      return Status::Corruption(path + ": metadata does not abut index");
    }
    std::string meta_data;
    SEPLSM_RETURN_IF_ERROR(
        file->Read(footer.meta_offset, footer.meta_size, &meta_data));
    if (meta_data.size() != footer.meta_size) {
      return Status::Corruption(path + ": short metadata read");
    }
    SEPLSM_RETURN_IF_ERROR(format::DecodeTableMetadata(meta_data, &metadata));
  }
  std::string index_data;
  SEPLSM_RETURN_IF_ERROR(
      file->Read(footer.index_offset, footer.index_size, &index_data));
  std::vector<format::BlockIndexEntry> index;
  SEPLSM_RETURN_IF_ERROR(format::DecodeIndex(index_data, &index));
  if (footer.has_metadata && metadata.zone_maps.size() != index.size()) {
    return Status::Corruption(path + ": zone maps do not match block count");
  }
  return std::unique_ptr<SSTableReader>(new SSTableReader(
      std::move(file), footer, std::move(index), std::move(metadata),
      footer.has_metadata, block_cache));
}

Status SSTableReader::ReadAll(std::vector<DataPoint>* out) const {
  return ReadRange(footer_.min_generation_time, footer_.max_generation_time,
                   out, nullptr);
}

Result<std::shared_ptr<const CachedBlock>> SSTableReader::ReadBlock(
    const format::BlockIndexEntry& entry, ReadStats* stats,
    bool fill_cache) const {
  if (block_cache_.enabled()) {
    auto cached = block_cache_.cache->Lookup(
        block_cache_.owner_id, block_cache_.file_number, entry.offset);
    if (cached != nullptr) {
      if (stats != nullptr) ++stats->cache_hits;
      return cached;
    }
    if (stats != nullptr) ++stats->cache_misses;
  }
  std::string data;
  SEPLSM_RETURN_IF_ERROR(file_->Read(entry.offset, entry.size, &data));
  if (data.size() != entry.size) {
    return Status::Corruption("short block read");
  }
  auto block = std::make_shared<CachedBlock>();
  SEPLSM_RETURN_IF_ERROR(format::DecodeBlock(data, &block->points));
  if (stats != nullptr) {
    stats->device_bytes_read += data.size();
    ++stats->blocks_read;
  }
  // Insert only after a clean read + CRC check, so an IOError or corrupt
  // block can never poison the cache. One-pass scans (fill_cache == false)
  // never insert: their blocks will not be re-read, and inserting them
  // would evict blocks hot queries depend on.
  if (block_cache_.enabled() && fill_cache) {
    block_cache_.cache->Insert(block_cache_.owner_id,
                               block_cache_.file_number, entry.offset, block);
  }
  return std::shared_ptr<const CachedBlock>(std::move(block));
}

Status SSTableReader::ReadRange(int64_t lo, int64_t hi,
                                std::vector<DataPoint>* out,
                                ReadStats* stats) const {
  for (const auto& entry : index_) {
    if (entry.min_generation_time > hi || entry.max_generation_time < lo) {
      if (stats != nullptr) ++stats->blocks_skipped;
      continue;
    }
    auto block = ReadBlock(entry, stats);
    if (!block.ok()) return block.status();
    if (stats != nullptr) stats->points_scanned += (*block)->points.size();
    for (const auto& p : (*block)->points) {
      if (p.generation_time >= lo && p.generation_time <= hi) {
        out->push_back(p);
      }
    }
  }
  return Status::OK();
}

Status WriteSortedPointsAsTables(Env* env, const std::string& dir,
                                 const std::vector<DataPoint>& points,
                                 size_t points_per_file,
                                 size_t points_per_block,
                                 uint64_t* next_file_no,
                                 std::vector<FileMetadata>* files,
                                 format::ValueEncoding encoding,
                                 format::TableMetadataConfig meta) {
  VectorIterator input(&points);
  return WriteSortedPointsAsTables(env, dir, &input, points_per_file,
                                   points_per_block, next_file_no, files,
                                   encoding, meta);
}

}  // namespace seplsm::storage
