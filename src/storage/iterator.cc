#include "storage/iterator.h"

#include <cassert>
#include <utility>

#include "storage/query_explain.h"

namespace seplsm::storage {

// --- SSTableIterator ---

SSTableIterator::SSTableIterator(const SSTableReader* table,
                                 ReadOptions options)
    : table_(table), options_(options) {
  SkipToNextInRange();
}

SSTableIterator::SSTableIterator(std::shared_ptr<const SSTableReader> table,
                                 ReadOptions options)
    : owner_(std::move(table)), table_(owner_.get()), options_(options) {
  SkipToNextInRange();
}

bool SSTableIterator::Valid() const {
  return status_.ok() && !done_ && block_ != nullptr &&
         pos_ < block_->points.size();
}

const DataPoint& SSTableIterator::point() const {
  assert(Valid());
  return block_->points[pos_];
}

void SSTableIterator::Next() {
  assert(Valid());
  ++pos_;
  SkipToNextInRange();
}

void SSTableIterator::SkipToNextInRange() {
  const bool value_prune =
      options_.has_value_bounds() && table_->has_metadata() &&
      !table_->metadata().zone_maps.empty();
  while (status_.ok() && !done_) {
    if (block_ != nullptr) {
      while (pos_ < block_->points.size()) {
        const DataPoint& p = block_->points[pos_];
        if (p.generation_time > options_.hi) {
          // Points are sorted: nothing later can be back in range.
          Finish();
          return;
        }
        if (p.generation_time >= options_.lo &&
            p.value >= options_.value_lo && p.value <= options_.value_hi) {
          return;
        }
        ++pos_;
      }
      block_.reset();  // exhausted: release before loading the next one
    }
    const auto& index = table_->index();
    while (entry_ < index.size()) {
      if (index[entry_].max_generation_time < options_.lo) {
        // Skipped via the index: never read, never a cache lookup.
        if (options_.stats != nullptr) ++options_.stats->blocks_skipped;
        if (options_.explain != nullptr) {
          options_.explain->RecordBlockSkippedIndex(
              options_.explain_file, options_.explain_level);
        }
        ++entry_;
        continue;
      }
      if (index[entry_].min_generation_time > options_.hi) break;
      if (value_prune) {
        const format::BlockZoneMap& zone =
            table_->metadata().zone_maps[entry_];
        if (zone.min_value > options_.value_hi ||
            zone.max_value < options_.value_lo) {
          // Zone map proves no value in this block can match.
          if (options_.stats != nullptr) ++options_.stats->blocks_skipped;
          if (options_.explain != nullptr) {
            options_.explain->RecordBlockSkippedZoneMap(
                options_.explain_file, options_.explain_level);
          }
          ++entry_;
          continue;
        }
      }
      break;
    }
    if (entry_ >= index.size() ||
        index[entry_].min_generation_time > options_.hi) {
      Finish();
      return;
    }
    auto block =
        table_->ReadBlock(index[entry_], options_.stats, options_.fill_cache);
    if (!block.ok()) {
      status_ = block.status();
      return;
    }
    if (options_.explain != nullptr) {
      options_.explain->RecordBlockRead(options_.explain_file,
                                        options_.explain_level);
    }
    block_ = std::move(block).value();
    if (options_.stats != nullptr) {
      options_.stats->points_scanned += block_->points.size();
    }
    pos_ = 0;
    ++entry_;
  }
}

void SSTableIterator::Finish() {
  done_ = true;
  block_.reset();
  const uint64_t rest = table_->index().size() - entry_;
  entry_ = table_->index().size();
  if (rest == 0) return;
  if (options_.stats != nullptr) options_.stats->blocks_skipped += rest;
  if (options_.explain != nullptr) {
    options_.explain->RecordBlockSkippedIndex(
        options_.explain_file, options_.explain_level, rest);
  }
}

// --- ConcatenatingIterator ---

ConcatenatingIterator::ConcatenatingIterator(
    std::vector<std::unique_ptr<PointIterator>> children)
    : children_(std::move(children)) {
  Settle();
}

ConcatenatingIterator::ConcatenatingIterator(
    std::vector<ChildFactory> factories)
    : factories_(std::move(factories)) {
  children_.resize(factories_.size());
  Settle();
}

void ConcatenatingIterator::Next() {
  assert(Valid());
  last_time_ = children_[cur_]->point().generation_time;
  has_last_ = true;
  children_[cur_]->Next();
  Settle();
}

void ConcatenatingIterator::Settle() {
  while (status_.ok() && cur_ < children_.size()) {
    if (children_[cur_] == nullptr && cur_ < factories_.size()) {
      auto child = factories_[cur_]();
      factories_[cur_] = nullptr;  // the open table dies with the child
      if (!child.ok()) {
        status_ = child.status();
        return;
      }
      children_[cur_] = std::move(child).value();
    }
    PointIterator* it = children_[cur_].get();
    if (it == nullptr) {  // factory pruned this child entirely
      ++cur_;
      continue;
    }
    if (it->Valid()) {
      if (has_last_ && it->point().generation_time < last_time_) {
        status_ = Status::Internal(
            "ConcatenatingIterator: children out of order");
      }
      return;
    }
    if (!it->status().ok()) {
      status_ = it->status();
      return;
    }
    // Release the exhausted child before opening the next one: at most one
    // table/iterator pair stays resident in the lazy form.
    children_[cur_].reset();
    ++cur_;
  }
}

// --- MergingIterator ---

MergingIterator::MergingIterator(
    std::vector<std::unique_ptr<PointIterator>> children)
    : children_(std::move(children)) {
  for (size_t i = 0; i < children_.size() && status_.ok(); ++i) {
    PushChild(i);
  }
}

void MergingIterator::PushChild(size_t child) {
  PointIterator* it = children_[child].get();
  if (it->Valid()) {
    heap_.push({it->point().generation_time, child});
  } else if (!it->status().ok()) {
    status_ = it->status();
  }
}

void MergingIterator::Next() {
  assert(Valid());
  // Advance every child sitting at the emitted time: the winner moves on,
  // the losers' duplicates are dropped (newer-wins dedup).
  const int64_t t = heap_.top().time;
  while (status_.ok() && !heap_.empty() && heap_.top().time == t) {
    size_t child = heap_.top().child;
    heap_.pop();
    children_[child]->Next();
    PushChild(child);
  }
}

// --- Iterator-driven table writing ---

Status WriteSortedPointsAsTables(Env* env, const std::string& dir,
                                 PointIterator* input, size_t points_per_file,
                                 size_t points_per_block,
                                 uint64_t* next_file_no,
                                 std::vector<FileMetadata>* files,
                                 format::ValueEncoding encoding,
                                 format::TableMetadataConfig meta_config,
                                 const std::atomic<bool>* cancel) {
  assert(points_per_file > 0 && points_per_block > 0);
  const size_t base = files->size();
  std::vector<std::string> created;
  // Any failure — I/O error, source error, cancellation — must not leave
  // partial .sst files behind: recovery opens every table in the directory
  // and would fail on a truncated one. Best-effort unlink of everything
  // this call created, after the writer for the current file is destroyed
  // (a live writer could re-publish its buffer on some Envs).
  auto fail = [&](Status st) {
    files->resize(base);
    for (const auto& path : created) env->RemoveFile(path);
    return st;
  };
  auto canceled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  while (input->Valid()) {
    uint64_t file_no = (*next_file_no)++;
    std::string path = TableFilePath(dir, file_no);
    created.push_back(path);
    auto meta = [&]() -> Result<FileMetadata> {
      SSTableWriter writer(env, path, points_per_block, encoding,
                           meta_config);
      size_t taken = 0;
      while (input->Valid() && taken < points_per_file) {
        // Cooperative cancellation at block granularity: a shutting-down
        // engine aborts a large merge within one block's worth of work.
        if (taken % points_per_block == 0 && canceled()) {
          return Status::Aborted("table write canceled");
        }
        SEPLSM_RETURN_IF_ERROR(writer.Add(input->point()));
        ++taken;
        input->Next();
      }
      SEPLSM_RETURN_IF_ERROR(input->status());
      return writer.Finish();
    }();
    if (!meta.ok()) return fail(meta.status());
    meta.value().file_number = file_no;
    files->push_back(std::move(meta).value());
  }
  return input->status();
}

std::unique_ptr<PointIterator> SSTableReader::NewIterator(
    ReadOptions options) const {
  return std::make_unique<SSTableIterator>(this, options);
}

}  // namespace seplsm::storage
