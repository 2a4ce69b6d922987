#ifndef SEPLSM_STORAGE_SSTABLE_H_
#define SEPLSM_STORAGE_SSTABLE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/result.h"
#include "common/status.h"
#include "env/env.h"
#include "format/block.h"
#include "format/table_format.h"
#include "storage/block_cache.h"

namespace seplsm::storage {

class PointIterator;  // storage/iterator.h
class QueryExplain;   // storage/query_explain.h

/// Per-read accounting filled in by SSTableReader::ReadRange and
/// SSTableIterator. All counters are deltas for the one call (the caller
/// accumulates).
struct ReadStats {
  /// Points decoded and scanned (from device or cache) — the
  /// read-amplification numerator.
  uint64_t points_scanned = 0;
  /// Bytes actually read from the device (block data only; cache hits read
  /// nothing).
  uint64_t device_bytes_read = 0;
  /// Blocks read from the device (cache hits excluded).
  uint64_t blocks_read = 0;
  /// Blocks pruned via index time ranges or metadata zone maps — bypassed
  /// without a device read OR a cache lookup.
  uint64_t blocks_skipped = 0;
  /// Block cache hits / misses for this read (both 0 without a cache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// How a read consults the block cache and accounts itself.
struct ReadOptions {
  /// When false, device reads skip cache insertion (hits are still served):
  /// one-pass scans — compaction above all — must not evict hot query
  /// blocks.
  bool fill_cache = true;
  /// Optional accounting sink (counters are incremented, never reset).
  ReadStats* stats = nullptr;
  /// Generation-time range restriction, inclusive. Blocks entirely outside
  /// are skipped via the index without being read.
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  /// Value predicate, inclusive. With the defaults this is a no-op; when
  /// narrowed, points outside are filtered out and — on tables carrying v2
  /// zone maps — whole blocks whose value range cannot match are skipped
  /// without touching the cache or the device.
  double value_lo = -std::numeric_limits<double>::infinity();
  double value_hi = std::numeric_limits<double>::infinity();
  /// Optional per-query decision trace (storage/query_explain.h): block
  /// reads and index/zone-map skips are recorded alongside the `stats`
  /// counters, naming `explain_file` at tree level `explain_level`. Not
  /// thread-safe — one QueryExplain per query invocation.
  QueryExplain* explain = nullptr;
  uint64_t explain_file = 0;
  int32_t explain_level = -1;

  bool has_value_bounds() const {
    return value_lo != -std::numeric_limits<double>::infinity() ||
           value_hi != std::numeric_limits<double>::infinity();
  }
};

/// Immutable description of an on-disk SSTable (kept in the Version).
struct FileMetadata {
  uint64_t file_number = 0;
  std::string path;
  uint64_t point_count = 0;
  uint64_t file_bytes = 0;
  int64_t min_generation_time = 0;
  int64_t max_generation_time = 0;

  bool Overlaps(int64_t lo, int64_t hi) const {
    return min_generation_time <= hi && max_generation_time >= lo;
  }
};

/// Streams sorted points into an SSTable file.
class SSTableWriter {
 public:
  /// `points_per_block` controls index granularity within the file;
  /// `encoding` selects the value-column codec (see format/value_codec.h);
  /// `meta` controls the v2 pruning-metadata section (disabled, the output
  /// is byte-identical to the v1 format).
  SSTableWriter(Env* env, std::string path, size_t points_per_block = 128,
                format::ValueEncoding encoding = format::ValueEncoding::kRaw,
                format::TableMetadataConfig meta = {});

  /// Points must arrive in non-decreasing generation-time order.
  Status Add(const DataPoint& point);

  /// Flushes remaining data, writes metadata (v2) + index + footer, closes
  /// the file, and returns the metadata (file_number left 0 for the caller
  /// to assign).
  Result<FileMetadata> Finish();

  uint64_t points_added() const { return points_added_; }

 private:
  Status FlushBlock();
  /// Folds `point` into the running per-window summary, sealing the
  /// previous window when the point crosses a window boundary.
  void AccumulateSummary(const DataPoint& point);

  Env* env_;
  std::string path_;
  size_t points_per_block_;
  std::unique_ptr<WritableFile> file_;
  Status open_status_;
  format::BlockBuilder block_;
  std::vector<format::BlockIndexEntry> index_;
  format::TableMetadataConfig meta_config_;
  format::TableMetadata metadata_;
  format::WindowSummary cur_summary_;
  bool summary_open_ = false;
  uint64_t offset_ = 0;
  uint64_t points_added_ = 0;
  int64_t block_min_tg_ = 0;
  int64_t block_max_tg_ = 0;
  double block_min_value_ = 0.0;
  double block_max_value_ = 0.0;
  int64_t file_min_tg_ = 0;
  int64_t file_max_tg_ = 0;
  size_t block_count_ = 0;
};

/// Reads an SSTable written by SSTableWriter.
class SSTableReader {
 public:
  /// Opens the file and loads footer + index. When `block_cache` names a
  /// cache, ReadRange consults it before touching the device and inserts
  /// decoded blocks after a miss; a default handle keeps the uncached
  /// behaviour byte-for-byte.
  static Result<std::unique_ptr<SSTableReader>> Open(
      Env* env, const std::string& path, BlockCacheHandle block_cache = {});

  uint64_t point_count() const { return footer_.point_count; }
  int64_t min_generation_time() const { return footer_.min_generation_time; }
  int64_t max_generation_time() const { return footer_.max_generation_time; }
  size_t block_count() const { return index_.size(); }

  /// Appends every point to *out in generation-time order.
  Status ReadAll(std::vector<DataPoint>* out) const;

  /// Appends points with generation_time in [lo, hi]; reads only the blocks
  /// whose index range overlaps (served from the block cache when attached).
  /// *stats (optional) is incremented with scan/device/cache counters —
  /// exactly what a drained SSTableIterator over the same range counts.
  Status ReadRange(int64_t lo, int64_t hi, std::vector<DataPoint>* out,
                   ReadStats* stats = nullptr) const;

  /// The per-block index loaded at Open (sorted by generation time).
  const std::vector<format::BlockIndexEntry>& index() const { return index_; }

  /// True when the file carries a v2 pruning-metadata section.
  bool has_metadata() const { return has_metadata_; }
  /// The decoded metadata section (empty default for v1 files). Zone maps,
  /// when present, are parallel to index().
  const format::TableMetadata& metadata() const { return metadata_; }

  /// Returns the decoded block for one index entry — from the cache on a
  /// hit, from the device on a miss. A device-read block is inserted into
  /// the cache only when `fill_cache` is set (compaction scans pass false so
  /// a merge cannot evict hot query blocks).
  Result<std::shared_ptr<const CachedBlock>> ReadBlock(
      const format::BlockIndexEntry& entry, ReadStats* stats,
      bool fill_cache = true) const;

  /// Block-streaming cursor over [options.lo, options.hi] — at most one
  /// decoded block resident (storage/iterator.h).
  std::unique_ptr<PointIterator> NewIterator(ReadOptions options = {}) const;

 private:
  SSTableReader(std::unique_ptr<RandomAccessFile> file, format::Footer footer,
                std::vector<format::BlockIndexEntry> index,
                format::TableMetadata metadata, bool has_metadata,
                BlockCacheHandle block_cache)
      : file_(std::move(file)), footer_(footer), index_(std::move(index)),
        metadata_(std::move(metadata)), has_metadata_(has_metadata),
        block_cache_(block_cache) {}

  std::unique_ptr<RandomAccessFile> file_;
  format::Footer footer_;
  std::vector<format::BlockIndexEntry> index_;
  format::TableMetadata metadata_;
  bool has_metadata_ = false;
  BlockCacheHandle block_cache_;
};

/// Writes `points` (sorted) into one or more SSTables of at most
/// `points_per_file` points each, assigning file numbers via `next_file_no`.
/// File paths are `<dir>/<number>.sst`. Appends metadata to *files.
/// Delegates to the iterator overload below.
Status WriteSortedPointsAsTables(
    Env* env, const std::string& dir, const std::vector<DataPoint>& points,
    size_t points_per_file, size_t points_per_block, uint64_t* next_file_no,
    std::vector<FileMetadata>* files,
    format::ValueEncoding encoding = format::ValueEncoding::kRaw,
    format::TableMetadataConfig meta = {});

/// Iterator-driven overload: drains `input` block-in/block-out, so flush and
/// compaction share one writer loop and peak memory stays bounded by the
/// source's residency (one block per SSTable input) instead of the total
/// input size. `cancel` (optional) is polled between blocks; on cancellation
/// or any error, every file this call created is removed (best effort) and
/// *files is left exactly as passed in, so an aborted merge can never leave
/// partial tables for recovery to trip over. Returns Aborted on cancel.
Status WriteSortedPointsAsTables(
    Env* env, const std::string& dir, PointIterator* input,
    size_t points_per_file, size_t points_per_block, uint64_t* next_file_no,
    std::vector<FileMetadata>* files,
    format::ValueEncoding encoding = format::ValueEncoding::kRaw,
    format::TableMetadataConfig meta = {},
    const std::atomic<bool>* cancel = nullptr);

/// Path helpers: `<dir>/<number>.sst`.
std::string TableFilePath(const std::string& dir, uint64_t file_number);

}  // namespace seplsm::storage

#endif  // SEPLSM_STORAGE_SSTABLE_H_
