#ifndef SEPLSM_STORAGE_ITERATOR_H_
#define SEPLSM_STORAGE_ITERATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "common/point.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/block_cache.h"
#include "storage/memtable.h"
#include "storage/sstable.h"

namespace seplsm::storage {

/// A forward cursor over sorted points. The compaction/flush write loop is
/// written once against this interface (WriteSortedPointsAsTables below), so
/// memory stays bounded no matter how large the inputs are: an SSTable
/// source holds one decoded block, a merge holds one position per child.
///
/// Contract: `point()` and `Next()` require `Valid()`. When `Valid()` turns
/// false, `status()` distinguishes clean exhaustion (OK) from an error; a
/// caller must check it before trusting that the stream was complete.
class PointIterator {
 public:
  virtual ~PointIterator() = default;

  virtual bool Valid() const = 0;
  virtual void Next() = 0;
  virtual const DataPoint& point() const = 0;
  virtual Status status() const = 0;
};

/// Adapter over a sorted vector (borrowed or owned).
class VectorIterator final : public PointIterator {
 public:
  /// Borrows `points`; the vector must outlive the iterator.
  explicit VectorIterator(const std::vector<DataPoint>* points)
      : points_(points) {}
  /// Owning overload.
  explicit VectorIterator(std::vector<DataPoint> points)
      : owned_(std::move(points)), points_(&owned_) {}

  bool Valid() const override { return pos_ < points_->size(); }
  void Next() override { ++pos_; }
  const DataPoint& point() const override { return (*points_)[pos_]; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<DataPoint> owned_;
  const std::vector<DataPoint>* points_;
  size_t pos_ = 0;
};

/// Adapter over a frozen MemTable view (shared ownership keeps the map
/// alive, so the engine lock is not needed while iterating), restricted to
/// generation times in [lo, hi] (the whole view by default).
class MemTableViewIterator final : public PointIterator {
 public:
  explicit MemTableViewIterator(
      MemTable::View view, int64_t lo = std::numeric_limits<int64_t>::min(),
      int64_t hi = std::numeric_limits<int64_t>::max())
      : view_(std::move(view)),
        it_(view_->lower_bound(lo)),
        end_(lo <= hi ? view_->upper_bound(hi) : it_) {}

  bool Valid() const override { return it_ != end_; }
  void Next() override {
    ++it_;
    ++consumed_;
  }
  const DataPoint& point() const override { return it_->second; }
  Status status() const override { return Status::OK(); }

  /// Points stepped past so far: once drained, the points in [lo, hi].
  uint64_t consumed() const { return consumed_; }

 private:
  MemTable::View view_;
  MemTable::PointMap::const_iterator it_;
  MemTable::PointMap::const_iterator end_;
  uint64_t consumed_ = 0;
};

/// Streams an SSTable block by block: at most ONE decoded block is resident
/// at a time (plus a shared_ptr when the block came from the cache). Blocks
/// outside [options.lo, options.hi] are skipped via the index without being
/// read. With `options.fill_cache == false` device reads bypass cache
/// insertion — compaction scans use this so they cannot evict hot query
/// blocks — while cache *hits* are still served.
class SSTableIterator final : public PointIterator {
 public:
  /// Borrows `table`; the reader must outlive the iterator.
  explicit SSTableIterator(const SSTableReader* table,
                           ReadOptions options = {});
  /// Shares ownership of `table` (e.g. a TableCache entry), so the iterator
  /// keeps the reader alive across an LRU eviction.
  explicit SSTableIterator(std::shared_ptr<const SSTableReader> table,
                           ReadOptions options = {});

  bool Valid() const override;
  void Next() override;
  const DataPoint& point() const override;
  Status status() const override { return status_; }

 private:
  /// Advances `entry_`/`pos_` until they name a point in range, loading
  /// blocks lazily; calls Finish at the end of the range.
  void SkipToNextInRange();
  /// Ends the scan. The index is sorted, so every entry not yet loaded lies
  /// past `hi` and counts as index-skipped, as in SSTableReader::ReadRange.
  void Finish();

  std::shared_ptr<const SSTableReader> owner_;  // null when borrowing
  const SSTableReader* table_;
  ReadOptions options_;
  std::shared_ptr<const CachedBlock> block_;  // the single resident block
  size_t entry_ = 0;  ///< next index entry to load
  size_t pos_ = 0;    ///< position within `block_`
  bool done_ = false;
  Status status_;
};

/// Chains sorted children whose key ranges are non-decreasing across
/// boundaries (e.g. consecutive files of the run, which are disjoint by
/// invariant) into one sorted stream. This turns an N-file run slice into a
/// single merge child, so merging it with a buffer is a 2-way merge
/// regardless of how many files overlap. Ordering is verified as points are
/// consumed; a violation surfaces as an Internal status rather than a
/// silently mis-sorted output table.
class ConcatenatingIterator final : public PointIterator {
 public:
  /// Deferred child construction: each factory is invoked only when the
  /// chain reaches it (and may return null to mean "fully pruned, nothing
  /// to read", or an error, which ends the chain with that status), so a
  /// chain over N files keeps at most one child — one resident block, one
  /// open table — alive at a time.
  using ChildFactory =
      std::function<Result<std::unique_ptr<PointIterator>>()>;

  explicit ConcatenatingIterator(
      std::vector<std::unique_ptr<PointIterator>> children);
  explicit ConcatenatingIterator(std::vector<ChildFactory> factories);

  bool Valid() const override {
    return status_.ok() && cur_ < children_.size();
  }
  void Next() override;
  const DataPoint& point() const override { return children_[cur_]->point(); }
  Status status() const override { return status_; }

 private:
  void Settle();

  std::vector<std::unique_ptr<PointIterator>> children_;
  std::vector<ChildFactory> factories_;  ///< empty in the eager form
  size_t cur_ = 0;
  int64_t last_time_ = 0;
  bool has_last_ = false;
  Status status_;
};

/// Binary-heap k-way merge with LSM dedup semantics: children are given in
/// precedence order (newest first); on equal generation times the child with
/// the lowest index wins and every other point carrying that time — in later
/// children or later in the same child — is consumed and dropped. This is
/// exactly the "newer version wins" upsert rule the engine's materialized
/// MergeSorted implemented. A child error stops the merge: Valid() turns
/// false and status() carries the child's error.
class MergingIterator final : public PointIterator {
 public:
  explicit MergingIterator(
      std::vector<std::unique_ptr<PointIterator>> children);

  bool Valid() const override { return status_.ok() && !heap_.empty(); }
  void Next() override;
  const DataPoint& point() const override {
    return children_[heap_.top().child]->point();
  }
  Status status() const override { return status_; }

 private:
  struct HeapEntry {
    int64_t time;
    size_t child;
  };
  /// Min-heap on (time, child index): total order, so ties always surface
  /// the lowest-index (newest) child first.
  struct EntryGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.child > b.child;
    }
  };

  /// Re-inserts `child` if it still has points; captures its error if not.
  void PushChild(size_t child);

  std::vector<std::unique_ptr<PointIterator>> children_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, EntryGreater> heap_;
  Status status_;
};

}  // namespace seplsm::storage

#endif  // SEPLSM_STORAGE_ITERATOR_H_
