#ifndef SEPLSM_STORAGE_MEMTABLE_H_
#define SEPLSM_STORAGE_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/point.h"

namespace seplsm::storage {

/// An in-memory buffer of points sorted by generation time with upsert
/// semantics (writing a point with an existing generation time replaces the
/// value — generation time is the key, per paper Definition 1).
///
/// The engine instantiates one (`C0`, conventional policy) or two (`C_seq`
/// and `C_nonseq`, separation policy). Capacity is counted in points, as in
/// the paper's memory-budget model.
///
/// Snapshot support: `SnapshotView()` returns a shared, immutable view of
/// the current contents in O(1) (copy-on-write — the next mutation after a
/// snapshot clones the map once, so a frozen view costs at most one clone
/// per snapshot and nothing when no snapshot is outstanding). Views can be
/// read without any lock while the owning engine keeps mutating the table.
/// The table itself is not thread-safe; the engine serializes mutation.
class MemTable {
 public:
  using PointMap = std::map<int64_t, DataPoint>;
  /// Immutable frozen view of the table's contents at snapshot time.
  using View = std::shared_ptr<const PointMap>;

  explicit MemTable(size_t capacity_points)
      : capacity_(capacity_points), points_(std::make_shared<PointMap>()) {}

  /// Inserts/overwrites. Returns true if this was a new key (the table
  /// grew), false if an existing generation time was overwritten.
  bool Add(const DataPoint& point) {
    DetachIfShared();
    auto [it, inserted] = points_->insert_or_assign(
        point.generation_time, point);
    (void)it;
    return inserted;
  }

  size_t size() const { return points_->size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return points_->empty(); }
  bool full() const { return points_->size() >= capacity_; }

  int64_t min_generation_time() const { return points_->begin()->first; }
  int64_t max_generation_time() const { return points_->rbegin()->first; }

  /// Extracts all points in generation-time order and clears the table.
  std::vector<DataPoint> Drain() {
    std::vector<DataPoint> out;
    out.reserve(points_->size());
    for (auto& [t, p] : *points_) {
      (void)t;
      out.push_back(p);
    }
    ResetMap();
    return out;
  }

  /// Copies points with generation_time in [lo, hi] into *out (sorted).
  void CollectRange(int64_t lo, int64_t hi,
                    std::vector<DataPoint>* out) const {
    for (auto it = points_->lower_bound(lo);
         it != points_->end() && it->first <= hi; ++it) {
      out->push_back(it->second);
    }
  }

  void Clear() { ResetMap(); }

  /// Freezes the current contents and returns a shared view. Must be called
  /// under the same serialization as mutations (the engine mutex); the
  /// returned view is then safe to read from any thread, lock-free.
  View SnapshotView() {
    shared_ = true;
    return points_;
  }

 private:
  /// Mutations go through here: once a snapshot holds the map, clone it so
  /// outstanding views stay frozen. The flag (not use_count) gates the
  /// clone, so no ordering is assumed about when readers drop their views.
  void DetachIfShared() {
    if (shared_) {
      points_ = std::make_shared<PointMap>(*points_);
      shared_ = false;
    }
  }

  void ResetMap() {
    if (shared_) {
      points_ = std::make_shared<PointMap>();
      shared_ = false;
    } else {
      points_->clear();
    }
  }

  size_t capacity_;
  std::shared_ptr<PointMap> points_;  // never null
  bool shared_ = false;               // a SnapshotView holds points_
};

}  // namespace seplsm::storage

#endif  // SEPLSM_STORAGE_MEMTABLE_H_
