#ifndef SEPLSM_ENGINE_AGGREGATION_H_
#define SEPLSM_ENGINE_AGGREGATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/point.h"

namespace seplsm::engine {

/// Aggregates over a generation-time range (the dashboards of the paper's
/// §VI deployment mostly read min/max/avg per window, not raw points).
struct Aggregates {
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t first_time = 0;  ///< earliest generation time in range
  int64_t last_time = 0;   ///< latest generation time in range
  double first_value = 0.0;
  double last_value = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  void Accumulate(const DataPoint& p) {
    if (count == 0) {
      first_time = p.generation_time;
      first_value = p.value;
    }
    last_time = p.generation_time;
    last_value = p.value;
    ++count;
    sum += p.value;
    if (p.value < min) min = p.value;
    if (p.value > max) max = p.value;
  }

  /// Merges a segment whose points all carry generation times >= everything
  /// accumulated so far (segments must be folded in ascending time order —
  /// what the summary pushdown walk guarantees). Produces exactly what
  /// Accumulate over the concatenated point streams would have.
  void MergeOrdered(const Aggregates& later) {
    if (later.count == 0) return;
    if (count == 0) {
      *this = later;
      return;
    }
    count += later.count;
    sum += later.sum;
    if (later.min < min) min = later.min;
    if (later.max > max) max = later.max;
    last_time = later.last_time;
    last_value = later.last_value;
  }
};

/// One bucket of a GROUP-BY-time downsampling query.
struct TimeBucket {
  int64_t bucket_start = 0;  ///< inclusive
  int64_t bucket_end = 0;    ///< exclusive
  Aggregates aggregates;
};

/// Folds one point (at or after every point folded so far) into the
/// width-`width` bucket grid aligned to `lo`, opening its bucket at the back
/// of *buckets when the point starts a new one. `width` must be positive.
void AccumulateIntoBuckets(const DataPoint& p, int64_t lo, int64_t width,
                           std::vector<TimeBucket>* buckets);

/// Folds sorted points into fixed-width buckets aligned to `lo`.
/// Buckets with no points are omitted. `width` must be positive.
std::vector<TimeBucket> BucketizePoints(const std::vector<DataPoint>& sorted,
                                        int64_t lo, int64_t hi, int64_t width);

}  // namespace seplsm::engine

#endif  // SEPLSM_ENGINE_AGGREGATION_H_
