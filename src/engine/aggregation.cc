#include "engine/aggregation.h"

namespace seplsm::engine {

void AccumulateIntoBuckets(const DataPoint& p, int64_t lo, int64_t width,
                           std::vector<TimeBucket>* buckets) {
  const int64_t start = lo + (p.generation_time - lo) / width * width;
  if (buckets->empty() || buckets->back().bucket_start != start) {
    TimeBucket bucket;
    bucket.bucket_start = start;
    bucket.bucket_end = start + width;
    buckets->push_back(bucket);
  }
  buckets->back().aggregates.Accumulate(p);
}

std::vector<TimeBucket> BucketizePoints(const std::vector<DataPoint>& sorted,
                                        int64_t lo, int64_t hi,
                                        int64_t width) {
  std::vector<TimeBucket> buckets;
  if (width <= 0) return buckets;
  for (const auto& p : sorted) {
    if (p.generation_time < lo || p.generation_time > hi) continue;
    AccumulateIntoBuckets(p, lo, width, &buckets);
  }
  return buckets;
}

}  // namespace seplsm::engine
