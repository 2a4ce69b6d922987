#ifndef E2EBENCH_SAMPLING_H_
#define E2EBENCH_SAMPLING_H_

// Percentile and median rules shared by every metric the benchmark prints.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2ebench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it. `p` is in (0, 100]. Returns 0 for no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

/// Fewest samples that leave at least ten beyond percentile p:
/// ceil(10 / (1 - p/100)), so p50 needs 20 samples and p99 needs 1000.
/// With fewer, the tail figure rests on a handful of calls (p99 of 100
/// samples is the second-largest one) and is mostly noise; the benchmark
/// refuses to print it.
inline size_t MinSamplesFor(double p) {
  if (p >= 100.0) return SIZE_MAX;
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9));
}

/// True when `samples` may report percentile `p` under MinSamplesFor.
inline bool EnoughSamples(size_t samples, double p) {
  return samples >= MinSamplesFor(p);
}

/// The figure of the best quarter of a run's passes: the nearest-rank lower
/// quartile of a cost, or of a rate counted from the highest. Other
/// processes on a shared machine only ever slow a pass down, and they can do
/// so for most of a run; this figure still holds while a quarter of the
/// passes ran undisturbed, without resting on the single luckiest pass.
inline double BestQuartile(std::vector<double> values, bool higher_is_better) {
  if (!higher_is_better) return Percentile(std::move(values), 25.0);
  for (double& v : values) v = -v;  // the same rank, counted from the top
  return -Percentile(std::move(values), 25.0);
}

/// Median (mean of the two middle values for even counts); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace e2ebench

#endif  // E2EBENCH_SAMPLING_H_
