#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

// The seeded workloads (see README.md for why each exists) and the
// end-to-end and per-layer metrics computed from them.

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path the in-memory databases are named under; nothing is written there.
  std::string work_dir;
  /// Where the traced run writes its span dump (empty: not written).
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// A fatal problem that makes the run unusable (not a wrong answer):
  /// an engine call that could not even be set up, too few samples, ...
  std::string fatal;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Human-readable progress and the ledger go to stdout;
/// the caller prints the final JSON line.
Report RunWorkload(const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
