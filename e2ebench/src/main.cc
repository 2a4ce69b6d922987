// seplsm end-to-end benchmark program.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --work-dir <dir> [--trace-file <path>]
//
// Prints progress and (with --trace 1) the per-layer ledger, then one JSON
// line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}, where
// "correct" is false when any call failed or any answer differed from the
// oracle. Exits 0 whenever that line is printed, 2 when the run could not
// be made at all.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-file <path>]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions ro;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      ro.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ro.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      ro.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      ro.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      ro.work_dir = value;
    } else if (flag == "--trace-file") {
      ro.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  bool known = false;
  for (const std::string& name : e2ebench::WorkloadNames()) {
    known = known || name == ro.workload;
  }
  if (!have_workload || !known) return Usage("unknown or missing --workload");
  if (ro.work_dir.empty()) return Usage("--work-dir is required");
  if (!(ro.seconds > 0)) return Usage("--seconds must be positive");

  std::printf("workload %s, seed %llu, %.1f s, trace %d\n", ro.workload.c_str(),
              static_cast<unsigned long long>(ro.seed), ro.seconds,
              ro.trace ? 1 : 0);
  e2ebench::Report report = e2ebench::RunWorkload(ro);
  if (!report.fatal.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: %s\n", report.fatal.c_str());
    return 2;
  }
  report.correct = report.failed == 0;
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
