#ifndef E2EBENCH_REPLAYS_H_
#define E2EBENCH_REPLAYS_H_

// Layer replays: after a traced pass, each layer's public entry point is
// driven directly with the workload's own generated points and timed. They
// run after the timed phase, so they never perturb the end-to-end numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "analyzer/adaptive_controller.h"
#include "common/point.h"
#include "env/env.h"

namespace e2ebench {

struct StorageReplay {
  double memtable_add_ns_per_pt = 0.0;   ///< MemTable::Add
  double wal_append_batch_us = 0.0;      ///< WalWriter::AppendBatch(64)
  double wal_sync_us = 0.0;              ///< WalWriter::Sync
  double block_encode_ns_per_pt = 0.0;   ///< BlockBuilder Add + Finish
  double block_decode_ns_per_pt = 0.0;   ///< DecodeBlock
  double sstable_write_ns_per_pt = 0.0;  ///< SSTableWriter Add + Finish
  double sstable_read_ns_per_pt = 0.0;   ///< SSTableReader::ReadRange
  double merge_ns_per_pt = 0.0;          ///< MergingIterator over tables
  std::string error;                     ///< empty on success
};

/// Replays MemTable, WAL, block codec, SSTable and merge on `stream`
/// (arrival order), writing files under `dir` through `env`.
StorageReplay ReplayStorage(seplsm::Env* env, const std::string& dir,
                            const std::vector<seplsm::DataPoint>& stream,
                            size_t memtable_capacity);

struct AnalyzerReplay {
  double fit_ms = 0.0;             ///< FitDelayDistribution
  double observe_ns_per_pt = 0.0;  ///< ObserveBatch on non-deciding batches
  double tune_ms = 0.0;            ///< TunePolicy
  double evals_per_decision = 0.0; ///< separation-curve length
  double conventional_wa_ms = 0.0; ///< one WaModel::ConventionalWa
  double separation_wa_ms = 0.0;   ///< one WaModel::SeparationWa
  std::string error;
};

/// Replays the warmup decision a controller with `controller_options`
/// would make on `stream`: it fits the delays of the first `warmup_points`
/// points (at most `reservoir_capacity` of them, the newest), tunes on the
/// fit with Δt estimated from their generation-time span, as the controller
/// does, and times one evaluation of each WA estimate. ObserveBatch is
/// timed on batches that never reach a decision.
AnalyzerReplay ReplayAnalyzer(
    seplsm::Env* env, const std::string& dir,
    const std::vector<seplsm::DataPoint>& stream,
    const seplsm::analyzer::AdaptiveController::Options& controller_options,
    size_t memtable_capacity);

}  // namespace e2ebench

#endif  // E2EBENCH_REPLAYS_H_
