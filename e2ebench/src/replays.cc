#include "replays.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>

#include "analyzer/fitter.h"
#include "engine/ts_engine.h"
#include "format/block.h"
#include "model/tuner.h"
#include "model/wa_model.h"
#include "storage/iterator.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "trace.h"

namespace e2ebench {

using seplsm::DataPoint;
using seplsm::Status;

namespace {

constexpr size_t kReplayPoints = 1 << 16;
constexpr size_t kWalBatch = 64;
constexpr size_t kWalBatches = 512;
constexpr size_t kBlockPoints = 128;
constexpr size_t kTablePoints = 512;
constexpr size_t kMergeFanIn = 8;

double PerUnit(int64_t ns, uint64_t units, double scale) {
  return units == 0 ? 0.0 : static_cast<double>(ns) / scale /
                                static_cast<double>(units);
}

/// The arrival-ordered input cut into table-sized chunks, each sorted by
/// generation time — what a MemTable flush hands to the writer.
std::vector<std::vector<DataPoint>> SortedChunks(
    const std::vector<DataPoint>& stream, size_t chunk) {
  std::vector<std::vector<DataPoint>> out;
  const size_t n = std::min(stream.size(), kReplayPoints);
  for (size_t i = 0; i < n; i += chunk) {
    std::vector<DataPoint> part(stream.begin() + i,
                                stream.begin() + std::min(n, i + chunk));
    std::sort(part.begin(), part.end(), seplsm::OrderByGenerationTime());
    out.push_back(std::move(part));
  }
  return out;
}

std::string Describe(const char* what, const Status& st) {
  return std::string(what) + ": " + st.ToString();
}

}  // namespace

StorageReplay ReplayStorage(seplsm::Env* env, const std::string& dir,
                            const std::vector<DataPoint>& stream,
                            size_t memtable_capacity) {
  StorageReplay r;
  const size_t n = std::min(stream.size(), kReplayPoints);
  if (n == 0) {
    r.error = "no input points";
    return r;
  }
  Status st = env->CreateDirIfMissing(dir);
  if (!st.ok()) {
    r.error = Describe("create replay dir", st);
    return r;
  }

  {  // MemTable: fill to capacity, drain (untimed), repeat.
    ScopedSpan span("replay.memtable");
    seplsm::storage::MemTable mem(memtable_capacity);
    int64_t add_ns = 0;
    size_t i = 0;
    while (i < n) {
      const int64_t t0 = NowNs();
      while (i < n && !mem.full()) mem.Add(stream[i++]);
      add_ns += NowNs() - t0;
      mem.Drain();
    }
    r.memtable_add_ns_per_pt = PerUnit(add_ns, n, 1.0);
  }

  {  // WAL: one 64-point record then one fsync, as a lone group-commit round.
    ScopedSpan span("replay.wal");
    auto wal = seplsm::storage::WalWriter::Open(env, dir + "/replay.wal");
    if (!wal.ok()) {
      r.error = Describe("open replay wal", wal.status());
      return r;
    }
    int64_t append_ns = 0;
    int64_t sync_ns = 0;
    size_t batches = 0;
    for (size_t i = 0; i + kWalBatch <= n && batches < kWalBatches;
         i += kWalBatch, ++batches) {
      int64_t t0 = NowNs();
      st = (*wal)->AppendBatch(&stream[i], kWalBatch);
      int64_t t1 = NowNs();
      if (st.ok()) st = (*wal)->Sync();
      int64_t t2 = NowNs();
      if (!st.ok()) {
        r.error = Describe("replay wal", st);
        return r;
      }
      append_ns += t1 - t0;
      sync_ns += t2 - t1;
    }
    st = (*wal)->Close();
    if (!st.ok()) {
      r.error = Describe("close replay wal", st);
      return r;
    }
    r.wal_append_batch_us = PerUnit(append_ns, batches, 1e3);
    r.wal_sync_us = PerUnit(sync_ns, batches, 1e3);
  }

  {  // Block codec on sorted 128-point blocks.
    ScopedSpan span("replay.block_codec");
    auto blocks = SortedChunks(stream, kBlockPoints);
    std::vector<std::string> encoded;
    encoded.reserve(blocks.size());
    seplsm::format::BlockBuilder builder;
    int64_t t0 = NowNs();
    for (const auto& block : blocks) {
      for (const DataPoint& p : block) builder.Add(p);
      encoded.push_back(builder.Finish());
    }
    int64_t encode_ns = NowNs() - t0;
    std::vector<DataPoint> decoded;
    decoded.reserve(kBlockPoints);
    int64_t decode_ns = 0;
    for (size_t b = 0; b < encoded.size(); ++b) {
      decoded.clear();
      t0 = NowNs();
      st = seplsm::format::DecodeBlock(encoded[b], &decoded);
      decode_ns += NowNs() - t0;
      if (!st.ok() || decoded.size() != blocks[b].size()) {
        r.error = Describe("replay decode", st);
        return r;
      }
    }
    r.block_encode_ns_per_pt = PerUnit(encode_ns, n, 1.0);
    r.block_decode_ns_per_pt = PerUnit(decode_ns, n, 1.0);
  }

  // SSTables: one per flush-sized chunk, then read back and merged.
  auto tables = SortedChunks(stream, kTablePoints);
  std::vector<std::string> paths;
  {
    ScopedSpan span("replay.sstable_write");
    int64_t write_ns = 0;
    for (size_t t = 0; t < tables.size(); ++t) {
      paths.push_back(seplsm::storage::TableFilePath(dir, t + 1));
      const int64_t t0 = NowNs();
      seplsm::storage::SSTableWriter writer(env, paths.back(), kBlockPoints);
      for (const DataPoint& p : tables[t]) {
        st = writer.Add(p);
        if (!st.ok()) break;
      }
      if (st.ok()) st = writer.Finish().status();
      write_ns += NowNs() - t0;
      if (!st.ok()) {
        r.error = Describe("replay sstable write", st);
        return r;
      }
    }
    r.sstable_write_ns_per_pt = PerUnit(write_ns, n, 1.0);
  }

  std::vector<std::shared_ptr<seplsm::storage::SSTableReader>> readers;
  for (const std::string& path : paths) {
    auto reader = seplsm::storage::SSTableReader::Open(env, path);
    if (!reader.ok()) {
      r.error = Describe("replay sstable open", reader.status());
      return r;
    }
    readers.push_back(std::move(*reader));
  }
  {
    ScopedSpan span("replay.sstable_read");
    int64_t read_ns = 0;
    uint64_t points = 0;
    std::vector<DataPoint> out;
    for (const auto& reader : readers) {
      out.clear();
      const int64_t t0 = NowNs();
      st = reader->ReadRange(std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max(), &out);
      read_ns += NowNs() - t0;
      if (!st.ok()) {
        r.error = Describe("replay sstable read", st);
        return r;
      }
      points += out.size();
    }
    r.sstable_read_ns_per_pt = PerUnit(read_ns, points, 1.0);
  }
  {  // k-way merge of consecutive (overlapping) flushes, like an L0 fold.
    ScopedSpan span("replay.merge");
    int64_t merge_ns = 0;
    uint64_t merged = 0;
    for (size_t g = 0; g < readers.size(); g += kMergeFanIn) {
      std::vector<std::unique_ptr<seplsm::storage::PointIterator>> children;
      const size_t end = std::min(readers.size(), g + kMergeFanIn);
      // Newest first: later flushes take precedence on equal keys.
      for (size_t i = end; i-- > g;) {
        children.push_back(readers[i]->NewIterator());
      }
      const int64_t t0 = NowNs();
      seplsm::storage::MergingIterator merge(std::move(children));
      for (; merge.Valid(); merge.Next()) ++merged;
      merge_ns += NowNs() - t0;
      if (!merge.status().ok()) {
        r.error = Describe("replay merge", merge.status());
        return r;
      }
    }
    r.merge_ns_per_pt = PerUnit(merge_ns, merged, 1.0);
  }
  return r;
}

AnalyzerReplay ReplayAnalyzer(
    seplsm::Env* env, const std::string& dir,
    const std::vector<DataPoint>& stream,
    const seplsm::analyzer::AdaptiveController::Options& controller_options,
    size_t memtable_capacity) {
  AnalyzerReplay r;
  {  // Observe cost on batches that never reach a decision.
    ScopedSpan span("replay.analyzer_observe");
    seplsm::engine::Options o;
    o.env = env;
    o.dir = dir + "/observe";
    o.num_levels = 2;
    o.policy = seplsm::engine::PolicyConfig::Conventional(memtable_capacity);
    auto engine = seplsm::engine::TsEngine::Open(o);
    if (!engine.ok()) {
      r.error = Describe("open observe engine", engine.status());
      return r;
    }
    auto copt = controller_options;
    copt.warmup_points = std::numeric_limits<uint64_t>::max();
    seplsm::analyzer::AdaptiveController controller(engine->get(), copt);
    int64_t observe_ns = 0;
    for (size_t i = 0; i < stream.size(); i += kWalBatch) {
      const size_t count = std::min(kWalBatch, stream.size() - i);
      const int64_t t0 = NowNs();
      Status st = controller.ObserveBatch(&stream[i], count);
      observe_ns += NowNs() - t0;
      if (!st.ok()) {
        r.error = Describe("replay observe", st);
        return r;
      }
    }
    r.observe_ns_per_pt = PerUnit(observe_ns, stream.size(), 1.0);
  }

  const size_t end =
      std::min<size_t>(controller_options.warmup_points, stream.size());
  if (end < 2) {
    r.error = "replay: too few points for a warmup decision";
    return r;
  }
  const size_t begin = end > controller_options.reservoir_capacity
                           ? end - controller_options.reservoir_capacity
                           : 0;
  std::vector<double> sample;
  int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (size_t i = 0; i < end; ++i) {
    lo = std::min(lo, stream[i].generation_time);
    hi = std::max(hi, stream[i].generation_time);
    if (i >= begin) sample.push_back(static_cast<double>(stream[i].delay()));
  }
  const double delta_t = hi > lo ? static_cast<double>(hi - lo) /
                                       static_cast<double>(end - 1)
                                 : 1.0;

  ScopedSpan span("replay.analyzer_decision");
  const int64_t t0 = NowNs();
  auto fit =
      seplsm::analyzer::FitDelayDistribution(sample, controller_options.fitter);
  r.fit_ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (!fit.ok()) {
    r.error = Describe("replay fit", fit.status());
    return r;
  }
  seplsm::model::WaModel model(*fit->distribution, delta_t,
                               controller_options.tuning.subsequent_options,
                               controller_options.tuning.iota_offset);
  model.set_granularity_sstable_points(
      controller_options.tuning.granularity_sstable_points);
  const int64_t t1 = NowNs();
  volatile double wa = model.ConventionalWa(memtable_capacity);
  const int64_t t2 = NowNs();
  wa = model.SeparationWa(memtable_capacity, memtable_capacity / 2);
  const int64_t t3 = NowNs();
  (void)wa;
  r.conventional_wa_ms = static_cast<double>(t2 - t1) / 1e6;
  r.separation_wa_ms = static_cast<double>(t3 - t2) / 1e6;

  auto tuning = controller_options.tuning;
  tuning.keep_curve = true;
  const int64_t t4 = NowNs();
  auto result = seplsm::model::TunePolicy(*fit->distribution, delta_t,
                                          memtable_capacity, tuning);
  r.tune_ms = static_cast<double>(NowNs() - t4) / 1e6;
  r.evals_per_decision = static_cast<double>(result.separation_curve.size());
  return r;
}

}  // namespace e2ebench
