#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include <sched.h>

#include "counting_env.h"
#include "dist/parametric.h"
#include "engine/job_scheduler.h"
#include "engine/multi_series_db.h"
#include "engine/ts_engine.h"
#include "replays.h"
#include "sampling.h"
#include "storage/wal_committer.h"
#include "ram_env.h"
#include "trace.h"
#include "workload/datasets.h"
#include "workload/synthetic.h"

namespace e2ebench {

using seplsm::DataPoint;
using seplsm::Env;
using seplsm::Status;
using seplsm::engine::Aggregates;
using seplsm::engine::MultiSeriesDB;
using seplsm::engine::PolicyConfig;
using seplsm::engine::QueryStats;
using seplsm::storage::GroupCommitter;

namespace {

// ---- Workload sizes (README.md explains each against the caches) --------
constexpr size_t kBatch = 64;
constexpr size_t kMemtable = 512;  ///< n, the paper's memory budget
constexpr size_t kNseq = 256;
constexpr size_t kIngestShards = 16;

constexpr size_t kFleetSeries = 512;
constexpr size_t kFleetPointsPerSeries = 4096;
static_assert(kFleetPointsPerSeries % kBatch == 0);
constexpr size_t kFleetWriters = 2;
constexpr size_t kFleetBgThreads = 2;
/// Verification queries per kind per series, and their sizes in points.
constexpr size_t kFleetQueriesPerKind = 2;
constexpr size_t kFleetQueryPoints[] = {256, 256, 1024};  ///< recent, hist, agg

constexpr size_t kQueryPreload = 400'000;
constexpr size_t kQueryBlockCacheBytes = 2u << 20;
constexpr size_t kQueryTableCache = 256;
constexpr int64_t kQuerySummaryWindow = 64 * 50;  ///< 64 points at M1's Δt
constexpr double kQueryWriteRate = 20'000.0;      ///< points per second
constexpr double kQueryPhaseS = 8.0;              ///< measured per pass
constexpr size_t kQueryRecentPoints = 8192;
constexpr size_t kQueryHistPoints = 8192;
constexpr size_t kQueryAggPoints = 32768;

constexpr size_t kMinPasses = 3;  ///< measured passes, after the warm-up

enum Kind { kRecent, kHist, kAgg, kNumKinds };
const char* const kKindNames[kNumKinds] = {"recent", "hist", "agg"};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Sleeps until shortly before `deadline_ns`, then spins up to it: a plain
/// sleep wakes ~0.1 ms late (timer slack), which would be charged to every
/// append timed from its due time.
void SleepUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 300'000;
  const int64_t now = NowNs();
  if (deadline_ns - kSpinNs > now) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - kSpinNs - now));
  }
  while (NowNs() < deadline_ns) {
  }
}

/// Thread placement for query_under_ingest (README.md, "CPU placement"):
/// the writer and the group-commit thread share one CPU and every other
/// thread of the pass runs on the remaining ones, so an append's two
/// hand-offs never wait for an idle virtual CPU to be woken. Threads inherit
/// their creator's placement. Does nothing when only one CPU is allowed; the
/// destructor restores the creating thread's placement.
class CpuPlacement {
 public:
  CpuPlacement() {
    CPU_ZERO(&allowed_);
    enabled_ = sched_getaffinity(0, sizeof allowed_, &allowed_) == 0 &&
               CPU_COUNT(&allowed_) >= 2;
    if (!enabled_) return;
    int first = 0;
    while (!CPU_ISSET(first, &allowed_)) ++first;
    CPU_ZERO(&writer_);
    CPU_SET(first, &writer_);
    others_ = allowed_;
    CPU_CLR(first, &others_);
  }
  ~CpuPlacement() { Set(allowed_); }
  CpuPlacement(const CpuPlacement&) = delete;
  CpuPlacement& operator=(const CpuPlacement&) = delete;

  /// Moves the calling thread to the writer's CPU.
  void ToWriterCpu() const { Set(writer_); }
  /// Moves the calling thread off the writer's CPU.
  void ToOtherCpus() const { Set(others_); }

 private:
  void Set(const cpu_set_t& cpus) const {
    if (enabled_) sched_setaffinity(0, sizeof cpus, &cpus);
  }

  bool enabled_ = false;
  cpu_set_t allowed_, writer_, others_;
};

// ---- Inputs and the oracle ----------------------------------------------

struct SeriesInput {
  std::string name;
  std::vector<DataPoint> stream;  ///< arrival order, as it is ingested
};

/// One series' generated stream sorted by generation time (unique keys),
/// with each point's position in arrival order.
class SeriesOracle {
 public:
  explicit SeriesOracle(const std::vector<DataPoint>& arrival) {
    std::vector<uint32_t> order(arrival.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return arrival[a].generation_time < arrival[b].generation_time;
    });
    sorted_.reserve(order.size());
    for (uint32_t i : order) sorted_.push_back(arrival[i]);
    rank_ = std::move(order);
  }

  const std::vector<DataPoint>& sorted() const { return sorted_; }
  uint32_t rank(size_t i) const { return rank_[i]; }

  /// First index whose generation time is >= t.
  size_t Lower(int64_t t) const {
    return std::lower_bound(sorted_.begin(), sorted_.end(), t,
                            [](const DataPoint& p, int64_t v) {
                              return p.generation_time < v;
                            }) -
           sorted_.begin();
  }
  /// First index whose generation time is > t.
  size_t Upper(int64_t t) const {
    return std::upper_bound(sorted_.begin(), sorted_.end(), t,
                            [](int64_t v, const DataPoint& p) {
                              return v < p.generation_time;
                            }) -
           sorted_.begin();
  }

  /// Aggregates over sorted_[b, e).
  Aggregates Fold(size_t b, size_t e) const {
    Aggregates a;
    for (size_t i = b; i < e; ++i) a.Accumulate(sorted_[i]);
    return a;
  }

 private:
  std::vector<DataPoint> sorted_;
  std::vector<uint32_t> rank_;
};

uint64_t Checksum(const DataPoint* p, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &p[i].value, sizeof(bits));
    sum += Mix(static_cast<uint64_t>(p[i].generation_time), bits);
  }
  return sum;
}

/// True when `got` holds exactly sorted[b, e) (generation time and value).
bool SameSlice(const std::vector<DataPoint>& got,
               const std::vector<DataPoint>& sorted, size_t b, size_t e) {
  if (got.size() != e - b) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].generation_time != sorted[b + i].generation_time ||
        got[i].value != sorted[b + i].value) {
      return false;
    }
  }
  return true;
}

bool SameAggregates(const Aggregates& a, const Aggregates& b) {
  const double tol = 1e-9 * std::max(1.0, std::fabs(b.sum));
  return a.count == b.count && std::fabs(a.sum - b.sum) <= tol &&
         a.min == b.min && a.max == b.max && a.first_time == b.first_time &&
         a.last_time == b.last_time && a.first_value == b.first_value &&
         a.last_value == b.last_value;
}

std::vector<SeriesInput> MakeFleetInputs(uint64_t seed) {
  const auto& configs = seplsm::workload::TableII();
  std::vector<SeriesInput> out(kFleetSeries);
  for (size_t i = 0; i < kFleetSeries; ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "vehicle0/%s/sensor%03zu",
                  configs[i % configs.size()].name.c_str(), i);
    out[i].name = name;
    out[i].stream = seplsm::workload::GenerateTableII(
        configs[i % configs.size()], kFleetPointsPerSeries, Mix(seed, i));
  }
  return out;
}

// ---- What one pass measured ---------------------------------------------

struct KindStats {
  std::vector<double> latency_us;
  QueryStats stats;  ///< summed over the kind's queries
  int64_t call_ns = 0;
};

void AddQueryStats(QueryStats* sum, const QueryStats& q) {
  sum->points_returned += q.points_returned;
  sum->disk_points_scanned += q.disk_points_scanned;
  sum->files_opened += q.files_opened;
  sum->memtable_points += q.memtable_points;
  sum->device_bytes_read += q.device_bytes_read;
  sum->block_cache_hits += q.block_cache_hits;
  sum->block_cache_misses += q.block_cache_misses;
  sum->blocks_read += q.blocks_read;
  sum->pruning.MergeFrom(q.pruning);
}

struct Pass {
  double setup_s = 0.0;
  uint64_t points = 0;        ///< points acknowledged in the measured phase
  uint64_t batches = 0;
  /// First append until everything is acked (closed loop: and drained).
  double ingest_s = 0.0;
  std::vector<double> append_us;
  double append_max_ms = 0.0;
  double wa = 0.0;
  double disk_bytes_per_pt = 0.0;
  std::array<KindStats, kNumKinds> kinds;
  uint64_t query_calls = 0;   ///< every query, oracle full scans included
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string fatal;

  seplsm::engine::Metrics metrics;
  GroupCommitter::Stats committer;

  // Traced pass only.
  int64_t load_active_ns = 0;
  int64_t load_covered_ns = 0;
  std::array<CountingEnv::Tally, CountingEnv::kNumOps> env{};
  std::array<CountingEnv::Tally, CountingEnv::kNumOps> env_query{};
  std::vector<double> sync_ns;

  void Call(const Status& st, const std::string& what) {
    ++attempted;
    if (!st.ok()) Wrong(what + ": " + st.ToString());
  }
  void Wrong(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  /// Seconds per acknowledged point (what the traced run compares).
  double cost() const { return points == 0 ? 0.0 : ingest_s / points; }
};

/// Per-thread latency log of a load thread, merged into the pass after join.
struct LoadLog {
  std::vector<double> append_us;
  double max_ms = 0.0;
  uint64_t points = 0;
  uint64_t batches = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few
  int64_t active_ns = 0;
  int64_t covered_ns = 0;

  void Record(const Status& st, int64_t latency_ns, size_t count,
              const std::string& series) {
    ++attempted;
    ++batches;
    if (st.ok()) {
      points += count;
    } else if (++failed <= 8) {
      failures.push_back(series + ": " + st.ToString());
    }
    append_us.push_back(static_cast<double>(latency_ns) / 1e3);
    max_ms = std::max(max_ms, static_cast<double>(latency_ns) / 1e6);
  }
};

void MergeLoad(Pass* p, const LoadLog& log) {
  p->append_us.insert(p->append_us.end(), log.append_us.begin(),
                      log.append_us.end());
  p->append_max_ms = std::max(p->append_max_ms, log.max_ms);
  p->points += log.points;
  p->batches += log.batches;
  p->attempted += log.attempted;
  p->failed += log.failed;
  for (const std::string& f : log.failures) p->errors.push_back("append " + f);
  p->load_active_ns += log.active_ns;
  p->load_covered_ns += log.covered_ns;
}

std::string PassDir(const RunOptions& ro, size_t index) {
  return ro.work_dir + "/pass" + std::to_string(index);
}

void SnapshotEnv(const CountingEnv* counting, Pass* p) {
  if (counting == nullptr) return;
  for (size_t op = 0; op < CountingEnv::kNumOps; ++op) {
    p->env[op] = counting->Get(static_cast<CountingEnv::Op>(op));
    p->env_query[op] = counting->GetQuery(static_cast<CountingEnv::Op>(op));
  }
  p->sync_ns = counting->SyncLatenciesNs();
}

/// Live SSTable bytes per unique point stored.
double DiskBytesPerPoint(const seplsm::engine::Metrics& m, uint64_t points) {
  uint64_t bytes = 0;
  for (const auto& level : m.level_stats) bytes += level.bytes;
  return points == 0 ? 0.0 : static_cast<double>(bytes) / points;
}

/// One timed query call: span, env attribution and per-kind statistics.
template <typename Fn>
Status TimedQuery(Pass* p, Kind kind, const char* span_name, Fn&& fn) {
  QueryStats stats;
  ScopedSpan span(span_name);
  CountingEnv::QueryScope scope;
  const int64_t t0 = NowNs();
  Status st = fn(&stats);
  const int64_t ns = NowNs() - t0;
  KindStats& k = p->kinds[kind];
  k.latency_us.push_back(static_cast<double>(ns) / 1e3);
  k.call_ns += ns;
  AddQueryStats(&k.stats, stats);
  ++p->query_calls;
  return st;
}

// ---- ingest_fleet --------------------------------------------------------

MultiSeriesDB::MultiOptions FleetOptions() {
  MultiSeriesDB::MultiOptions mo;
  mo.base.policy = PolicyConfig::Separation(kMemtable, kNseq);
  mo.base.background_mode = true;
  mo.base.background_threads = kFleetBgThreads;
  mo.base.num_levels = 2;
  mo.base.enable_wal = true;
  mo.base.wal_group_commit = true;
  mo.ingest_shards = kIngestShards;
  return mo;
}

/// The options of the controller whose warmup decision the traced run
/// replays: bench_fig10's (the default sweep_step of 1 takes minutes).
seplsm::analyzer::AdaptiveController::Options ControllerOptions() {
  seplsm::analyzer::AdaptiveController::Options a;
  a.warmup_points = 4096;
  a.check_interval = 4096;
  a.tuning.sweep_step = 16;
  a.tuning.granularity_sstable_points = 512;
  return a;
}

void VerifySeries(MultiSeriesDB* db, const SeriesInput& in,
                  std::mt19937_64* rng, Pass* p) {
  SeriesOracle oracle(in.stream);
  const auto& sorted = oracle.sorted();
  const size_t n = sorted.size();
  std::vector<DataPoint> out;

  {  // Durability oracle: the whole series, count plus value checksum.
    ScopedSpan span("db.query");
    CountingEnv::QueryScope scope;
    out.clear();
    p->Call(db->Query(in.name, sorted.front().generation_time,
                      sorted.back().generation_time, &out),
            "query " + in.name);
    ++p->query_calls;
    if (out.size() != n || Checksum(out.data(), out.size()) !=
                               Checksum(sorted.data(), n)) {
      p->Wrong(in.name + ": full scan returned " + std::to_string(out.size()) +
               " points, appended " + std::to_string(n));
    }
  }
  auto random_start = [&](size_t len) {
    return len >= n ? 0 : std::uniform_int_distribution<size_t>(0, n - len)(*rng);
  };
  for (size_t q = 0; q < kFleetQueriesPerKind; ++q) {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      const size_t len = std::min(kFleetQueryPoints[kind], n);
      const size_t b = kind == kRecent ? n - len : random_start(len);
      const size_t e = b + len;
      out.clear();
      Status st = TimedQuery(p, static_cast<Kind>(kind), "db.query",
                             [&](QueryStats* stats) {
                               return db->Query(in.name,
                                                sorted[b].generation_time,
                                                sorted[e - 1].generation_time,
                                                &out, stats);
                             });
      p->Call(st, std::string(kKindNames[kind]) + " query " + in.name);
      if (kind == kAgg) {
        Aggregates got;
        for (const DataPoint& pt : out) got.Accumulate(pt);
        if (!SameAggregates(got, oracle.Fold(b, e))) {
          p->Wrong(in.name + ": agg answer differs from the stream");
        }
      } else if (!SameSlice(out, sorted, b, e)) {
        p->Wrong(in.name + ": " + kKindNames[kind] +
                 " answer differs from the stream");
      }
    }
  }
}

Pass RunFleetPass(const RunOptions& ro, Env* env, CountingEnv* counting,
                  size_t index, uint64_t seed) {
  Pass p;
  const int64_t setup_start = NowNs();
  std::vector<SeriesInput> inputs = MakeFleetInputs(seed);
  const std::string dir = PassDir(ro, index);
  auto committer = std::make_shared<GroupCommitter>();
  MultiSeriesDB::MultiOptions mo = FleetOptions();
  mo.base.env = env;
  mo.base.dir = dir;
  mo.base.wal_committer = committer;
  auto opened = MultiSeriesDB::Open(mo);
  if (!opened.ok()) {
    p.fatal = "open " + dir + ": " + opened.status().ToString();
    return p;
  }
  std::unique_ptr<MultiSeriesDB> db = std::move(*opened);
  Status st;
  // Registering the fleet is set-up: each series' first batch creates it
  // (directory, WAL, engine), so the measured phase is steady-state ingest
  // rather than series creation.
  for (size_t s = 0; st.ok() && s < inputs.size(); ++s) {
    st = db->AppendBatch(inputs[s].name, inputs[s].stream.data(), kBatch);
  }
  p.setup_s = Seconds(NowNs() - setup_start);
  if (!st.ok()) {
    p.fatal = "register series: " + st.ToString();
    return p;
  }
  if (counting != nullptr) counting->Reset();

  // Writer t owns series t, t + writers, ...; each appends the next 64
  // points of every owned series in turn.
  std::vector<LoadLog> logs(kFleetWriters);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kFleetWriters; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      LoadLog& log = logs[t];
      const int64_t begin = NowNs();
      for (size_t off = kBatch; off < kFleetPointsPerSeries; off += kBatch) {
        for (size_t s = t; s < inputs.size(); s += kFleetWriters) {
          ScopedSpan span("db.append_batch");
          const int64_t t0 = NowNs();
          Status s_st =
              db->AppendBatch(inputs[s].name, &inputs[s].stream[off], kBatch);
          log.Record(s_st, NowNs() - t0, kBatch, inputs[s].name);
        }
      }
      log.active_ns = NowNs() - begin;
      log.covered_ns = Tracer::Get().CurrentThreadRootNs();
    });
  }
  const int64_t ingest_start = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  {
    ScopedSpan span("db.flush_all");
    p.Call(db->FlushAll(), "flush_all");
  }
  p.ingest_s = Seconds(NowNs() - ingest_start);
  for (const LoadLog& log : logs) MergeLoad(&p, log);

  p.metrics = db->GetAggregateMetrics();
  p.committer = committer->GetStats();
  p.wa = p.metrics.WriteAmplification();
  uint64_t stored = 0;
  for (const SeriesInput& in : inputs) stored += in.stream.size();
  p.disk_bytes_per_pt = DiskBytesPerPoint(p.metrics, stored);

  std::mt19937_64 rng(Mix(seed, 77));
  for (const SeriesInput& in : inputs) VerifySeries(db.get(), in, &rng, &p);
  SnapshotEnv(counting, &p);
  db.reset();
  return p;
}

// ---- query_under_ingest --------------------------------------------------

Pass RunQueryPass(const RunOptions& ro, Env* env, CountingEnv* counting,
                  size_t index, uint64_t seed) {
  Pass p;
  const int64_t setup_start = NowNs();
  const auto& config = seplsm::workload::TableIIByName("M1");
  const size_t live_points =
      static_cast<size_t>(kQueryWriteRate * kQueryPhaseS * 1.2) + kBatch;
  const std::vector<DataPoint> stream = seplsm::workload::GenerateTableII(
      config, kQueryPreload + live_points, Mix(seed, 500));
  const std::string dir = PassDir(ro, index);
  const CpuPlacement cpus;
  cpus.ToWriterCpu();
  auto committer = std::make_shared<GroupCommitter>();
  cpus.ToOtherCpus();  // the engine's threads, the preload and the reader
  seplsm::engine::Options o;
  o.env = env;
  o.dir = dir;
  o.num_levels = 2;
  o.policy = PolicyConfig::Separation(kMemtable, kNseq);
  o.background_mode = true;
  o.job_scheduler = std::make_shared<seplsm::engine::JobScheduler>(1);  // 1 worker
  o.table_cache_entries = kQueryTableCache;
  o.block_cache_bytes = kQueryBlockCacheBytes;
  o.summary_window = kQuerySummaryWindow;
  o.enable_wal = true;
  o.wal_group_commit = true;
  o.wal_committer = committer;
  std::unique_ptr<seplsm::engine::TsEngine> db;
  auto opened = seplsm::engine::TsEngine::Open(o);
  Status st = opened.status();
  if (st.ok()) db = std::move(*opened);
  for (size_t i = 0; st.ok() && i < kQueryPreload; i += 4096) {
    st = db->AppendBatch(&stream[i], std::min<size_t>(4096, kQueryPreload - i));
  }
  if (st.ok()) st = db->FlushAll();
  p.setup_s = Seconds(NowNs() - setup_start);
  if (!st.ok()) {
    p.fatal = "set up " + dir + ": " + st.ToString();
    return p;
  }

  const SeriesOracle oracle(stream);
  const auto& sorted = oracle.sorted();
  // Old windows lie wholly below every live point, so their answers are
  // fixed by the preload.
  int64_t min_live = INT64_MAX;
  for (size_t i = kQueryPreload; i < stream.size(); ++i) {
    min_live = std::min(min_live, stream[i].generation_time);
  }
  const size_t old_limit = oracle.Lower(min_live);
  std::vector<int64_t> frontier(stream.size() + 1, INT64_MIN);
  for (size_t i = 0; i < stream.size(); ++i) {
    frontier[i + 1] = std::max(frontier[i], stream[i].generation_time);
  }
  const int64_t dt = static_cast<int64_t>(config.delta_t);
  if (old_limit < kQueryAggPoints + 1) {
    p.fatal = "too few old points for historical queries";
    return p;
  }
  if (counting != nullptr) counting->Reset();

  std::atomic<size_t> acked{kQueryPreload};
  // Set at the first failed call or wrong answer: the pass then ends, since
  // after a corruption the engine refuses writes and further calls measure
  // nothing (the failure is already counted).
  std::atomic<bool> broken{false};
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(kQueryPhaseS * 1e9);
  LoadLog writer_log;
  int64_t writer_idle_ns = 0;
  int64_t last_ack = start;
  std::thread writer([&] {
    cpus.ToWriterCpu();
    const double batch_ns = 1e9 * kBatch / kQueryWriteRate;
    for (size_t k = 0;; ++k) {
      const int64_t due = start + static_cast<int64_t>(batch_ns * k);
      const size_t off = kQueryPreload + k * kBatch;
      if (due >= end || off + kBatch > stream.size() || broken) break;
      const int64_t before = NowNs();
      SleepUntil(due);
      writer_idle_ns += NowNs() - before;
      ScopedSpan span("db.append_batch");
      Status ws = db->AppendBatch(&stream[off], kBatch);
      last_ack = NowNs();
      writer_log.Record(ws, last_ack - due, kBatch, "series");
      if (ws.ok()) {
        acked.store(off + kBatch, std::memory_order_release);
      } else {
        broken = true;
      }
    }
    writer_log.active_ns = NowNs() - start - writer_idle_ns;
    writer_log.covered_ns = Tracer::Get().CurrentThreadRootNs();
  });

  int64_t reader_active_ns = 0;
  int64_t reader_covered_ns = 0;
  std::thread reader([&] {
    std::mt19937_64 rng(Mix(seed, 900));
    std::vector<DataPoint> out;
    const int64_t begin = NowNs();
    for (size_t q = 0; NowNs() < end; ++q) {
      if (broken || p.failed > 0) {
        broken = true;
        break;
      }
      const Kind kind = static_cast<Kind>(q % kNumKinds);
      out.clear();
      if (kind == kRecent) {
        const size_t acked_before = acked.load(std::memory_order_acquire);
        const int64_t hi = frontier[acked_before];
        const int64_t lo = hi - static_cast<int64_t>(kQueryRecentPoints - 1) * dt;
        Status qs = TimedQuery(&p, kind, "db.query", [&](QueryStats* stats) {
          return db->Query(lo, hi, &out, stats);
        });
        p.Call(qs, "recent query");
        // Sorted, in range, every returned point a real one, and every
        // point acknowledged before the query started present.
        ScopedSpan check("bench.oracle");
        size_t acked_seen = 0;
        bool ok = true;
        for (size_t i = 0; ok && i < out.size(); ++i) {
          const int64_t t = out[i].generation_time;
          const size_t at = oracle.Lower(t);
          ok = t >= lo && t <= hi &&
               (i == 0 || out[i - 1].generation_time < t) &&
               at < sorted.size() && sorted[at].generation_time == t &&
               sorted[at].value == out[i].value;
          if (ok && oracle.rank(at) < acked_before) ++acked_seen;
        }
        size_t acked_expected = 0;
        for (size_t i = oracle.Lower(lo), e = oracle.Upper(hi); i < e; ++i) {
          if (oracle.rank(i) < acked_before) ++acked_expected;
        }
        if (!ok || acked_seen != acked_expected) {
          p.Wrong("recent answer over [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "] misses acknowledged points");
        }
      } else {
        const size_t len = kind == kHist ? kQueryHistPoints : kQueryAggPoints;
        const size_t b =
            std::uniform_int_distribution<size_t>(0, old_limit - len)(rng);
        const int64_t lo = sorted[b].generation_time;
        const int64_t hi = sorted[b + len - 1].generation_time;
        if (kind == kHist) {
          Status qs = TimedQuery(&p, kind, "db.query", [&](QueryStats* stats) {
            return db->Query(lo, hi, &out, stats);
          });
          p.Call(qs, "hist query");
          ScopedSpan check("bench.oracle");
          if (!SameSlice(out, sorted, b, b + len)) {
            p.Wrong("hist answer differs from the stream");
          }
        } else {
          Aggregates got;
          Status qs = TimedQuery(&p, kind, "db.aggregate",
                                 [&](QueryStats* stats) {
                                   return db->Aggregate(lo, hi, &got, stats);
                                 });
          p.Call(qs, "agg query");
          ScopedSpan check("bench.oracle");
          if (!SameAggregates(got, oracle.Fold(b, b + len))) {
            p.Wrong("agg answer differs from the stream");
          }
        }
      }
    }
    reader_active_ns = NowNs() - begin;
    reader_covered_ns = Tracer::Get().CurrentThreadRootNs();
  });
  writer.join();
  reader.join();
  {
    ScopedSpan span("db.flush_all");
    p.Call(db->FlushAll(), "flush_all");
  }
  MergeLoad(&p, writer_log);
  p.load_active_ns += reader_active_ns;
  p.load_covered_ns += reader_covered_ns;
  p.ingest_s = Seconds(last_ack - start);
  p.metrics = db->GetMetrics();
  p.committer = committer->GetStats();
  p.wa = p.metrics.WriteAmplification();
  p.disk_bytes_per_pt =
      DiskBytesPerPoint(p.metrics, acked.load(std::memory_order_acquire));
  SnapshotEnv(counting, &p);
  db.reset();
  return p;
}

// ---- Composition -------------------------------------------------------

/// The device one pass's databases live on (README.md, "Devices"): memory,
/// so the figures are the engine's rather than a disk's or its journal's.
std::unique_ptr<Env> MakeDevice() { return std::make_unique<RamEnv>(); }

/// Pass `index` of a run generates its inputs from this seed, so the passes
/// of one run cover different inputs and the run's figures are less at the
/// mercy of one draw.
uint64_t PassSeed(uint64_t run_seed, size_t index) {
  return Mix(run_seed, 0xe2eb0000 + index);
}

/// One pass on a fresh database in its own directory; `index` names it.
Pass RunPass(const RunOptions& ro, Env* env, CountingEnv* counting,
             size_t index, uint64_t seed) {
  if (ro.workload == "ingest_fleet") {
    return RunFleetPass(ro, env, counting, index, seed);
  }
  return RunQueryPass(ro, env, counting, index, seed);
}

/// Percentile `pct` of `samples`, which must meet the sample-count rule; a
/// violation makes the run unusable.
double CheckedPercentile(const std::vector<double>& samples, double pct,
                         const std::string& name, Report* report) {
  if (!EnoughSamples(samples.size(), pct)) {
    report->fatal = name + ": " + std::to_string(samples.size()) +
                    " samples, p" + std::to_string(static_cast<int>(pct)) +
                    " needs " + std::to_string(MinSamplesFor(pct));
  }
  return Percentile(samples, pct);
}

/// The run's end-to-end metrics, in BENCHMARK.json order (README.md,
/// "Metrics"). Percentiles and queries_per_s pool the calls of every pass,
/// which averages out how much one pass's inputs and compaction timing move
/// them. ingest_pts_per_s is the best quartile of the passes' rates, which
/// other processes on the machine move most. wa, disk_bytes_per_pt and
/// setup_s are medians. Passes with a failed call or a wrong answer are left
/// out (their failures are already counted in `report`), unless every pass
/// had one.
void EndToEnd(const std::vector<Pass>& all, Report* report) {
  std::vector<const Pass*> passes;
  for (const Pass& p : all) {
    if (p.failed == 0) passes.push_back(&p);
  }
  if (passes.empty()) {
    for (const Pass& p : all) passes.push_back(&p);
  }
  std::vector<double> setups, throughput, wa, disk, append_us;
  std::array<std::vector<double>, kNumKinds> query_us;
  int64_t query_ns = 0;
  for (const Pass* p : passes) {
    setups.push_back(p->setup_s);
    throughput.push_back(p->ingest_s > 0 ? p->points / p->ingest_s : 0.0);
    wa.push_back(p->wa);
    disk.push_back(p->disk_bytes_per_pt);
    append_us.insert(append_us.end(), p->append_us.begin(), p->append_us.end());
    for (int k = 0; k < kNumKinds; ++k) {
      const auto& samples = p->kinds[k].latency_us;
      query_us[k].insert(query_us[k].end(), samples.begin(), samples.end());
      query_ns += p->kinds[k].call_ns;
    }
  }
  const size_t queries =
      query_us[kRecent].size() + query_us[kHist].size() + query_us[kAgg].size();
  std::printf("figures from the %zu of %zu passes without failures: %zu "
              "appends, %zu/%zu/%zu recent/hist/agg queries\n",
              passes.size(), all.size(), append_us.size(),
              query_us[kRecent].size(), query_us[kHist].size(),
              query_us[kAgg].size());
  auto add = [&](const std::string& name, double value, const char* unit) {
    report->metrics.push_back({name, value, unit});
  };
  add("setup_s", Median(setups), "s");
  add("ingest_pts_per_s", BestQuartile(throughput, true), "pts/s");
  add("append_p50_us",
      CheckedPercentile(append_us, 50, "append_p50_us", report), "us");
  // The mean: one pass's wa is bimodal on query_under_ingest (README.md).
  add("wa", std::accumulate(wa.begin(), wa.end(), 0.0) / wa.size(), "ratio");
  add("disk_bytes_per_pt", Median(disk), "B/pt");
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string name = std::string(kKindNames[k]) + "_query_p50_us";
    add(name, CheckedPercentile(query_us[k], 50, name, report), "us");
  }
  add("queries_per_s", query_ns == 0 ? 0.0 : queries / Seconds(query_ns),
      "1/s");
  add("ops_ok_frac",
      report->attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(report->failed) /
                      static_cast<double>(report->attempted),
      "frac");
}

bool Absorb(const Pass& p, Report* report) {
  for (const std::string& e : p.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  if (!p.fatal.empty()) {
    report->fatal = p.fatal;
    return false;
  }
  return true;
}

// ---- Traced run ----------------------------------------------------------

struct LayerRow {
  const char* name;
  const char* unit;
  const char* moves;  ///< the end-to-end metric(s) this layer should move
  double value;
};

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::vector<LayerRow> PerLayer(const Pass& untraced, const Pass& t,
                               const StorageReplay& sr,
                               const AnalyzerReplay& ar, bool query_workload,
                               Report* report) {
  using E = CountingEnv;
  const double kpt = t.points / 1000.0;
  const double ingested = static_cast<double>(t.metrics.points_ingested);
  const auto& m = t.metrics;
  double queries = 0;
  for (const auto& k : t.kinds) queries += static_cast<double>(k.latency_us.size());
  std::vector<LayerRow> rows = {
      {"env.sync_calls_per_kpt", "1/kpt", "append_p99_us ingest_pts_per_s",
       Div(t.env[E::kSync].calls, kpt)},
      {"env.sync_us_p50", "us", "append_p50_us",
       Percentile(t.sync_ns, 50) / 1e3},
      {"env.dir_sync_calls_per_kpt", "1/kpt", "ingest_pts_per_s",
       Div(t.env[E::kDirSync].calls, kpt)},
      {"env.bytes_written_per_pt", "B/pt", "ingest_pts_per_s",
       Div(t.env[E::kAppend].bytes, t.points)},
      {"env.files_created_per_kpt", "1/kpt", "ingest_pts_per_s",
       Div(t.env[E::kCreate].calls, kpt)},
      {"env.read_bytes_per_query", "B/query", "hist_query_p50_us",
       Div(t.env_query[E::kRead].bytes, t.query_calls)},
      {"env.file_opens_per_query", "1/query", "hist_query_p50_us",
       Div(t.env_query[E::kOpenRead].calls, t.query_calls)},
      {"storage.wal_committer.points_per_sync", "pt/sync",
       "append_p50_us ingest_pts_per_s",
       Div(t.committer.commits, t.committer.syncs)},
      {"engine.stall_wal_commit_us_per_batch", "us", "append_p50_us",
       Div(m.stall_wal_commit_micros, t.batches)},
      {"storage.wal.append_batch_us", "us", "append_p50_us",
       sr.wal_append_batch_us},
      {"storage.wal.sync_us", "us", "append_p99_us", sr.wal_sync_us},
      {"storage.memtable.add_ns_per_pt", "ns/pt", "ingest_pts_per_s",
       sr.memtable_add_ns_per_pt},
      {"engine.shard_lock_waits_per_kbatch", "1/kbatch", "ingest_pts_per_s",
       Div(m.shard_lock_waits, t.batches / 1000.0)},
      {"format.block.encode_ns_per_pt", "ns/pt", "ingest_pts_per_s",
       sr.block_encode_ns_per_pt},
      {"storage.sstable.write_ns_per_pt", "ns/pt", "ingest_pts_per_s",
       sr.sstable_write_ns_per_pt},
      {"storage.merge.ns_per_pt", "ns/pt", "ingest_pts_per_s",
       sr.merge_ns_per_pt},
      {"engine.flushes_per_kpt", "1/kpt", "ingest_pts_per_s",
       Div(m.flush_count, ingested / 1000.0)},
      {"engine.merges_per_kpt", "1/kpt", "ingest_pts_per_s wa",
       Div(m.merge_count, ingested / 1000.0)},
      {"engine.compaction_bytes_written_per_pt", "B/pt", "ingest_pts_per_s wa",
       Div(m.compaction_bytes_written, ingested)},
      {"engine.bg_queue_wait_us_per_job", "us", "ingest_pts_per_s",
       Div(m.bg_queue_wait_micros, m.bg_flush_jobs + m.bg_compaction_jobs)},
      {"engine.writer_stall_us_per_kpt", "us/kpt", "append_p99_us",
       Div(m.writer_stall_micros, ingested / 1000.0)},
      {"format.block.decode_ns_per_pt", "ns/pt", "hist_query_p50_us",
       sr.block_decode_ns_per_pt},
      {"storage.sstable.read_ns_per_pt", "ns/pt", "hist_query_p50_us",
       sr.sstable_read_ns_per_pt},
  };
  // The end-to-end tails, from the untraced pass. On a shared machine they
  // move with the other tenants' load by more than any bound could hold
  // (README.md, "Metrics"), so they are reported here, without one.
  static const char* const kTail[] = {"recent_query_p99_us",
                                      "hist_query_p99_us", "agg_query_p99_us"};
  rows.push_back({"append_p99_us", "us", "(tail)",
                  CheckedPercentile(untraced.append_us, 99, "append_p99_us",
                                    report)});
  for (int k = 0; k < kNumKinds; ++k) {
    rows.push_back({kTail[k], "us", "(tail)",
                    CheckedPercentile(untraced.kinds[k].latency_us, 99,
                                      kTail[k], report)});
  }
  static const char* const kHitRate[] = {"storage.block_cache.hit_rate.recent",
                                         "storage.block_cache.hit_rate.hist",
                                         "storage.block_cache.hit_rate.agg"};
  static const char* const kBlocks[] = {"storage.blocks_read_per_query.recent",
                                        "storage.blocks_read_per_query.hist",
                                        "storage.blocks_read_per_query.agg"};
  static const char* const kFiles[] = {"storage.files_opened_per_query.recent",
                                       "storage.files_opened_per_query.hist",
                                       "storage.files_opened_per_query.agg"};
  static const char* const kReadAmp[] = {"storage.read_amp.recent",
                                         "storage.read_amp.hist",
                                         "storage.read_amp.agg"};
  static const char* const kMoves[] = {
      "recent_query_p50_us recent_query_p99_us queries_per_s",
      "hist_query_p50_us hist_query_p99_us queries_per_s",
      "agg_query_p50_us agg_query_p99_us queries_per_s"};
  double files_skipped = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    const QueryStats& s = t.kinds[k].stats;
    const double n = static_cast<double>(t.kinds[k].latency_us.size());
    rows.push_back({kHitRate[k], "frac", kMoves[k],
                    Div(s.block_cache_hits, s.block_cache_hits + s.block_cache_misses)});
    rows.push_back({kBlocks[k], "1/query", kMoves[k], Div(s.blocks_read, n)});
    rows.push_back({kFiles[k], "1/query", kMoves[k], Div(s.files_opened, n)});
    rows.push_back({kReadAmp[k], "ratio", kMoves[k],
                    Div(s.disk_points_scanned, s.points_returned)});
    files_skipped += static_cast<double>(s.pruning.files_skipped);
  }
  const double agg_queries = static_cast<double>(t.kinds[kAgg].latency_us.size());
  rows.push_back({"storage.files_skipped_per_query", "1/query",
                  "agg_query_p50_us", Div(files_skipped, queries)});
  rows.push_back({"storage.summary_hits_per_agg", "1/query", "agg_query_p50_us",
                  Div(t.kinds[kAgg].stats.pruning.summary_hits, agg_queries)});
  // Only a controller runs these, and no listed workload enables one.
  const char* analyzer_moves = "(no-listed-workload)";
  rows.push_back({"analyzer.fit_ms", "ms", analyzer_moves, ar.fit_ms});
  rows.push_back({"analyzer.observe_ns_per_pt", "ns/pt", analyzer_moves,
                  ar.observe_ns_per_pt});
  rows.push_back({"model.tune_ms", "ms", analyzer_moves, ar.tune_ms});
  rows.push_back({"model.evals_per_decision", "count", analyzer_moves,
                  ar.evals_per_decision});
  rows.push_back({"model.conventional_wa_ms", "ms", analyzer_moves,
                  ar.conventional_wa_ms});
  rows.push_back({"model.separation_wa_ms", "ms", analyzer_moves,
                  ar.separation_wa_ms});
  rows.push_back({"trace.unexplained_frac", "frac", "(all)",
                  1.0 - Div(static_cast<double>(t.load_covered_ns),
                            static_cast<double>(t.load_active_ns))});
  // Slowdown of the traced pass: per-point cost for ingest workloads, mean
  // query latency for the query workload.
  auto cost = [&](const Pass& p) {
    if (!query_workload) return p.cost();
    int64_t ns = 0;
    size_t n = 0;
    for (const auto& k : p.kinds) {
      ns += k.call_ns;
      n += k.latency_us.size();
    }
    return Div(static_cast<double>(ns), static_cast<double>(n));
  };
  rows.push_back({"telemetry.overhead_frac", "frac", "(all)",
                  Div(cost(t), cost(untraced)) - 1.0});
  return rows;
}

/// Which end-to-end metric each span name's time belongs to.
const char* SpanOwner(const std::string& name) {
  if (name == "db.append_batch") return "append_p50_us append_p99_us";
  if (name == "db.flush_all") return "ingest_pts_per_s";
  if (name == "db.query" || name == "db.aggregate") return "*_query_*";
  if (name == "env.sync" || name == "env.append" || name == "env.flush" ||
      name == "env.dir_sync" || name == "env.create" || name == "env.close")
    return "ingest_pts_per_s append_p99_us";
  if (name == "env.read" || name == "env.open_read") return "*_query_* (reads)";
  if (name.rfind("replay.", 0) == 0) return "(replay, untimed)";
  if (name == "bench.oracle") return "(benchmark's own answer checks)";
  return "-";
}

Report RunTraced(const RunOptions& ro) {
  Report report;
  const bool query_workload = ro.workload == "query_under_ingest";
  std::printf("traced run: a warm-up pass, an untraced pass, then a traced "
              "pass\n");
  // Every pass and the replays use the same inputs.
  const uint64_t seed = PassSeed(ro.seed, 0);
  // Pass 0 is the warm-up. The untraced pass supplies the tails, whose
  // sample counts a pass cut short by a failure cannot meet, so it is made
  // up to three times until one has no failure. Every failure still counts.
  size_t index = 0;
  Pass untraced;
  for (; index < 4; ++index) {
    untraced = RunPass(ro, MakeDevice().get(), nullptr, index, seed);
    if (!Absorb(untraced, &report)) return report;
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    if (index > 0 && untraced.failed == 0) break;
  }

  const std::unique_ptr<Env> device = MakeDevice();
  CountingEnv counting(device.get());
  Tracer::Get().SetEnabled(true);
  Pass traced = RunPass(ro, &counting, &counting, index + 1, seed);
  if (!Absorb(traced, &report)) {
    Tracer::Get().SetEnabled(false);
    return report;
  }
  report.attempted += traced.attempted;
  report.failed += traced.failed;

  // Replays run on this workload's own inputs, after the timed phases.
  std::vector<SeriesInput> inputs;
  if (ro.workload == "ingest_fleet") {
    inputs = MakeFleetInputs(seed);
  } else {
    inputs.push_back({"series", seplsm::workload::GenerateTableII(
                                    seplsm::workload::TableIIByName("M1"),
                                    1 << 16, Mix(seed, 500))});
  }
  std::vector<DataPoint> replay_stream;
  for (const auto& in : inputs) {
    replay_stream.insert(replay_stream.end(), in.stream.begin(), in.stream.end());
    if (replay_stream.size() >= (1u << 16)) break;
  }
  const std::string replay_dir = ro.work_dir + "/replay";
  StorageReplay sr = ReplayStorage(&counting, replay_dir, replay_stream, kMemtable);
  // The analyzer replay: the warmup decision a controller would make on the
  // first series (no listed workload runs the controller itself).
  AnalyzerReplay ar = ReplayAnalyzer(&counting, replay_dir, inputs[0].stream,
                                     ControllerOptions(), kMemtable);
  Tracer::Get().SetEnabled(false);
  for (const std::string* err : {&sr.error, &ar.error}) {
    if (!err->empty()) report.fatal = "replay: " + *err;
  }

  // The ledger: every layer's self time beside the metric it belongs to.
  Report e2e;
  e2e.attempted = untraced.attempted;
  e2e.failed = untraced.failed;
  EndToEnd({untraced}, &e2e);
  std::printf("\nend-to-end (untraced pass):\n");
  for (const Metric& m : e2e.metrics) {
    std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\nspan ledger (%llu spans, %llu dropped):\n",
              static_cast<unsigned long long>(Tracer::Get().span_count()),
              static_cast<unsigned long long>(Tracer::Get().dropped()));
  std::printf("  %-28s %10s %12s %12s  %s\n", "layer", "count", "total_ms",
              "self_ms", "belongs to");
  for (const auto& [name, totals] : Tracer::Get().Ledger()) {
    std::printf("  %-28s %10llu %12.3f %12.3f  %s\n", name.c_str(),
                static_cast<unsigned long long>(totals.count),
                totals.total_ns / 1e6, totals.self_ns / 1e6, SpanOwner(name));
  }
  if (!ro.trace_file.empty() && Tracer::Get().WriteCsv(ro.trace_file)) {
    std::printf("  spans written to %s\n", ro.trace_file.c_str());
  }

  std::map<std::string, double> e2e_values;
  for (const Metric& m : e2e.metrics) e2e_values[m.name] = m.value;
  std::printf("\nper-layer metrics -> end-to-end metric they should move:\n");
  const std::vector<LayerRow> rows =
      PerLayer(untraced, traced, sr, ar, query_workload, &report);
  for (const LayerRow& row : rows) {
    if (std::string(row.moves) == "(tail)") e2e_values[row.name] = row.value;
  }
  for (const LayerRow& row : rows) {
    std::string beside;
    std::string moves = row.moves;
    size_t from = 0;
    while (from < moves.size()) {
      size_t to = moves.find(' ', from);
      if (to == std::string::npos) to = moves.size();
      const std::string metric = moves.substr(from, to - from);
      auto it = e2e_values.find(metric);
      char buf[96];
      if (it != e2e_values.end()) {
        std::snprintf(buf, sizeof(buf), "%s=%.4g ", metric.c_str(), it->second);
      } else {
        std::snprintf(buf, sizeof(buf), "%s ", metric.c_str());
      }
      beside += buf;
      from = to + 1;
    }
    std::printf("  %-40s %14.4f %-8s -> %s\n", row.name, row.value, row.unit,
                beside.c_str());
    report.metrics.push_back({row.name, row.value, row.unit});
  }
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "ingest_fleet", "query_under_ingest"};
  return names;
}

Report RunWorkload(const RunOptions& ro) {
  if (ro.trace) return RunTraced(ro);
  Report report;
  std::vector<Pass> passes;
  // Pass 0 warms the allocator and the file system up (the first pass after
  // a directory is created runs up to 2x slower): its answers are checked,
  // its figures are not used. Then passes repeat, each on a fresh database
  // with its own inputs, until --seconds is used up, and at least
  // kMinPasses times so that setup_s is a median of several set-ups.
  int64_t start = 0;
  for (size_t index = 0; index <= kMinPasses ||
                         Seconds(NowNs() - start) < ro.seconds;
       ++index) {
    if (index == 1) start = NowNs();
    Pass p = RunPass(ro, MakeDevice().get(), nullptr, index,
                     PassSeed(ro.seed, index));
    const auto& k = p.kinds;
    std::printf("pass %zu%s: setup %.3f s, %llu points in %.3f s, wa %.4f, "
                "append p50/p99/max %.1f/%.1f/%.1f us, recent/hist/agg p50 "
                "%.1f/%.1f/%.1f us; samples: %zu appends, %zu/%zu/%zu "
                "queries; %llu of %llu calls failed\n",
                index, index == 0 ? " (warm-up)" : "", p.setup_s,
                static_cast<unsigned long long>(p.points), p.ingest_s, p.wa,
                Percentile(p.append_us, 50), Percentile(p.append_us, 99),
                p.append_max_ms * 1e3, Percentile(k[kRecent].latency_us, 50),
                Percentile(k[kHist].latency_us, 50),
                Percentile(k[kAgg].latency_us, 50), p.append_us.size(),
                k[kRecent].latency_us.size(), k[kHist].latency_us.size(),
                k[kAgg].latency_us.size(),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.attempted));
    if (!Absorb(p, &report)) return report;
    report.attempted += p.attempted;
    report.failed += p.failed;
    if (index > 0) passes.push_back(std::move(p));
  }
  EndToEnd(passes, &report);
  return report;
}

}  // namespace e2ebench
