#ifndef SEPLSM_ENGINE_MULTI_SERIES_DB_H_
#define SEPLSM_ENGINE_MULTI_SERIES_DB_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analyzer/adaptive_controller.h"
#include "common/point.h"
#include "common/result.h"
#include "engine/series_bloom.h"
#include "engine/ts_engine.h"
#include "telemetry/stats_dump.h"
#include "telemetry/telemetry.h"

namespace seplsm::engine {

/// A database of many independent time series (the paper's deployment
/// stores >2000 series per vehicle). Each series gets its own `TsEngine`
/// in a sub-directory of `Options::dir` and, optionally, its own
/// `AdaptiveController` so the separation decision is made per series —
/// delays differ per sensor, so one policy rarely fits all.
///
/// The ingest plane is lock-striped (DESIGN.md §13): the series registry
/// is split into a power-of-two number of shards sized from
/// `hardware_concurrency`, each with its own mutex and map, and a series
/// id hashes to exactly one shard. Concurrent appends to different series
/// land on different shards with high probability and never touch a
/// shared mutex — the old single registry mutex serialized every append's
/// map lookup across all writers. The lock-free `SeriesBloom` still sits
/// in front of the shards, so negative query probes skip the locks
/// entirely. Contended shard acquisitions are counted in the
/// `shard_lock_waits` metric.
///
/// Thread-safe; per-series operations run under the series engine's own
/// synchronization.
class MultiSeriesDB {
 public:
  struct MultiOptions {
    Options base;  ///< template for every series (dir = root directory)
    /// Attach an AdaptiveController per series (π_adaptive).
    bool adaptive = false;
    analyzer::AdaptiveController::Options adaptive_options;
    /// Probe a lock-free Bloom filter of series ids before the shard lock,
    /// so queries for absent series (decommissioned sensors, typos) skip
    /// the lock and the lookup entirely (counted as `blooms_negative`).
    bool series_bloom = true;
    /// Filter size in bits (~10 bits per expected series for a ~1% false-
    /// positive rate; default 64 Ki bits = 8 KiB).
    size_t series_bloom_bits = 1 << 16;
    /// Lock-stripe count for the series registry; rounded up to a power of
    /// two. 0 = auto: 4× hardware_concurrency (collision probability at W
    /// writers over 4W stripes stays low), capped at 256. Tests pin it to
    /// 1 to exercise the maximal-contention path.
    size_t ingest_shards = 0;
  };

  /// Opens the root directory and recovers every existing series. In
  /// background mode a shared `JobScheduler` (worker count =
  /// `base.background_threads`, 0 = hardware concurrency) is created
  /// unless the caller supplied one, so S series share one bounded pool
  /// instead of running S background threads.
  static Result<std::unique_ptr<MultiSeriesDB>> Open(MultiOptions options);

  /// Engines hold tokens into the shared scheduler, so they must be
  /// destroyed (draining their jobs) before it.
  ~MultiSeriesDB();

  /// Writes one point; creates the series on first use. Series ids may use
  /// any characters (escaped on disk).
  Status Append(const std::string& series, const DataPoint& point);

  /// Writes `count` points to one series as a single batch: one shard-lock
  /// hold (series lookup + one controller ObserveBatch), then one
  /// TsEngine::AppendBatch — one engine mutex acquisition, one WAL record,
  /// one group-commit ticket, one telemetry span for the whole batch.
  /// Durability ack is batch-granular (see TsEngine::AppendBatch).
  Status AppendBatch(const std::string& series, const DataPoint* points,
                     size_t count);

  /// Range query on one series.
  Status Query(const std::string& series, int64_t lo, int64_t hi,
               std::vector<DataPoint>* out, QueryStats* stats = nullptr);

  /// Drains every series: starts every series' flush first, then awaits
  /// each one without holding its shard lock. The caller must not close
  /// series concurrently.
  Status FlushAll();

  /// Closes one series: cancels/drains its background jobs, flushes its
  /// buffered data, and destroys its engine. Other series keep running —
  /// their jobs on the shared scheduler are untouched. The caller must not
  /// have concurrent operations in flight on the closed series. The series
  /// reopens (recovering from disk) on the next Append to its id.
  Status CloseSeries(const std::string& series);

  /// All series ids, sorted (shards are walked and the union re-sorted, so
  /// the order is independent of the stripe layout).
  std::vector<std::string> ListSeries();
  size_t series_count();

  /// Number of lock stripes in effect (fixed at Open).
  size_t shard_count() const { return shards_.size(); }

  /// Per-series metrics; NotFound for unknown series.
  Result<Metrics> GetSeriesMetrics(const std::string& series);

  /// Every per-series counter summed via Metrics::MergeFrom (merge-event /
  /// timeline vectors are concatenated in sorted series order), plus the
  /// DB-level counters (blooms_negative, shard_lock_waits).
  Metrics GetAggregateMetrics();

  /// The policy currently in effect for a series (useful with adaptive
  /// mode); NotFound for unknown series.
  Result<PolicyConfig> GetSeriesPolicy(const std::string& series);

  /// The block cache shared by every series engine; null when disabled.
  storage::BlockCache* block_cache() const {
    return options_.base.block_cache.get();
  }

  /// The background scheduler shared by every series engine; null when
  /// background mode is off.
  JobScheduler* job_scheduler() const {
    return options_.base.job_scheduler.get();
  }

  /// The telemetry hub shared by every series engine (each registers its
  /// series name, so spans/exports are labeled per series); null when
  /// observability is off.
  telemetry::Telemetry* telemetry() const {
    return options_.base.telemetry.get();
  }

  /// Database-wide health: the conjunction of every series engine's
  /// EngineHealth. `*ok` (when non-null) receives the verdict; the JSON
  /// lists the unhealthy series (capped) with their full health records.
  std::string HealthJson(bool* ok = nullptr);

  /// Per-series LSM shape (TsEngine::DebugLsmJson), capped at `max_series`
  /// series sorted by id — the `/debug/lsm` payload.
  std::string DebugLsmJson(size_t max_series = 16);

  /// Per-series adaptive-policy audit rings (AdaptiveController::AuditJson)
  /// — the `/debug/policy` payload. Series without a controller (adaptive
  /// off) are listed with their static policy only.
  std::string DebugPolicyJson(size_t max_series = 64);

 private:
  struct Series {
    std::unique_ptr<TsEngine> engine;
    /// Observe/ObserveBatch runs under the owning shard's mutex (the
    /// controller mutates DelayCollector/DriftDetector state): with
    /// lock striping, same-shard collisions are rare enough that the
    /// separate per-series observe mutex of the single-registry design
    /// (one extra lock round-trip per point) is no longer worth it.
    std::unique_ptr<analyzer::AdaptiveController> controller;
  };

  /// One lock stripe: its own mutex, its own slice of the series map.
  struct Shard {
    std::mutex mutex;
    std::map<std::string, Series> series;
  };

  explicit MultiSeriesDB(MultiOptions options)
      : options_(std::move(options)) {}

  Shard& ShardFor(const std::string& series);
  /// Locks the shard, counting the acquisition in shard_lock_waits_ when
  /// the mutex was held by someone else (try_lock probe first).
  std::unique_lock<std::mutex> LockShard(Shard& shard);
  Status OpenSeriesLocked(Shard& shard, const std::string& series,
                          Series** out);
  static std::string EscapeSeriesName(const std::string& series);
  static Result<std::string> UnescapeSeriesName(const std::string& escaped);
  /// Registers the database-wide endpoint set on the shared exporter (the
  /// per-series engines have their exporter pointer cleared, so the DB owns
  /// /metrics, /stats, /healthz, /debug/lsm and /debug/policy). No-op when
  /// no exporter was supplied.
  void RegisterExporterEndpoints();
  void DeregisterExporterEndpoints();

  MultiOptions options_;
  /// Fixed at Open (power of two); shards themselves are heap-allocated so
  /// the vector never moves a live mutex.
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;  ///< shards_.size() - 1
  /// Built at Open (recovered series) and extended on series creation;
  /// null when MultiOptions::series_bloom is off. Bits are never cleared —
  /// see SeriesBloom for why CloseSeries staleness is benign.
  std::unique_ptr<SeriesBloom> series_bloom_;
  /// Series probes the bloom answered "absent" (no lock, no map lookup);
  /// folded into GetAggregateMetrics().blooms_negative.
  std::atomic<uint64_t> blooms_negative_{0};
  /// Shard-lock acquisitions that found the stripe held (ingest-plane
  /// contention); folded into GetAggregateMetrics().shard_lock_waits.
  std::atomic<uint64_t> shard_lock_waits_{0};
  /// Microseconds those contended acquisitions spent blocked (stall
  /// attribution, DESIGN.md §15); folded into
  /// GetAggregateMetrics().stall_shard_lock_micros.
  std::atomic<uint64_t> shard_lock_wait_micros_{0};
  /// Paths this DB registered on the shared exporter (deregistered — with
  /// the in-flight-drain guarantee — before any shard is torn down).
  std::vector<std::string> exporter_paths_;
  /// One aggregate dump timer for the whole database (per-engine intervals
  /// are zeroed in Open so S series never spawn S timer threads).
  telemetry::StatsDumper stats_dumper_;
};

}  // namespace seplsm::engine

#endif  // SEPLSM_ENGINE_MULTI_SERIES_DB_H_
