#ifndef SEPLSM_ENGINE_OPTIONS_H_
#define SEPLSM_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "env/env.h"
#include "format/value_codec.h"

namespace seplsm::storage {
class BlockCache;
class GroupCommitter;
enum class LevelLayout : uint8_t;
}  // namespace seplsm::storage

namespace seplsm::telemetry {
class Telemetry;
}  // namespace seplsm::telemetry

namespace seplsm::obs {
class HttpExporter;
}  // namespace seplsm::obs

namespace seplsm::engine {

class JobScheduler;

/// Which MemTable policy the engine runs (paper §I).
enum class PolicyKind {
  kConventional,  ///< π_c: a single MemTable C0 of capacity n
  kSeparation,    ///< π_s: C_seq (in-order) + C_nonseq (out-of-order)
};

/// MemTable policy and capacity split. The paper's memory budget `n` is
/// `memtable_capacity` points; under π_s it is divided into
/// `nseq_capacity` (C_seq) and the remainder (C_nonseq).
struct PolicyConfig {
  PolicyKind kind = PolicyKind::kConventional;
  size_t memtable_capacity = 512;  ///< n, in points
  size_t nseq_capacity = 256;      ///< n_seq; only used by π_s

  size_t nonseq_capacity() const { return memtable_capacity - nseq_capacity; }

  static PolicyConfig Conventional(size_t n) {
    return {PolicyKind::kConventional, n, 0};
  }
  static PolicyConfig Separation(size_t n, size_t nseq) {
    return {PolicyKind::kSeparation, n, nseq};
  }

  std::string ToString() const;
};

/// Which file a compaction job picks from a sorted source level (the
/// compaction design space's "granularity + data movement" policy knob).
/// Stacked (tiering) source levels always pick the oldest file — their
/// recency ordering makes any other pick unsound.
enum class CompactionFilePick {
  kOldest,       ///< front of the level (FIFO; matches flush order)
  kMostOverlap,  ///< file with the most overlapping bytes in the next level
  kRoundRobin,   ///< cycle through the level by index (RocksDB-style cursor)
};

/// Engine configuration.
struct Options {
  /// File system to store SSTables in. Not owned.
  Env* env = Env::Default();
  /// Time source for latency accounting. Not owned.
  Clock* clock = SystemClock::Default();
  /// Directory for SSTables (created if missing).
  std::string dir;

  PolicyConfig policy;

  /// Target SSTable size in points (paper experiments: 512).
  size_t sstable_points = 512;
  /// Index granularity inside an SSTable.
  size_t points_per_block = 128;

  /// Keep up to this many SSTable readers open (LRU). 0 disables the cache
  /// and every access re-opens the file — the behaviour the HDD-latency
  /// experiments model, since the paper's testbed was not page-cache-hot.
  size_t table_cache_entries = 0;

  /// Byte budget for the sharded LRU cache of decoded SSTable blocks
  /// (storage/block_cache.h). 0 disables it and keeps the read path
  /// byte-for-byte unchanged: every query re-reads and re-decodes blocks
  /// from the device.
  size_t block_cache_bytes = 0;
  /// Shards (each its own mutex + LRU) in the block cache.
  size_t block_cache_shards = 16;
  /// Pre-built cache shared across engines (MultiSeriesDB gives all series
  /// one budget). When null and `block_cache_bytes > 0` the engine creates
  /// a private cache. Each engine draws a distinct owner id, so sharing
  /// never mixes up file numbers between directories.
  std::shared_ptr<storage::BlockCache> block_cache;

  /// Value-column codec for new SSTables (kGorilla shrinks smooth sensor
  /// series several-fold; WA in *points* is unchanged, WA in bytes drops).
  format::ValueEncoding value_encoding = format::ValueEncoding::kRaw;

  /// Write the v2 pruning-metadata section (per-block value zone maps +
  /// per-window summaries) into new SSTables. Off, the writer emits
  /// byte-identical v1 files; v1 files always stay readable either way.
  bool table_metadata = true;
  /// Summary window width in generation-time units (absolute alignment:
  /// windows start at multiples of this). 0 writes zone maps but no
  /// summaries. Downsampling pushes down only when the bucket grid aligns
  /// with this width, so pick a divisor of common dashboard bucket widths.
  int64_t summary_window = 64;
  /// Use pruning metadata on the read path: summary-served aggregation and
  /// zone-map block skipping. Off, queries behave exactly as before the
  /// metadata existed (the A/B switch the pruning bench measures); the
  /// metadata is still written per `table_metadata`.
  bool pruning = true;

  /// Depth of the tree. 2 (level 0 + one sorted run) reproduces the
  /// paper's shape bit-for-bit and is the effective default. 0 means
  /// "auto": TsEngine::Open resolves it from $SEPLSM_NUM_LEVELS (else 2)
  /// and $SEPLSM_LEVEL_LAYOUT — the hook the CI matrix leg uses to push
  /// every existing suite through a 4-level tree. Setting any explicit
  /// value >= 2 ignores the environment entirely (how accounting-sensitive
  /// tests pin themselves to the seed shape).
  size_t num_levels = 0;
  /// Per-level layout (leveling vs. tiering vs. hybrid). Empty: level 0
  /// stacked, every deeper level sorted — classic leveling. Entries beyond
  /// the vector default to sorted; level 0 is forced stacked.
  std::vector<storage::LevelLayout> level_layouts;
  /// Which file a job picks from a sorted source level.
  CompactionFilePick file_pick = CompactionFilePick::kOldest;
  /// File-count trigger for level n >= 1 is
  /// level_base_files * level_size_ratio^(n-1); level 0 folds every file
  /// and the deepest level never triggers. Together these bound a job's
  /// inputs to O(size_ratio) files.
  size_t level_base_files = 8;
  double level_size_ratio = 4.0;
  /// Cap on total input files (source + overlap) per compaction job; a
  /// burst of flushes can otherwise snowball one job into an unbounded
  /// stall. 0 = unlimited (seed behaviour). Values < 2 are clamped to 2 so
  /// every job still makes progress. Applies to file compactions only,
  /// never to in-memory merges.
  size_t max_compaction_input_files = 0;

  /// Which executor runs the write pipeline (a full MemTable is frozen,
  /// installed, then compacted). False (default): the appending thread runs
  /// it inline — C_seq flushes above the run, C0/C_nonseq merge into it —
  /// which makes WA experiments deterministic. True: jobs on
  /// `job_scheduler` write each frozen MemTable to an overlapping level-0
  /// file and fold level 0 into the run — the non-blocking variant of
  /// paper §V-C used for the throughput study.
  bool background_mode = false;
  /// Backpressure: Append blocks while level-0 files plus not-yet-flushed
  /// MemTable batches total this many.
  size_t max_level0_files = 64;

  /// Shared background scheduler for flush/compaction jobs (engine/
  /// job_scheduler.h). MultiSeriesDB sets one scheduler for every series
  /// engine, so S series share a bounded worker pool instead of running S
  /// background threads. When null and `background_mode` is set, the engine
  /// creates a private single-worker scheduler — the same concurrency the
  /// old per-engine background thread provided.
  std::shared_ptr<JobScheduler> job_scheduler;
  /// Worker count for the scheduler MultiSeriesDB (or the CLI --bg-threads
  /// flag) creates. 0 means std::thread::hardware_concurrency().
  size_t background_threads = 0;

  /// Observability hub (telemetry/telemetry.h): trace spans for
  /// flush/compaction/queue-wait/stall/query/policy-switch, latency
  /// histograms, and named counters. Shared like the block cache —
  /// MultiSeriesDB gives every series engine one instance and each engine
  /// registers `series_name` for span labeling. Null (default) disables all
  /// instrumentation at the cost of one branch per site.
  std::shared_ptr<telemetry::Telemetry> telemetry;
  /// Label for this engine's spans and Prometheus lines. Empty: `dir` is
  /// used.
  std::string series_name;
  /// When > 0 the engine logs Metrics::ToString() every this-many
  /// milliseconds on a timer thread (telemetry/stats_dump.h). MultiSeriesDB
  /// zeroes the per-engine interval and runs one aggregate dumper instead.
  uint64_t stats_dump_interval_ms = 0;

  /// Live observability plane (obs/http_exporter.h): a running exporter to
  /// register /metrics, /stats, /healthz, /debug/lsm handlers on. Shared
  /// like the cache/scheduler/telemetry hubs — MultiSeriesDB registers
  /// DB-wide aggregate endpoints and clears this for its child engines so
  /// per-series engines do not fight over paths. A standalone TsEngine with
  /// an exporter set registers its own endpoints in Open and deregisters
  /// them in Close. Null (default): no HTTP surface.
  std::shared_ptr<obs::HttpExporter> http_exporter;

  /// Write-ahead logging for MemTable durability (engine extension; see
  /// storage/wal.h). Buffered points are replayed on Open after a crash.
  bool enable_wal = false;
  /// fsync the log on every Append (safest, slowest). Off: the log is
  /// buffered and synced at flush boundaries.
  bool wal_sync_every_append = false;
  /// Route WAL appends through a GroupCommitter (storage/wal_committer.h):
  /// the same per-append durability as `wal_sync_every_append` — Append
  /// returns only after the point's record is fsynced — but concurrent
  /// appends across threads and series share one batched record + fsync.
  /// Takes precedence over `wal_sync_every_append` when both are set.
  bool wal_group_commit = false;
  /// Shared group committer, like the scheduler and telemetry hubs:
  /// MultiSeriesDB (or the caller) sets one committer for every series
  /// engine so their commit rounds coalesce. It owns no thread; the
  /// appending threads lead the rounds. When null and `wal_group_commit`
  /// is set, the engine creates a private one.
  std::shared_ptr<storage::GroupCommitter> wal_committer;
  /// When the log grows past this, the engine drains the MemTables and
  /// retires it (crash-safe rotation: new log beside the old, sync, rename,
  /// directory sync).
  uint64_t wal_checkpoint_bytes = 8ull << 20;

  /// Record one MergeEvent per compaction (measured subsequent points,
  /// Fig. 5). Cheap; on by default.
  bool record_merge_events = true;

  /// Record cumulative written-points after every `wa_timeline_batch`
  /// ingested points (WA-over-time series for Fig. 10/17).
  bool record_wa_timeline = false;
  size_t wa_timeline_batch = 512;
};

}  // namespace seplsm::engine

#endif  // SEPLSM_ENGINE_OPTIONS_H_
