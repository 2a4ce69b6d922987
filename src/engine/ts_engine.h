#ifndef SEPLSM_ENGINE_TS_ENGINE_H_
#define SEPLSM_ENGINE_TS_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/point.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/aggregation.h"
#include "engine/job_scheduler.h"
#include "engine/metrics.h"
#include "engine/options.h"
#include "storage/block_cache.h"
#include "storage/memtable.h"
#include "storage/table_cache.h"
#include "storage/version.h"
#include "storage/wal.h"
#include "storage/wal_committer.h"
#include "telemetry/stats_dump.h"
#include "telemetry/telemetry.h"

namespace seplsm::engine {

/// One-shot health snapshot for /healthz and `seplsm_cli doctor`: the
/// sticky background error, WAL rotation state, group-commit registration,
/// and write-path backlog. `ok` folds the hard failures; the rest is
/// context for diagnosing them.
struct EngineHealth {
  bool ok = true;
  /// Sticky background error (empty when none). Any flush/compaction
  /// failure poisons the engine permanently, so this is the primary signal.
  std::string background_error;
  bool wal_enabled = false;
  /// A live appendable WAL writer exists. False with wal_enabled set means
  /// a rotation failed and left durability dark — a hard failure.
  bool wal_open = false;
  uint64_t wal_tail_truncations = 0;
  /// Group-commit committer this engine is registered with (false also
  /// when group commit is simply off).
  bool committer_registered = false;
  uint64_t committer_commits = 0;
  uint64_t committer_syncs = 0;
  uint64_t pending_flushes = 0;
  uint64_t level0_files = 0;
  uint64_t writer_stalls = 0;

  std::string ToJson() const;
};

/// A leveled LSM-tree engine for time-series points keyed by generation
/// time, supporting the paper's two write policies:
///
/// - **π_c (conventional)**: one MemTable `C0`; when full it is merged with
///   every run SSTable whose key range overlaps, and the merged output is
///   re-cut into `sstable_points`-sized files.
/// - **π_s (separation)**: `C_seq` buffers in-order points (generation time
///   above everything persisted) and is flushed — appended above the run —
///   when full; `C_nonseq` buffers out-of-order points and triggers a real
///   merge when full.
///
/// Level 1 is always a single sorted run of non-overlapping SSTables. Both
/// policies share one write pipeline: a full MemTable is frozen (O(1),
/// copy-on-write) into a pending list tagged with its source, then an
/// install step and a compaction step (`CompactLevel`) move it into the
/// tree. Two executors run that pipeline:
///
/// - **synchronous** (default): the appending thread runs it inline —
///   C_seq batches flush above the run, C0/C_nonseq batches merge into it,
///   then the cascade pushes over-full levels down — so WA experiments are
///   deterministic. Concurrent appenders take turns; the pipeline installs
///   batches in freeze order and releases the engine mutex during table
///   I/O.
/// - **background** (`Options::background_mode`): jobs on a
///   `JobScheduler`, shared across engines or a private single-worker
///   fallback, write each batch to an overlapping level-0 file and fold
///   level 0 into the run (the IoTDB variant of paper §V-C), so ingest
///   blocks on neither flush I/O nor compaction. Per-engine scheduler
///   tokens serialize this engine's jobs (one at a time, flush before
///   compaction) while engines sharing a scheduler run in parallel
///   (DESIGN.md §8).
///
/// Thread safety: all public methods are safe to call concurrently; the
/// write path is serialized internally. Reads are snapshot-isolated:
/// `Query`/`Aggregate`/`Downsample` capture a reference-counted
/// `VersionSnapshot` plus frozen MemTable views in O(files) under the
/// engine mutex, then perform all SSTable I/O, block-cache lookups, and
/// merging without it — a long historical query never stalls ingest, and
/// ingest/compaction never mutate what a running query sees. Compaction
/// retires SSTables through a deferred-delete list, so a file is unlinked
/// only after the last snapshot referencing it drops (DESIGN.md §7).
class TsEngine {
 public:
  /// Opens (and recovers) an engine in `options.dir`. Existing `*.sst`
  /// files are picked up: non-overlapping files form the run, the rest
  /// re-enter through level 0.
  static Result<std::unique_ptr<TsEngine>> Open(Options options);

  ~TsEngine();

  TsEngine(const TsEngine&) = delete;
  TsEngine& operator=(const TsEngine&) = delete;

  /// Ingests one point (upsert by generation time): AppendBatch(&point, 1).
  Status Append(const DataPoint& point) { return AppendBatch(&point, 1); }

  /// Ingests `count` points as ONE batch: one mutex acquisition, one
  /// backpressure check, one WAL record (one group-commit enqueue + wait
  /// when the committer is on), one telemetry span/histogram sample, one
  /// checkpoint check. Equivalent to `count` sequential Appends — same
  /// MemTable contents, same WAL bytes modulo record framing, same query
  /// results — at a fraction of the per-point overhead. Durability ack is
  /// batch-granular: an OK means every point of the batch is on the device;
  /// an error means the batch must be retried as a unit (recovery replays
  /// multi-point WAL records all-or-nothing).
  Status AppendBatch(const DataPoint* points, size_t count);

  /// Drains every MemTable to disk (flushing/merging per policy semantics)
  /// and, in background mode, waits for level 0 to fully fold into the run.
  Status FlushAll();

  /// FlushAll + truncate the write-ahead log (no-op truncation when WAL is
  /// disabled). Call before clean shutdown to make recovery instant.
  Status Checkpoint();

  /// Returns all points with generation_time in [lo, hi], sorted, newest
  /// version of each key. `stats` (optional) receives read-amplification
  /// counters for this query.
  Status Query(int64_t lo, int64_t hi, std::vector<DataPoint>* out,
               QueryStats* stats = nullptr);

  /// Aggregates (count/sum/min/max/first/last) over [lo, hi].
  Status Aggregate(int64_t lo, int64_t hi, Aggregates* out,
                   QueryStats* stats = nullptr);

  /// Downsampling: fixed `bucket_width` buckets aligned to `lo` over
  /// [lo, hi]; empty buckets are omitted (the dashboard "GROUP BY time"
  /// query).
  Status Downsample(int64_t lo, int64_t hi, int64_t bucket_width,
                    std::vector<TimeBucket>* out,
                    QueryStats* stats = nullptr);

  /// Largest generation time persisted on disk — LAST(R).t_g in the paper.
  /// INT64_MIN when the disk is empty.
  int64_t MaxPersistedGenerationTime();

  /// Largest generation time seen (disk or memory); INT64_MIN when empty.
  int64_t MaxSeenGenerationTime();

  /// Drains the MemTables under the old policy, then installs `config`
  /// (the analyzer's π_adaptive switch, paper Fig. 10).
  Status SwitchPolicy(const PolicyConfig& config);

  /// Copy of the cumulative counters.
  Metrics GetMetrics();

  /// Health snapshot (no I/O): sticky background error, WAL/committer
  /// state, backlog gauges. `ok` is false on a background error or a
  /// WAL-enabled engine without a live log writer.
  EngineHealth GetHealth();

  /// Per-level tree shape as JSON for /debug/lsm: layout, occupancy, time
  /// range, intra-level overlap fraction, compaction trigger and debt, and
  /// a capped file listing. Snapshot-consistent (one mutex hold).
  std::string DebugLsmJson(size_t max_files_per_level = 8);

  /// Blocks until level 0 is empty (no-op in synchronous mode).
  Status WaitForBackgroundIdle();

  /// Verifies the run invariant and (in tests) the policy invariants.
  Status CheckInvariants();

  const Options& options() const { return options_; }
  size_t RunFileCount();
  size_t Level0FileCount();
  /// Files currently in tree level `level` (0 <= level < NumLevels()).
  size_t LevelFileCount(size_t level);
  /// Depth of the tree after Open resolved Options::num_levels.
  size_t NumLevels() const { return options_.num_levels; }

  /// The decoded-block cache this engine reads through (possibly shared
  /// with other engines); null when disabled.
  storage::BlockCache* block_cache() const {
    return options_.block_cache.get();
  }

 private:
  explicit TsEngine(Options options);

  /// Everything a reader needs, captured under `mutex_`, read lock-free.
  struct ReadSnapshot {
    storage::VersionSnapshot files;
    /// Frozen MemTable contents in precedence order — pending flush
    /// batches oldest first, then the live MemTables (later views override
    /// earlier ones on equal keys, and all override disk).
    std::vector<storage::MemTable::View> mems;
  };

  Status Recover();

  // --- Write path (mutex_ held; `lock` owns mutex_ where passed) ---
  /// Batch core: one WAL record / one EnqueueBatch ticket for all `count`
  /// points, then the per-point MemTable inserts (each point classified
  /// seq/nonseq individually — a mid-batch flush can move the persisted
  /// horizon). Checkpoint and timeline checks run once per batch. With
  /// group commit, `ticket` (when non-null) receives the committer ticket;
  /// the caller must Wait on it AFTER releasing `mutex_` — waiting under the
  /// lock would cap every commit round at one batch. Null `ticket`
  /// (recovery replay) uses the direct WAL path.
  Status AppendBatchLocked(const DataPoint* points, size_t count,
                           std::unique_lock<std::mutex>& lock,
                           storage::GroupCommitter::Ticket* ticket);
  /// Shared backpressure wait for Append/AppendBatch (background mode):
  /// blocks while level 0 + pending flushes are at the cap, counting the
  /// stall once and attributing `points` to its span.
  void WaitForWriteRoomLocked(std::unique_lock<std::mutex>& lock,
                              uint64_t points, bool instrument);

  // --- The write pipeline (DESIGN.md §8) ---
  /// Which MemTable a frozen batch came from. The synchronous executor
  /// installs a C_seq batch as a flush above the run and a C0/C_nonseq
  /// batch as a merge into it (paper §III); background mode writes every
  /// batch to level 0.
  enum class BatchSource : uint8_t { kC0, kSeq, kNonseq };
  struct PendingBatch {
    storage::MemTable::View points;
    BatchSource source;
  };

  /// Freezes `mem` into `pending_flushes_` in O(1) (no-op when empty): the
  /// MemTable gets a fresh map and the frozen view stays in every read
  /// snapshot until it is installed. Schedules a flush job in background
  /// mode.
  void FreezeLocked(storage::MemTable* mem, BatchSource source);
  /// Freezes every MemTable of the current policy, C_nonseq before C_seq.
  void FreezeMemTablesLocked();
  /// Returns once every batch frozen before the call is installed. The
  /// synchronous executor runs the pipeline inline — install the front
  /// batch, then the compaction cascade, with `lock` released during table
  /// I/O — in whichever appending thread finds it idle, so batches install
  /// one at a time in freeze order (two batches can carry the same key;
  /// the newer must land last). In background mode it waits for the flush
  /// jobs.
  Status InstallFrozenLocked(std::unique_lock<std::mutex>& lock);
  /// Freezes every MemTable, then installs (or awaits) everything frozen:
  /// on return every point accepted before the call is in the tree.
  Status DrainMemTablesLocked(std::unique_lock<std::mutex>& lock);
  /// The install step for the front pending batch: one level-0 file in
  /// background mode; otherwise a flush above the run (C_seq, or any batch
  /// when level 1 is stacked) or a merge into level 1. The batch leaves the
  /// pending list only once installed, so readers never lose sight of it;
  /// on failure it stays at the front for a retry.
  Status InstallFrontBatchLocked(std::unique_lock<std::mutex>& lock);
  /// Writes `batch` as tables — one file for level 0, `sstable_points`-cut
  /// files for a deeper level — appends them to `level`, and accounts the
  /// flush. `lock` is released during the table writes.
  Status FlushBatchLocked(const storage::MemTable::View& batch, size_t level,
                          std::unique_lock<std::mutex>& lock);
  /// Merges a newest-first input — a frozen MemTable `batch` or a `file`
  /// from the level above (exactly one is non-null) — into the overlapping
  /// slice of sorted level `target`, streaming block-in/block-out with
  /// `lock` released, then installs the output, retires the slice, and
  /// accounts the merge (WA counters from file metadata, Definition 4
  /// subsequent points for MemTable merges, the MergeEvent). A file input
  /// honors Options::max_compaction_input_files: only its head is merged
  /// and the rest comes back as `residual` tables for the caller to put in
  /// the file's place.
  Status MergeIntoLevelLocked(size_t target,
                              const storage::MemTable::View& batch,
                              const storage::FilePtr& file,
                              telemetry::ScopedSpan* span,
                              std::unique_lock<std::mutex>& lock,
                              std::vector<storage::FileMetadata>* residual);
  /// The synchronous executor's compaction step (and recovery's): while
  /// any level 0..N-2 is at its trigger, CompactLevel it.
  Status CompactInlineLocked(std::unique_lock<std::mutex>& lock);

  /// Submit a flush/compaction job to the scheduler unless one is already
  /// outstanding for this engine (jobs re-submit themselves while work
  /// remains, one batch/file per job so engines sharing the pool
  /// interleave fairly). Compactions are tracked per level: at most one
  /// outstanding job per level per engine (the token still serializes
  /// their execution).
  void MaybeScheduleFlushLocked();
  void MaybeScheduleCompactionLocked();

  /// Job bodies, run on scheduler workers (never concurrently with each
  /// other: the token serializes them).
  void FlushJob(uint64_t queue_wait_micros);
  void CompactionJob(size_t level, uint64_t queue_wait_micros);

  /// File-count trigger for `level`: 1 for level 0 (every flush folds),
  /// the geometric level_base_files * ratio^(n-1) rule above it.
  size_t LevelTriggerLocked(size_t level) const;
  /// Whether `level` is at/over its trigger. The deepest level never is.
  bool LevelNeedsCompactionLocked(size_t level) const;
  bool AnyLevelNeedsCompactionLocked() const;
  /// Index of the file CompactLevel(level) should move into level+1,
  /// following Options::file_pick. Stacked levels always yield the front
  /// (oldest) file: their recency order makes any other pick unsound.
  size_t PickCompactionFileLocked(size_t level, size_t target);

  /// Folds one file of `level` into `level + 1`. Returns NotFound when the
  /// level is empty. With `level == 0` under the default two-level shape
  /// this is byte-for-byte the paper's fold-level-0-into-the-run job.
  /// `lock` (held on entry and exit) is released during table I/O: the
  /// compactor is the only mutator of levels >= 1 while it runs (the job
  /// token in background mode, the inline executor or recovery in sync
  /// mode), level-0 files are only appended behind the front, and readers
  /// keep the input files visible through their snapshots until the output
  /// is installed atomically. A capped merge (max_compaction_input_files)
  /// re-writes the file's unmerged tail back in its place.
  Status CompactLevel(size_t level, std::unique_lock<std::mutex>& lock);

  void MaybeRecordTimelineLocked(uint64_t appended = 1);

  /// Feeds the append histogram on every call and emits one sampled APPEND
  /// trace span per `append_span_sample_every` appends (unsampled, appends
  /// would evict every flush/compaction span from the bounded ring).
  /// `points` > 1 marks a batch: one histogram sample and at most one span
  /// for the whole call, with the span carrying the batch size.
  void RecordAppendLatency(int64_t start_nanos, uint64_t points = 1);
  /// Converts a scheduler-reported queue wait into a QUEUE_WAIT span +
  /// histogram sample, attributed to this engine's series.
  void RecordQueueWait(uint64_t queue_wait_micros);

  std::string WalPath() const;
  /// Crash-safe WAL retirement: quiesces the committer, closes the old
  /// writer (checked), writes `relog_points` (may be null/empty) into
  /// `wal.log.new`, syncs and closes it, renames it over `wal.log`, syncs
  /// the directory, and reopens the result as the live appendable writer.
  /// At no instant is there a moment where un-persisted data exists only in
  /// a destroyed log: a crash anywhere leaves either the old complete log
  /// or the new complete log. `mutex_` must be held throughout.
  Status RotateWalLocked(const std::vector<DataPoint>* relog_points);
  Status MaybeCheckpointWalLocked(std::unique_lock<std::mutex>& lock);
  /// Drains until nothing buffered remains at an instant where `lock` is
  /// continuously held through the caller's rotation. A plain drain is not
  /// enough before retiring the log: the pipeline releases `mutex_` during
  /// table I/O, so concurrent appends can slip in — and their WAL records
  /// live in the log about to be retired, so their points must be on disk
  /// first.
  Status DrainForWalRetireLocked(std::unique_lock<std::mutex>& lock);
  /// fsyncs the live WAL (via the committer's Barrier when group commit is
  /// on) and advances the durable high-water metrics.
  Status SyncWalLocked();

  /// Opens a reader for `file` — through the table cache when enabled,
  /// directly (with this engine's block-cache handle) otherwise. Shared
  /// ownership keeps the reader alive across an LRU eviction. Thread-safe
  /// without `mutex_`.
  Result<std::shared_ptr<storage::SSTableReader>> OpenTableReader(
      const storage::FileMetadata& file);

  /// Opens `file` (via OpenTableReader) as a block-streaming iterator over
  /// [options.lo, options.hi]: how queries and merges read every table.
  Result<std::unique_ptr<storage::PointIterator>> NewTableIterator(
      const storage::FileMetadata& file, const storage::ReadOptions& options);

  /// Registers this engine's /metrics, /stats, /healthz, /debug/lsm
  /// handlers on Options::http_exporter (no-op when unset). Called once at
  /// the end of Open; the destructor deregisters before teardown so no
  /// handler can observe a dying engine.
  void RegisterExporterEndpoints();
  void DeregisterExporterEndpoints();

  /// Writer-side metadata section config from Options (zone maps +
  /// summaries; disabled → byte-identical v1 output).
  format::TableMetadataConfig MetaConfig() const {
    format::TableMetadataConfig meta;
    meta.enabled = options_.table_metadata;
    meta.summary_window = options_.summary_window;
    return meta;
  }

  /// Point-read core shared by Query and the pushdown fallback paths:
  /// streams the snapshot's MemTable/level contents over [lo, hi] through
  /// one newest-wins MergingIterator, calling `visit` once per surviving
  /// point in time order, and accumulates read/pruning counters into
  /// *local (points_returned is the caller's). On error `visit` may
  /// already have seen a prefix of the answer.
  Status QuerySnapshot(const ReadSnapshot& snap, int64_t lo, int64_t hi,
                       QueryStats* local,
                       const std::function<void(const DataPoint&)>& visit);

  /// Per-query cache of run-file readers opened for summary lookups, so a
  /// walk over many windows opens each file at most once.
  using SummaryReaderCache =
      std::map<uint64_t, std::shared_ptr<storage::SSTableReader>>;

  /// Whether the aligned summary window [ws, we] can be answered purely
  /// from run-file summaries: no level-0 file and no buffered point
  /// intersects it, and every overlapping run file carries summaries of
  /// exactly Options::summary_window width.
  Result<bool> WindowServableBySummaries(const ReadSnapshot& snap, int64_t ws,
                                         int64_t we,
                                         SummaryReaderCache* readers,
                                         QueryStats* local);

  /// Folds every run-file summary for the window [ws, we] into *agg (files
  /// are time-disjoint and walked in run order, so the merge is ordered).
  void MergeWindowSummaries(const ReadSnapshot& snap, int64_t ws, int64_t we,
                            SummaryReaderCache* readers, Aggregates* agg,
                            QueryStats* local);

  /// Summary-accelerated aggregation over [lo, hi] on a captured snapshot:
  /// interior aligned windows that are clean come from summaries
  /// (summary_hits), everything else — edges, level-0/MemTable overlaps,
  /// unsummarized files — from coalesced point reads. Exactly equivalent to
  /// folding Query's output.
  Status AggregateSnapshot(const ReadSnapshot& snap, int64_t lo, int64_t hi,
                           Aggregates* out, QueryStats* local);

  /// The frame Query/Aggregate/Downsample share: a query span, a snapshot
  /// captured under `mutex_`, then `body` run on it lock-free (it sets
  /// points_returned). On success the stats go to metrics_ and *stats, and
  /// dropping the snapshot sweeps the retired tables it held last.
  Status ReadOnSnapshot(
      QueryStats* stats,
      const std::function<Status(const ReadSnapshot&, QueryStats*)>& body);

  /// Hands a file that just left the live version to the deferred-delete
  /// list (unlinked once the last snapshot referencing it drops).
  void ScheduleTableDeleteLocked(storage::FilePtr file);

  /// The deferred deleter's delete_fn: evicts table/block-cache entries and
  /// unlinks the file. Runs without `mutex_` held.
  Status RemoveTableFromDisk(const storage::FileMetadata& file);

  /// Physically deletes every retired file no snapshot references anymore.
  /// Must be called WITHOUT `mutex_` held.
  void CollectDeferredDeletes();

  int64_t MaxPersistedLocked() const;

  Options options_;

  std::mutex mutex_;
  std::condition_variable background_cv_;
  std::condition_variable writer_cv_;

  storage::Version version_;
  std::unique_ptr<storage::MemTable> c0_;      // π_c
  std::unique_ptr<storage::MemTable> cseq_;    // π_s
  std::unique_ptr<storage::MemTable> cnonseq_; // π_s
  int64_t max_seen_tg_;

  uint64_t next_file_number_ = 1;
  Metrics metrics_;
  /// Cached from options_.telemetry (null = instrumentation off); the
  /// shared_ptr in options_ keeps it alive.
  telemetry::Telemetry* telemetry_ = nullptr;
  /// Span label id from Telemetry::RegisterSeries(series_name | dir).
  uint32_t telemetry_series_id_ = 0;
  /// Append counter driving APPEND span sampling (atomic: Append holds
  /// mutex_, but keeping it independent makes the sampler reusable).
  std::atomic<uint64_t> append_tick_{0};
  /// Periodic Metrics::ToString() logger (Options::stats_dump_interval_ms).
  telemetry::StatsDumper stats_dumper_;
  uint64_t timeline_batch_accum_ = 0;
  std::unique_ptr<storage::WalWriter> wal_;
  /// Set during the recovery re-insert loop: replayed points are already in
  /// the freshly rotated log, so AppendBatchLocked must not re-log them, and
  /// MaybeCheckpointWalLocked must not retire the log out from under the
  /// not-yet-reinserted tail.
  bool wal_replaying_ = false;
  /// This engine's registration with Options::wal_committer (null when
  /// group commit is off). Re-pointed at the new writer on every rotation.
  storage::GroupCommitter::Handle* wal_handle_ = nullptr;
  std::unique_ptr<storage::TableCache> table_cache_;
  uint64_t block_cache_owner_id_ = 0;
  storage::DeferredFileDeleter deleter_;

  /// Frozen MemTable batches, oldest first, waiting for the install step.
  /// A batch stays here (and thus in every read snapshot) until its data is
  /// in the tree, so readers never lose sight of accepted data.
  std::vector<PendingBatch> pending_flushes_;
  uint64_t batches_frozen_ = 0;     ///< batches ever frozen
  uint64_t batches_installed_ = 0;  ///< of those, installed (FIFO prefix)
  /// Synchronous mode: an appending thread is running the inline pipeline
  /// (with mutex_ released during its table I/O); others wait their turn.
  bool pipeline_busy_ = false;
  bool flush_job_scheduled_ = false;   ///< a flush job is queued or running
  /// Per-level "a compaction job is queued/running" flags (index = source
  /// level); at most one outstanding job per level per engine.
  std::vector<uint8_t> compaction_scheduled_;
  /// Per-level round-robin pick cursors (CompactionFilePick::kRoundRobin).
  std::vector<size_t> rr_cursor_;
  std::shared_ptr<JobScheduler::Token> job_token_;
  /// Cooperative cancellation for the unlocked I/O inside a compaction:
  /// set once at shutdown, checked between table reads.
  std::atomic<bool> cancel_bg_{false};

  bool shutting_down_ = false;
  bool background_error_set_ = false;
  Status background_error_;

  /// Paths this engine registered on Options::http_exporter (empty when no
  /// exporter); deregistered first thing in the destructor.
  std::vector<std::string> exporter_paths_;
};

}  // namespace seplsm::engine

#endif  // SEPLSM_ENGINE_TS_ENGINE_H_
