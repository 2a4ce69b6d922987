#include "engine/ts_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "obs/http_exporter.h"
#include "storage/iterator.h"
#include "storage/query_explain.h"

namespace seplsm::engine {

namespace {

constexpr int64_t kNoData = std::numeric_limits<int64_t>::min();

/// Start of the summary window containing `t` (floor division, so negative
/// times land in the window that covers them, not the one above).
int64_t FloorWindowStart(int64_t t, int64_t window) {
  int64_t q = t / window;
  if ((t % window) != 0 && ((t < 0) != (window < 0))) --q;
  return q * window;
}

/// Pushdown walks give up past this many windows/buckets and fall back to a
/// single point read — guards W=1 over a sparse multi-era series.
constexpr int64_t kMaxPushdownWindows = 1 << 20;

/// Pass-through iterator that counts streamed points with generation time
/// strictly greater than a threshold — the paper's "subsequent" disk points
/// (Definition 4), tallied for merge events as the data flows by instead of
/// over a materialized copy. Counts every point the source yields, including
/// ones a downstream merge drops as duplicates (matching what the
/// materialized merge counted). Only meaningful if the stream is consumed to
/// the end.
class SubsequentCountingIterator final : public storage::PointIterator {
 public:
  SubsequentCountingIterator(std::unique_ptr<storage::PointIterator> base,
                             int64_t threshold, uint64_t* count)
      : base_(std::move(base)), threshold_(threshold), count_(count) {
    Account();
  }

  bool Valid() const override { return base_->Valid(); }
  void Next() override {
    base_->Next();
    Account();
  }
  const DataPoint& point() const override { return base_->point(); }
  Status status() const override { return base_->status(); }

 private:
  void Account() {
    if (base_->Valid() && base_->point().generation_time > threshold_) {
      ++*count_;
    }
  }

  std::unique_ptr<storage::PointIterator> base_;
  int64_t threshold_;
  uint64_t* count_;
};

bool ParseTableFileNumber(const std::string& name, uint64_t* number) {
  // TableFilePath zero-pads to 8 digits but numbers past 99'999'999 print
  // wider, so accept any digit width — an exact-8 check would make recovery
  // silently skip (and thus lose) those tables.
  constexpr size_t kSuffixLen = 4;  // ".sst"
  if (name.size() <= kSuffixLen ||
      name.compare(name.size() - kSuffixLen, kSuffixLen, ".sst") != 0) {
    return false;
  }
  uint64_t n = 0;
  for (size_t i = 0; i < name.size() - kSuffixLen; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (n > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      return false;  // would overflow uint64_t
    }
    n = n * 10 + digit;
  }
  *number = n;
  return true;
}

/// Minimal JSON string escaping for health/debug payloads (quote,
/// backslash, control characters).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<TsEngine>> TsEngine::Open(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("Options::dir must be set");
  }
  if (options.policy.memtable_capacity == 0) {
    return Status::InvalidArgument("memtable_capacity must be positive");
  }
  if (options.policy.kind == PolicyKind::kSeparation &&
      (options.policy.nseq_capacity == 0 ||
       options.policy.nseq_capacity >= options.policy.memtable_capacity)) {
    return Status::InvalidArgument(
        "separation policy requires 0 < nseq_capacity < memtable_capacity");
  }
  if (options.sstable_points == 0 || options.points_per_block == 0) {
    return Status::InvalidArgument("sstable_points/points_per_block");
  }
  if (options.num_levels == 0) {
    // Auto shape: default two levels, overridable through the environment
    // so whole test/CI suites can run against a deeper tree without code
    // changes. An explicitly configured engine ignores the environment.
    options.num_levels = 2;
    if (const char* env_levels = std::getenv("SEPLSM_NUM_LEVELS")) {
      char* parse_end = nullptr;
      unsigned long v = std::strtoul(env_levels, &parse_end, 10);
      if (parse_end != env_levels && *parse_end == '\0' && v >= 2 && v <= 64) {
        options.num_levels = static_cast<size_t>(v);
      }
    }
    if (options.level_layouts.empty()) {
      if (const char* env_layout = std::getenv("SEPLSM_LEVEL_LAYOUT")) {
        const std::string layout(env_layout);
        if (layout == "tiering") {
          options.level_layouts.assign(options.num_levels,
                                       storage::LevelLayout::kStacked);
        } else if (layout == "hybrid") {
          // Stacked everywhere except the deepest level, which stays a
          // sorted run so old data remains merge-compacted and summarized.
          options.level_layouts.assign(options.num_levels,
                                       storage::LevelLayout::kStacked);
          options.level_layouts.back() = storage::LevelLayout::kSorted;
        }
      }
    }
  } else if (options.num_levels < 2) {
    return Status::InvalidArgument("num_levels must be >= 2 (0 = auto)");
  }
  if (!options.level_layouts.empty() &&
      options.level_layouts.size() != options.num_levels) {
    return Status::InvalidArgument(
        "level_layouts must be empty or have num_levels entries");
  }
  SEPLSM_RETURN_IF_ERROR(options.env->CreateDirIfMissing(options.dir));
  std::unique_ptr<TsEngine> engine(new TsEngine(std::move(options)));
  SEPLSM_RETURN_IF_ERROR(engine->Recover());
  engine->CollectDeferredDeletes();  // files retired by recovery compaction
  if (engine->options_.background_mode) {
    // Recovery may have left level-0 files; start folding them now.
    std::lock_guard<std::mutex> lock(engine->mutex_);
    engine->MaybeScheduleCompactionLocked();
  }
  if (engine->options_.stats_dump_interval_ms > 0) {
    // Started only after recovery, so a dump never observes a half-built
    // engine. The raw pointer is safe: the dumper is a member, stopped in
    // the destructor before any engine state is torn down.
    TsEngine* raw = engine.get();
    engine->stats_dumper_.Start(engine->options_.stats_dump_interval_ms,
                                [raw] {
                                  SEPLSM_LOG(Info)
                                      << "stats dump [" << raw->options_.dir
                                      << "]: " << raw->GetMetrics().ToString();
                                });
  }
  engine->RegisterExporterEndpoints();
  return engine;
}

TsEngine::TsEngine(Options options)
    : options_(std::move(options)), max_seen_tg_(kNoData),
      deleter_([this](const storage::FileMetadata& file) {
        return RemoveTableFromDisk(file);
      }) {
  version_ = storage::Version(options_.num_levels, options_.level_layouts);
  compaction_scheduled_.assign(options_.num_levels, 0);
  rr_cursor_.assign(options_.num_levels, 0);
  metrics_.level_stats.resize(options_.num_levels);
  if (options_.block_cache == nullptr && options_.block_cache_bytes > 0) {
    options_.block_cache = std::make_shared<storage::BlockCache>(
        options_.block_cache_bytes, options_.block_cache_shards);
  }
  if (options_.block_cache != nullptr) {
    block_cache_owner_id_ = options_.block_cache->NewOwnerId();
  }
  if (options_.table_cache_entries > 0) {
    table_cache_ = std::make_unique<storage::TableCache>(
        options_.env, options_.table_cache_entries,
        options_.block_cache.get(), block_cache_owner_id_);
  }
  const PolicyConfig& p = options_.policy;
  if (p.kind == PolicyKind::kConventional) {
    c0_ = std::make_unique<storage::MemTable>(p.memtable_capacity);
  } else {
    cseq_ = std::make_unique<storage::MemTable>(p.nseq_capacity);
    cnonseq_ = std::make_unique<storage::MemTable>(p.nonseq_capacity());
  }
  if (options_.background_mode) {
    if (options_.job_scheduler == nullptr) {
      // Standalone engine: private single-worker scheduler, the same
      // concurrency the old dedicated background thread provided.
      options_.job_scheduler = std::make_shared<JobScheduler>(1);
    }
    job_token_ = options_.job_scheduler->RegisterToken();
  }
  if (options_.enable_wal && options_.wal_group_commit &&
      options_.wal_committer == nullptr) {
    // Standalone engine: private commit thread (MultiSeriesDB shares one
    // committer across every series engine so their fsyncs coalesce).
    options_.wal_committer = std::make_shared<storage::GroupCommitter>();
  }
  if (telemetry::Active(options_.telemetry.get())) {
    telemetry_ = options_.telemetry.get();
    telemetry_series_id_ = telemetry_->RegisterSeries(
        options_.series_name.empty() ? options_.dir : options_.series_name);
    // Idempotent when the cache/scheduler are shared: every engine attaches
    // the same registry, and GetCounter is stable per name.
    if (options_.block_cache != nullptr) {
      options_.block_cache->AttachTelemetry(options_.telemetry);
    }
    if (options_.job_scheduler != nullptr) {
      options_.job_scheduler->AttachTelemetry(options_.telemetry);
    }
    if (options_.wal_committer != nullptr) {
      options_.wal_committer->AttachTelemetry(options_.telemetry);
    }
  }
}

TsEngine::~TsEngine() {
  // HTTP handlers read engine state; Deregister blocks until in-flight
  // requests drain, so after this no handler can observe teardown.
  DeregisterExporterEndpoints();
  // The dump callback reads engine state; stop it before teardown begins.
  stats_dumper_.Stop();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  // Cooperative cancellation: a compaction mid-I/O aborts at its next
  // check instead of merging to completion.
  cancel_bg_.store(true, std::memory_order_relaxed);
  background_cv_.notify_all();
  writer_cv_.notify_all();
  if (job_token_ != nullptr) {
    // Drop this engine's queued jobs and wait out the running one; after
    // this no scheduler worker can touch engine state.
    options_.job_scheduler->DrainToken(job_token_);
  }
  // Batches accepted by Append but not yet installed would be lost with the
  // engine; install them (level-0 files in background mode) so a clean
  // close + reopen reads them back (best effort — failures leave the WAL,
  // when enabled, to replay).
  {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!pending_flushes_.empty() && InstallFrontBatchLocked(lock).ok()) {
    }
  }
  if (wal_handle_ != nullptr) {
    // Deregister waits out queued and in-flight commits for this handle;
    // after it no commit round can touch wal_.
    options_.wal_committer->Deregister(wal_handle_);
    wal_handle_ = nullptr;
  }
  if (wal_ != nullptr) {
    // A buffered write can defer its error to close time; losing that
    // error silently would report durability the log does not have. The
    // file itself stays behind either way, so recovery replays it.
    Status st = wal_->Close();
    if (!st.ok()) {
      SEPLSM_LOG(Error) << "wal close failed (log retained for recovery): "
                        << st.ToString();
    }
  }
  // No reader can outlive the engine, so every retired file is
  // collectible now (best effort — failures leave orphans for recovery).
  metrics_.files_deleted += deleter_.CollectGarbage();
}

Status TsEngine::Recover() {
  std::vector<std::string> children;
  SEPLSM_RETURN_IF_ERROR(options_.env->ListDir(options_.dir, &children));
  std::vector<storage::FileMetadata> found;
  for (const auto& name : children) {
    uint64_t number;
    if (!ParseTableFileNumber(name, &number)) continue;
    std::string path = storage::TableFilePath(options_.dir, number);
    auto reader = storage::SSTableReader::Open(options_.env, path);
    if (!reader.ok()) return reader.status();
    storage::FileMetadata meta;
    meta.file_number = number;
    meta.path = path;
    meta.point_count = (*reader)->point_count();
    meta.min_generation_time = (*reader)->min_generation_time();
    meta.max_generation_time = (*reader)->max_generation_time();
    SEPLSM_RETURN_IF_ERROR(
        options_.env->GetFileSize(path, &meta.file_bytes));
    next_file_number_ = std::max(next_file_number_, number + 1);
    found.push_back(std::move(meta));
  }
  std::sort(found.begin(), found.end(),
            [](const storage::FileMetadata& a,
               const storage::FileMetadata& b) {
              if (a.min_generation_time != b.min_generation_time) {
                return a.min_generation_time < b.min_generation_time;
              }
              return a.file_number < b.file_number;
            });
  std::unique_lock<std::mutex> lock(mutex_);
  int64_t run_max = kNoData;
  for (auto& meta : found) {
    if (run_max == kNoData || meta.min_generation_time > run_max) {
      run_max = meta.max_generation_time;
      SEPLSM_RETURN_IF_ERROR(version_.AppendToRun(std::move(meta)));
    } else {
      version_.AddLevel0(std::move(meta));
    }
  }
  max_seen_tg_ = MaxPersistedLocked();
  if (!options_.background_mode) {
    // Fold straggler files into level 1 eagerly and let the cascade
    // redistribute them (single-threaded here, so the lock dance inside
    // CompactLevel is harmless). Recovery flattens the tree into levels 0/1
    // first because on-disk files carry no level tag.
    SEPLSM_RETURN_IF_ERROR(CompactInlineLocked(lock));
  }
  if (options_.enable_wal) {
    // Replay buffered points lost with the last process. Replay is
    // idempotent: generation time keys the upsert.
    bool tail_truncated = false;
    auto replayed =
        storage::ReadWal(options_.env, WalPath(), &tail_truncated);
    if (!replayed.ok()) return replayed.status();
    if (tail_truncated) {
      ++metrics_.wal_tail_truncations;
      SEPLSM_LOG(Warn) << "wal replay [" << options_.dir
                       << "]: dropped torn/corrupt tail after "
                       << replayed->size() << " points";
    }
    // Rotation writes the replayed points into the NEW log and fsyncs it
    // before the rename retires the old one, so a crash at any instant of
    // recovery leaves the points in at least one complete log. (The old
    // sequence — truncate, then re-log — had a window where they were in
    // neither.)
    SEPLSM_RETURN_IF_ERROR(RotateWalLocked(&*replayed));
    // Re-insert into the MemTables, one point at a time as they were
    // appended. The points are already in the rotated log, so
    // AppendBatchLocked must not re-log them — and must not checkpoint
    // mid-loop, which would retire the log out from under the
    // not-yet-reinserted tail.
    wal_replaying_ = true;
    Status replay_st;
    for (const auto& p : *replayed) {
      replay_st = AppendBatchLocked(&p, 1, lock, nullptr);
      if (!replay_st.ok()) break;
    }
    wal_replaying_ = false;
    SEPLSM_RETURN_IF_ERROR(replay_st);
  }
  return Status::OK();
}

std::string TsEngine::WalPath() const { return options_.dir + "/wal.log"; }

Status TsEngine::RotateWalLocked(const std::vector<DataPoint>* relog_points) {
  // Quiesce the committer first: with mutex_ held by our caller (so nothing
  // new is enqueued) and the barrier passed, no commit round can touch the
  // writer we are about to close.
  if (wal_handle_ != nullptr) {
    options_.wal_committer->Barrier(wal_handle_);
  }
  if (wal_ != nullptr) {
    Status close = wal_->Close();
    wal_.reset();
    if (!close.ok()) {
      // A deferred write error means the old log may be incomplete;
      // retiring it anyway would drop whatever the error swallowed.
      SEPLSM_LOG(Error) << "wal rotation aborted, old log retained: "
                        << close.ToString();
      return close;
    }
  }
  // Never truncate in place: build the replacement beside the old log,
  // make it durable, then atomically rename it over. A crash at any step
  // leaves either the complete old log or the complete new one.
  const std::string path = WalPath();
  const std::string tmp = path + ".new";
  auto writer = storage::WalWriter::Open(options_.env, tmp);
  if (!writer.ok()) return writer.status();
  Status st;
  if (relog_points != nullptr && !relog_points->empty()) {
    st = (*writer)->AppendBatch(*relog_points);
  }
  if (st.ok()) st = (*writer)->Sync();
  Status close = (*writer)->Close();
  if (st.ok()) st = close;
  // On failure the stray `tmp` is harmless: recovery ignores it and the
  // next rotation overwrites it.
  SEPLSM_RETURN_IF_ERROR(st);
  SEPLSM_RETURN_IF_ERROR(options_.env->RenameFile(tmp, path));
  // Make the rename durable. This directory fsync also covers every
  // SSTable created here since the last one, so checkpointed tables'
  // directory entries are durable before the old log becomes unreachable.
  SEPLSM_RETURN_IF_ERROR(options_.env->SyncDir(options_.dir));
  auto reopened = storage::WalWriter::OpenAppend(options_.env, path);
  if (!reopened.ok()) return reopened.status();
  wal_ = std::move(reopened).value();
  metrics_.wal_bytes = wal_->bytes_written();
  metrics_.wal_durable_bytes = wal_->bytes_written();
  if (options_.wal_group_commit && options_.wal_committer != nullptr) {
    if (wal_handle_ == nullptr) {
      wal_handle_ = options_.wal_committer->Register(wal_.get());
    } else {
      options_.wal_committer->SetWriter(wal_handle_, wal_.get());
    }
  }
  return Status::OK();
}

Status TsEngine::DrainForWalRetireLocked(std::unique_lock<std::mutex>& lock) {
  while (true) {
    SEPLSM_RETURN_IF_ERROR(DrainMemTablesLocked(lock));
    const bool mems_empty =
        options_.policy.kind == PolicyKind::kConventional
            ? c0_->empty()
            : (cseq_->empty() && cnonseq_->empty());
    if (mems_empty && pending_flushes_.empty()) {
      // Nothing buffered, and the lock is held from this check until the
      // caller's rotation: every WAL record's point is on disk.
      return Status::OK();
    }
  }
}

Status TsEngine::MaybeCheckpointWalLocked(std::unique_lock<std::mutex>& lock) {
  if (wal_ == nullptr || wal_replaying_ ||
      wal_->bytes_written() < options_.wal_checkpoint_bytes) {
    return Status::OK();
  }
  SEPLSM_RETURN_IF_ERROR(DrainForWalRetireLocked(lock));
  SEPLSM_RETURN_IF_ERROR(RotateWalLocked(nullptr));
  ++metrics_.wal_checkpoints;
  return Status::OK();
}

int64_t TsEngine::MaxPersistedLocked() const {
  return version_.empty() ? kNoData : version_.MaxPersistedGenerationTime();
}

void TsEngine::WaitForWriteRoomLocked(std::unique_lock<std::mutex>& lock,
                                      uint64_t points, bool instrument) {
  // Backpressure counts level-0 files plus frozen batches a flush job
  // has not yet written, so async flushing cannot grow memory
  // unboundedly. The predicate must include the background error: if a
  // job dies while the count is at the cap, nothing will ever shrink
  // it, and a writer waiting only on the count would block forever.
  auto have_room = [this] {
    return version_.level0().size() + pending_flushes_.size() <
               options_.max_level0_files ||
           shutting_down_ || background_error_set_;
  };
  if (!have_room()) {
    ++metrics_.writer_stalls;
    const int64_t stall_start = options_.clock->NowNanos();
    writer_cv_.wait(lock, have_room);
    const int64_t stall_end = options_.clock->NowNanos();
    metrics_.writer_stall_micros +=
        static_cast<uint64_t>((stall_end - stall_start) / 1000);
    if (instrument) {
      telemetry_->RecordSpan(telemetry::SpanType::kStall,
                             telemetry_series_id_, stall_start, stall_end,
                             points);
    }
  }
}

Status TsEngine::AppendBatch(const DataPoint* points, size_t count) {
  if (count == 0) return Status::OK();
  const bool instrument = telemetry::Active(telemetry_);
  const int64_t append_start = instrument ? options_.clock->NowNanos() : 0;
  Status st;
  storage::GroupCommitter::Ticket ticket;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (background_error_set_) return background_error_;
    if (options_.background_mode) {
      // Admission is batch-granular: one room check up front, then the
      // whole batch goes in. Level 0 can overshoot the cap by the flushes
      // one batch triggers — bounded, and the next writer absorbs the wait.
      WaitForWriteRoomLocked(lock, count, instrument);
      if (background_error_set_) return background_error_;
      if (shutting_down_) return Status::Aborted("engine shutting down");
    }
    st = AppendBatchLocked(points, count, lock, &ticket);
  }
  if (st.ok() && ticket != nullptr) {
    // One Wait covers the whole batch: EnqueueBatch put every point into
    // the same commit round, so this OK means all `count` points are on
    // the device.
    const int64_t wait_start = options_.clock->NowNanos();
    st = options_.wal_committer->Wait(ticket);
    const uint64_t wait_micros = static_cast<uint64_t>(
        (options_.clock->NowNanos() - wait_start) / 1000);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      metrics_.stall_wal_commit_micros += wait_micros;
      if (st.ok() && wal_ != nullptr) {
        metrics_.wal_durable_bytes =
            std::max(metrics_.wal_durable_bytes, wal_->bytes_written());
      }
    }
  }
  CollectDeferredDeletes();
  if (instrument) RecordAppendLatency(append_start, count);
  return st;
}

void TsEngine::RecordAppendLatency(int64_t start_nanos, uint64_t points) {
  const int64_t end_nanos = options_.clock->NowNanos();
  telemetry_->registry().AddLatency(
      telemetry::SpanType::kAppend,
      static_cast<double>(end_nanos - start_nanos) / 1000.0);
  const size_t every = telemetry_->options().append_span_sample_every;
  if (every == 0 || !telemetry_->tracer().enabled()) return;
  if ((append_tick_.fetch_add(1, std::memory_order_relaxed) + 1) % every !=
      0) {
    return;
  }
  telemetry::TraceEvent event;
  event.type = telemetry::SpanType::kAppend;
  event.series_id = telemetry_series_id_;
  event.start_nanos = start_nanos;
  event.end_nanos = end_nanos;
  event.points = points;
  telemetry_->tracer().Record(event);
}

void TsEngine::RecordQueueWait(uint64_t queue_wait_micros) {
  if (!telemetry::Active(telemetry_)) return;
  // The scheduler measured the wait; reconstruct the span end-anchored at
  // now (the job just started running).
  const int64_t end_nanos = options_.clock->NowNanos();
  telemetry_->RecordSpan(
      telemetry::SpanType::kQueueWait, telemetry_series_id_,
      end_nanos - static_cast<int64_t>(queue_wait_micros) * 1000, end_nanos);
}

Status TsEngine::AppendBatchLocked(const DataPoint* points, size_t count,
                                   std::unique_lock<std::mutex>& lock,
                                   storage::GroupCommitter::Ticket* ticket) {
  if (options_.enable_wal && wal_ == nullptr && !wal_replaying_) {
    // A failed rotation leaves the engine without a live log (the old one
    // was retired, the replacement never opened). Acking appends in this
    // state would hand out durability the store cannot provide — the
    // crash-matrix test catches exactly this as acked-point loss.
    return Status::IOError("wal unavailable after failed rotation");
  }
  if (wal_ != nullptr && !wal_replaying_) {
    if (wal_handle_ != nullptr && ticket != nullptr) {
      // Group commit: the whole batch is one enqueue and one ticket — one
      // lock hold on the committer, one slot in the next commit round.
      *ticket =
          options_.wal_committer->EnqueueBatch(wal_handle_, points, count);
      if (*ticket == nullptr) {
        return Status::Aborted("wal committer shutting down");
      }
    } else {
      // Direct WAL path: ONE multi-point CRC-framed record (recovery
      // replays it all-or-nothing) and, in sync-every-append mode, ONE
      // fsync for the batch — the batch is the durability unit.
      SEPLSM_RETURN_IF_ERROR(wal_->AppendBatch(points, count));
      if (options_.wal_sync_every_append) {
        SEPLSM_RETURN_IF_ERROR(SyncWalLocked());
      }
    }
    metrics_.wal_records += count;
    metrics_.wal_bytes = wal_->bytes_written();
  }
  Status st;
  for (size_t i = 0; st.ok() && i < count; ++i) {
    const DataPoint& point = points[i];
    ++metrics_.points_ingested;
    max_seen_tg_ = std::max(max_seen_tg_, point.generation_time);
    storage::MemTable* mem = c0_.get();
    BatchSource source = BatchSource::kC0;
    if (options_.policy.kind == PolicyKind::kSeparation) {
      // Definition 3, per point: in-order iff generated after everything
      // persisted. A mid-batch install moves that horizon, which can flip
      // later points of the same batch from non-sequential to sequential.
      const bool in_order = point.generation_time > MaxPersistedLocked();
      mem = in_order ? cseq_.get() : cnonseq_.get();
      source = in_order ? BatchSource::kSeq : BatchSource::kNonseq;
    }
    mem->Add(point);
    if (mem->full()) {
      FreezeLocked(mem, source);
      if (!options_.background_mode) st = InstallFrozenLocked(lock);
    }
  }
  if (st.ok()) st = MaybeCheckpointWalLocked(lock);
  if (st.ok()) MaybeRecordTimelineLocked(count);
  return st;
}

void TsEngine::FreezeLocked(storage::MemTable* mem, BatchSource source) {
  if (mem->empty()) return;
  // The view keeps the frozen map; Clear() gives the MemTable a fresh one.
  pending_flushes_.push_back({mem->SnapshotView(), source});
  mem->Clear();
  ++batches_frozen_;
  MaybeScheduleFlushLocked();
}

void TsEngine::FreezeMemTablesLocked() {
  if (options_.policy.kind == PolicyKind::kConventional) {
    FreezeLocked(c0_.get(), BatchSource::kC0);
    return;
  }
  // C_nonseq first: merging it never raises the run's max key above
  // C_seq's minimum, so the C_seq batch behind it still flushes above the
  // run.
  FreezeLocked(cnonseq_.get(), BatchSource::kNonseq);
  FreezeLocked(cseq_.get(), BatchSource::kSeq);
}

Status TsEngine::InstallFrozenLocked(std::unique_lock<std::mutex>& lock) {
  const uint64_t target = batches_frozen_;
  while (batches_installed_ < target) {
    if (background_error_set_) return background_error_;
    if (options_.background_mode || pipeline_busy_) {
      // The flush jobs — or another appender running the inline pipeline —
      // install the batches; every install step notifies.
      background_cv_.wait(lock);
      continue;
    }
    pipeline_busy_ = true;
    Status st = InstallFrontBatchLocked(lock);
    if (st.ok()) st = CompactInlineLocked(lock);
    pipeline_busy_ = false;
    background_cv_.notify_all();
    SEPLSM_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Status TsEngine::InstallFrontBatchLocked(std::unique_lock<std::mutex>& lock) {
  // A copy: appends may grow the list while the lock is released for I/O.
  // Only one installer runs at a time (the job token, the inline pipeline,
  // or the destructor), so the front stays this batch.
  const PendingBatch batch = pending_flushes_.front();
  Status st;
  if (options_.background_mode) {
    st = FlushBatchLocked(batch.points, 0, lock);
  } else if (version_.layout(1) == storage::LevelLayout::kStacked ||
             (batch.source == BatchSource::kSeq &&
              (version_.run().empty() ||
               batch.points->begin()->first >
                   version_.run().back()->max_generation_time))) {
    // A C_seq batch above the run is appended to it; a stacked (tiering)
    // level 1 never merges on ingest and takes any batch as-is.
    st = FlushBatchLocked(batch.points, 1, lock);
  } else {
    // C0/C_nonseq — or a C_seq batch that overlaps the run, e.g. right
    // after a policy switch: a real merge, recorded even when the batch
    // overlaps nothing.
    telemetry::ScopedSpan span(telemetry_, options_.clock,
                               telemetry::SpanType::kCompaction,
                               telemetry_series_id_);
    span.set_level(1);
    st = MergeIntoLevelLocked(1, batch.points, nullptr, &span, lock, nullptr);
  }
  SEPLSM_RETURN_IF_ERROR(st);
  pending_flushes_.erase(pending_flushes_.begin());
  ++batches_installed_;
  return Status::OK();
}

Status TsEngine::FlushBatchLocked(const storage::MemTable::View& batch,
                                  size_t level,
                                  std::unique_lock<std::mutex>& lock) {
  assert(!batch->empty());
  telemetry::ScopedSpan span(telemetry_, options_.clock,
                             telemetry::SpanType::kFlush,
                             telemetry_series_id_);
  // A batch holds each key once, so its file count is known up front and
  // the numbers can be reserved before the lock is released.
  const size_t per_file = level == 0 ? batch->size() : options_.sstable_points;
  uint64_t file_no = next_file_number_;
  next_file_number_ += (batch->size() + per_file - 1) / per_file;
  lock.unlock();
  // Stream the frozen view straight into the table writer — no
  // materialized copy of the batch.
  storage::MemTableViewIterator input(batch);
  std::vector<storage::FileMetadata> files;
  Status st = storage::WriteSortedPointsAsTables(
      options_.env, options_.dir, &input, per_file, options_.points_per_block,
      &file_no, &files, options_.value_encoding, MetaConfig());
  lock.lock();
  SEPLSM_RETURN_IF_ERROR(st);
  uint64_t bytes_out = 0;
  span.set_files(files.size());
  for (auto& f : files) {
    metrics_.bytes_written += f.file_bytes;
    ++metrics_.files_created;
    bytes_out += f.file_bytes;
    SEPLSM_RETURN_IF_ERROR(version_.AppendToLevel(level, std::move(f)));
  }
  span.set_bytes(bytes_out);
  span.set_points(batch->size());
  metrics_.points_flushed += batch->size();
  ++metrics_.flush_count;
  return Status::OK();
}

Status TsEngine::MergeIntoLevelLocked(
    size_t target, const storage::MemTable::View& batch,
    const storage::FilePtr& file, telemetry::ScopedSpan* span,
    std::unique_lock<std::mutex>& lock,
    std::vector<storage::FileMetadata>* residual) {
  const bool buffered = batch != nullptr;
  const int64_t lo =
      buffered ? batch->begin()->first : file->min_generation_time;
  const int64_t hi =
      buffered ? batch->rbegin()->first : file->max_generation_time;
  const uint64_t input_points = buffered ? batch->size() : file->point_count;
  size_t begin, end;
  version_.OverlappingLevelRange(target, lo, hi, &begin, &end);

  // Bounded jobs (file inputs only): with a cap of K input files, merge the
  // file's head with the first K-1 overlapping target files and hand its
  // tail back as `residual`, so the next job on the source level resumes
  // from the boundary. Progress is guaranteed: the boundary is at least the
  // first overlap file's max, which is >= the file's min, so the head is
  // never empty. A cap below 2 could never make progress and is clamped.
  size_t cap = buffered ? 0 : options_.max_compaction_input_files;
  if (cap == 1) cap = 2;
  const bool capped = cap > 0 && end - begin + 1 > cap;
  if (capped) end = begin + (cap - 1);
  std::vector<storage::FilePtr> slice(version_.level(target).begin() + begin,
                                      version_.level(target).begin() + end);
  // Overlap files beyond the cap have min > split_max (disjoint sorted
  // level), so split_max < INT64_MAX here and split_max + 1 is safe.
  const int64_t split_max = capped ? slice.back()->max_generation_time : 0;
  uint64_t slice_points = 0;
  for (const auto& f : slice) slice_points += f->point_count;

  // Reserve output file numbers: writers allocate numbers under the lock
  // we are about to release. Dedup only shrinks the output, so input size
  // bounds the file count; unused reservations just leave gaps.
  uint64_t file_no = next_file_number_;
  next_file_number_ +=
      (input_points + slice_points) / options_.sstable_points + 2;
  if (capped) next_file_number_ += input_points / options_.sstable_points + 2;

  // All table I/O streams without the engine lock, holding one decoded
  // block per input. Safe because the caller is the only mutator of levels
  // >= 1 (the job token, or the inline pipeline / recovery in synchronous
  // mode) and writers only append level-0 files behind the front, so
  // `begin`/`end` stay valid; readers keep the inputs visible through their
  // snapshots (files) and the pending list (batches) until the output is
  // installed atomically. Cancellation (shutdown) is checked between
  // blocks; aborting is safe — nothing was installed and the writer
  // removes its partial outputs.
  lock.unlock();
  std::vector<storage::FileMetadata> new_files;
  std::vector<storage::FileMetadata> tail_files;
  storage::ReadStats rstats;
  uint64_t disk_subsequent = 0;
  Status st = [&]() -> Status {
    if (cancel_bg_.load(std::memory_order_relaxed)) {
      return Status::Aborted("engine shutting down");
    }
    // One-pass scans: never insert into the block cache (hot query blocks
    // survive the merge), account device traffic to the compaction
    // counters.
    storage::ReadOptions ropts;
    ropts.fill_cache = false;
    ropts.stats = &rstats;
    using Iters = std::vector<std::unique_ptr<storage::PointIterator>>;
    // Opens `f`'s points in [from, to] as one more input.
    auto scan = [&](const storage::FileMetadata& f, Iters* out,
                    int64_t from = std::numeric_limits<int64_t>::min(),
                    int64_t to = std::numeric_limits<int64_t>::max()) {
      storage::ReadOptions range = ropts;
      range.lo = from;
      range.hi = to;
      auto it = NewTableIterator(f, range);
      if (!it.ok()) return it.status();
      out->push_back(std::move(it).value());
      return Status::OK();
    };
    // The newest input is the first merge child, so its version wins on
    // duplicate generation times. A capped job merges only the file's head.
    Iters children;
    if (buffered) {
      children.push_back(
          std::make_unique<storage::MemTableViewIterator>(batch));
    } else {
      SEPLSM_RETURN_IF_ERROR(
          scan(*file, &children, lo, capped ? split_max : hi));
    }
    Iters slice_iters;
    for (const auto& f : slice) SEPLSM_RETURN_IF_ERROR(scan(*f, &slice_iters));
    if (!slice_iters.empty()) {
      // The slice is disjoint and ordered, so chaining it yields one sorted
      // stream: the heap merge is 2-way no matter how many files overlap.
      std::unique_ptr<storage::PointIterator> disk =
          slice_iters.size() == 1
              ? std::move(slice_iters[0])
              : std::make_unique<storage::ConcatenatingIterator>(
                    std::move(slice_iters));
      if (buffered && options_.record_merge_events) {
        disk = std::make_unique<SubsequentCountingIterator>(
            std::move(disk), lo, &disk_subsequent);
      }
      children.push_back(std::move(disk));
    }
    storage::MergingIterator merged(std::move(children));
    SEPLSM_RETURN_IF_ERROR(storage::WriteSortedPointsAsTables(
        options_.env, options_.dir, &merged, options_.sstable_points,
        options_.points_per_block, &file_no, &new_files,
        options_.value_encoding, MetaConfig(), &cancel_bg_));
    if (!capped) return Status::OK();
    Iters tail;  // the residual, rewritten as-is
    SEPLSM_RETURN_IF_ERROR(scan(*file, &tail, split_max + 1, hi));
    return storage::WriteSortedPointsAsTables(
        options_.env, options_.dir, tail[0].get(), options_.sstable_points,
        options_.points_per_block, &file_no, &tail_files,
        options_.value_encoding, MetaConfig());
  }();
  lock.lock();
  metrics_.compaction_bytes_read += rstats.device_bytes_read;
  metrics_.compaction_blocks_read += rstats.blocks_read;
  if (!st.ok()) {
    // Nothing was installed and the inputs are all still live. The failed
    // writer removed its own partial tables; drop the merged output too if
    // the residual write is what failed, or recovery would adopt it.
    for (const auto& f : new_files) options_.env->RemoveFile(f.path);
    return st;
  }

  uint64_t output_points = 0;
  uint64_t output_bytes = 0;
  for (const auto* files : {&new_files, &tail_files}) {
    for (const auto& f : *files) {
      metrics_.bytes_written += f.file_bytes;
      ++metrics_.files_created;
      output_points += f.point_count;
      output_bytes += f.file_bytes;
    }
  }
  const uint64_t output_files = new_files.size() + tail_files.size();
  span->set_points(input_points + slice_points);
  span->set_bytes(output_bytes);
  span->set_files(output_files);
  SEPLSM_RETURN_IF_ERROR(
      version_.ReplaceLevelSlice(target, begin, end, std::move(new_files)));
  for (const auto& f : slice) ScheduleTableDeleteLocked(f);

  // WA accounting from file metadata: a file input's points were flushed
  // once already, so folding them in counts as rewrites, as does every
  // point of the overlapped slice.
  const uint64_t disk_points = slice_points + (buffered ? 0 : input_points);
  if (buffered) metrics_.points_flushed += input_points;
  metrics_.points_rewritten += disk_points;
  ++metrics_.merge_count;
  metrics_.compaction_bytes_written += output_bytes;
  LevelStats& lstats = metrics_.level_stats[target];
  ++lstats.compactions;
  lstats.compaction_bytes_read += rstats.device_bytes_read;
  lstats.compaction_bytes_written += output_bytes;
  // The default two-level level-0 fold records no event, matching the
  // original engine; MemTable merges always do, and so do deeper trees and
  // capped jobs, so per-job input sizes are observable.
  if (options_.record_merge_events &&
      (buffered || target > 1 || version_.num_levels() > 2 ||
       options_.max_compaction_input_files > 0)) {
    MergeEvent event;
    event.buffered_points = buffered ? input_points : 0;
    event.disk_points_rewritten = disk_points;
    event.disk_points_subsequent = disk_subsequent;
    event.output_points = output_points;
    event.input_files = slice.size() + (buffered ? 0 : 1);
    event.output_files = output_files;
    event.level = static_cast<uint32_t>(target);
    metrics_.merge_events.push_back(event);
  }
  if (residual != nullptr) *residual = std::move(tail_files);
  return Status::OK();
}

Status TsEngine::CompactInlineLocked(std::unique_lock<std::mutex>& lock) {
  for (size_t n = 0; n + 1 < version_.num_levels(); ++n) {
    while (LevelNeedsCompactionLocked(n)) {
      SEPLSM_RETURN_IF_ERROR(CompactLevel(n, lock));
    }
  }
  return Status::OK();
}

void TsEngine::MaybeScheduleFlushLocked() {
  if (!options_.background_mode || flush_job_scheduled_ || shutting_down_ ||
      background_error_set_ || pending_flushes_.empty()) {
    return;
  }
  flush_job_scheduled_ = true;
  Status st = options_.job_scheduler->Submit(
      job_token_, JobScheduler::JobKind::kFlush,
      [this](uint64_t wait) { FlushJob(wait); });
  if (!st.ok()) {
    // Submit only fails at scheduler shutdown; the engine destructor's
    // synchronous drain still persists the batch.
    flush_job_scheduled_ = false;
  }
}

size_t TsEngine::LevelTriggerLocked(size_t level) const {
  if (level == 0) return 1;  // every level-0 file folds as soon as it lands
  // Geometric sizing: level n holds base * ratio^(n-1) files before it
  // spills into n+1 (multiplied out to avoid pow's libm rounding).
  double trigger = static_cast<double>(options_.level_base_files);
  const double ratio = options_.level_size_ratio > 1.0
                           ? options_.level_size_ratio
                           : 1.0;
  for (size_t n = 1; n < level && trigger < 1e18; ++n) trigger *= ratio;
  if (trigger < 1.0) trigger = 1.0;
  if (trigger > 1e18) trigger = 1e18;
  return static_cast<size_t>(trigger);
}

bool TsEngine::LevelNeedsCompactionLocked(size_t level) const {
  if (level + 1 >= version_.num_levels()) return false;  // deepest: never
  return version_.level(level).size() >= LevelTriggerLocked(level);
}

bool TsEngine::AnyLevelNeedsCompactionLocked() const {
  for (size_t n = 0; n < version_.num_levels(); ++n) {
    if (LevelNeedsCompactionLocked(n)) return true;
  }
  return false;
}

size_t TsEngine::PickCompactionFileLocked(size_t level, size_t target) {
  const std::vector<storage::FilePtr>& files = version_.level(level);
  switch (options_.file_pick) {
    case CompactionFilePick::kRoundRobin: {
      size_t idx = rr_cursor_[level] % files.size();
      rr_cursor_[level] = idx + 1;
      return idx;
    }
    case CompactionFilePick::kMostOverlap: {
      const bool sorted_target =
          version_.layout(target) == storage::LevelLayout::kSorted;
      size_t best = 0;
      uint64_t best_points = 0;
      for (size_t i = 0; i < files.size(); ++i) {
        uint64_t pts = 0;
        if (sorted_target) {
          size_t b, e;
          version_.OverlappingLevelRange(target,
                                         files[i]->min_generation_time,
                                         files[i]->max_generation_time, &b,
                                         &e);
          for (size_t j = b; j < e; ++j) {
            pts += version_.level(target)[j]->point_count;
          }
        } else {
          for (const auto& t : version_.level(target)) {
            if (t->Overlaps(files[i]->min_generation_time,
                            files[i]->max_generation_time)) {
              pts += t->point_count;
            }
          }
        }
        if (i == 0 || pts > best_points) {
          best = i;
          best_points = pts;
        }
      }
      return best;
    }
    case CompactionFilePick::kOldest:
    default: {
      // Earliest-created file; file numbers are allocation-ordered.
      size_t best = 0;
      for (size_t i = 1; i < files.size(); ++i) {
        if (files[i]->file_number < files[best]->file_number) best = i;
      }
      return best;
    }
  }
}

void TsEngine::MaybeScheduleCompactionLocked() {
  if (!options_.background_mode || shutting_down_ || background_error_set_) {
    return;
  }
  for (size_t level = 0; level + 1 < version_.num_levels(); ++level) {
    if (compaction_scheduled_[level] != 0 ||
        !LevelNeedsCompactionLocked(level)) {
      continue;
    }
    compaction_scheduled_[level] = 1;
    Status st = options_.job_scheduler->Submit(
        job_token_, JobScheduler::JobKind::kCompaction,
        [this, level](uint64_t wait) { CompactionJob(level, wait); });
    if (!st.ok()) compaction_scheduled_[level] = 0;
  }
}

void TsEngine::FlushJob(uint64_t queue_wait_micros) {
  RecordQueueWait(queue_wait_micros);
  std::unique_lock<std::mutex> lock(mutex_);
  ++metrics_.bg_flush_jobs;
  metrics_.bg_queue_wait_micros += queue_wait_micros;
  // One batch per job: the token re-enters the scheduler queue between
  // batches, so engines sharing the pool interleave fairly.
  Status st;
  if (!pending_flushes_.empty() && !shutting_down_ && !background_error_set_) {
    st = InstallFrontBatchLocked(lock);
  }
  flush_job_scheduled_ = false;
  if (!st.ok()) {
    // The batch stays pending (and visible to readers); the engine is
    // poisoned like any other background failure.
    SEPLSM_LOG(Error) << "background flush failed: " << st.ToString();
    background_error_set_ = true;
    background_error_ = st;
  } else {
    MaybeScheduleCompactionLocked();
    MaybeScheduleFlushLocked();
  }
  background_cv_.notify_all();
  writer_cv_.notify_all();
}

void TsEngine::CompactionJob(size_t level, uint64_t queue_wait_micros) {
  RecordQueueWait(queue_wait_micros);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++metrics_.bg_compaction_jobs;
    metrics_.bg_queue_wait_micros += queue_wait_micros;
    if (shutting_down_ || background_error_set_ ||
        !LevelNeedsCompactionLocked(level)) {
      compaction_scheduled_[level] = 0;
      background_cv_.notify_all();
      writer_cv_.notify_all();
      return;
    }
    // One file per job (fairness, as above). CompactLevel releases the
    // lock during table I/O, so ingest keeps flowing.
    Status st = CompactLevel(level, lock);
    compaction_scheduled_[level] = 0;
    if (!st.ok() && !st.IsNotFound() &&
        !(st.IsAborted() && shutting_down_)) {
      SEPLSM_LOG(Error) << "background compaction failed: " << st.ToString();
      background_error_set_ = true;
      background_error_ = st;
    } else {
      MaybeScheduleCompactionLocked();
    }
    background_cv_.notify_all();
    writer_cv_.notify_all();
  }
  CollectDeferredDeletes();
}

Status TsEngine::CompactLevel(size_t level,
                              std::unique_lock<std::mutex>& lock) {
  const size_t target = level + 1;
  if (target >= version_.num_levels()) {
    return Status::InvalidArgument("CompactLevel: no deeper level");
  }
  if (version_.level(level).empty()) {
    return Status::NotFound("compaction source level empty");
  }
  // Keep the file in the version (and thus in every snapshot) until the
  // merged output is installed: a reader must never observe a window where
  // the data is in neither level. A stacked source must surrender its
  // oldest (front) file — arrival order is its recency order, and moving a
  // newer file below an older one would flip upsert precedence; a sorted
  // source is pairwise disjoint, so any pick policy is sound.
  const bool stacked_src =
      version_.layout(level) == storage::LevelLayout::kStacked;
  const size_t src_idx =
      stacked_src ? 0 : PickCompactionFileLocked(level, target);
  storage::FilePtr src = version_.level(level)[src_idx];
  telemetry::ScopedSpan span(telemetry_, options_.clock,
                             telemetry::SpanType::kCompaction,
                             telemetry_series_id_);
  span.set_level(static_cast<uint32_t>(target));

  if (version_.layout(target) == storage::LevelLayout::kStacked) {
    // Tiering target: zero-I/O move. Back-append keeps recency order — the
    // shallower level always holds the newer version of any shared key.
    span.set_points(src->point_count);
    span.set_files(1);
    ++metrics_.level_stats[target].compactions;
    return version_.MoveFile(level, src_idx, target);
  }

  // Fast path: the file sits strictly above the target level — adopt it
  // unchanged.
  int64_t target_max =
      version_.level(target).empty()
          ? kNoData
          : version_.level(target).back()->max_generation_time;
  if (target_max == kNoData || src->min_generation_time > target_max) {
    span.set_points(src->point_count);
    span.set_files(1);
    version_.RemoveFileAt(level, src_idx);
    return version_.AppendToLevel(target, std::move(src));
  }

  size_t begin, end;
  version_.OverlappingLevelRange(target, src->min_generation_time,
                                 src->max_generation_time, &begin, &end);
  if (begin == end && (level > 0 || version_.num_levels() > 2)) {
    // The file fits a gap between target files: adopt it unchanged (same
    // FilePtr — no I/O, no copy, nothing to delete). The default two-level
    // shape skips this and runs the full merge below so its accounting
    // stays bit-identical to the original single-run engine.
    span.set_points(src->point_count);
    span.set_files(1);
    SEPLSM_RETURN_IF_ERROR(version_.InsertFileAt(target, begin, src));
    version_.RemoveFileAt(level, src_idx);
    return Status::OK();
  }

  // Otherwise the source contents are merged into the target level; a
  // capped job's residual tail replaces the source file in place (for a
  // sorted source its pieces stay inside the old range, for a stacked one
  // they are disjoint fragments of a single arrival, so order among them is
  // immaterial). On failure the source is still in the version: no data
  // was lost, and a later retry (or recovery) picks it up again.
  std::vector<storage::FileMetadata> residual;
  SEPLSM_RETURN_IF_ERROR(
      MergeIntoLevelLocked(target, nullptr, src, &span, lock, &residual));
  if (residual.empty()) {
    version_.RemoveFileAt(level, src_idx);
  } else {
    SEPLSM_RETURN_IF_ERROR(version_.ReplaceLevelSlice(
        level, src_idx, src_idx + 1, std::move(residual)));
  }
  ScheduleTableDeleteLocked(std::move(src));
  return Status::OK();
}

void TsEngine::ScheduleTableDeleteLocked(storage::FilePtr file) {
  ++metrics_.files_deferred_deleted;
  deleter_.Schedule(std::move(file));
}

Status TsEngine::RemoveTableFromDisk(const storage::FileMetadata& file) {
  if (table_cache_ != nullptr) table_cache_->Erase(file.file_number);
  if (options_.block_cache != nullptr) {
    options_.block_cache->EraseFile(block_cache_owner_id_, file.file_number);
  }
  return options_.env->RemoveFile(file.path);
}

void TsEngine::CollectDeferredDeletes() {
  size_t deleted = deleter_.CollectGarbage();
  if (deleted > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.files_deleted += deleted;
  }
}

Result<std::shared_ptr<storage::SSTableReader>> TsEngine::OpenTableReader(
    const storage::FileMetadata& file) {
  if (table_cache_ != nullptr) {
    auto reader = table_cache_->Get(file.file_number, file.path);
    if (!reader.ok()) return reader.status();
    return std::move(reader).value();
  }
  auto reader = storage::SSTableReader::Open(
      options_.env, file.path,
      storage::BlockCacheHandle{options_.block_cache.get(),
                                block_cache_owner_id_, file.file_number});
  if (!reader.ok()) return reader.status();
  return std::shared_ptr<storage::SSTableReader>(std::move(reader).value());
}

Result<std::unique_ptr<storage::PointIterator>> TsEngine::NewTableIterator(
    const storage::FileMetadata& file, const storage::ReadOptions& options) {
  auto reader = OpenTableReader(file);
  if (!reader.ok()) return reader.status();
  return std::unique_ptr<storage::PointIterator>(
      std::make_unique<storage::SSTableIterator>(std::move(reader).value(),
                                                 options));
}

Status TsEngine::DrainMemTablesLocked(std::unique_lock<std::mutex>& lock) {
  FreezeMemTablesLocked();
  return InstallFrozenLocked(lock);
}

Status TsEngine::SyncWalLocked() {
  if (wal_ == nullptr) return Status::OK();
  if (wal_handle_ != nullptr) {
    // Everything already enqueued (Enqueue happens under mutex_, which we
    // hold) must reach the device; the barrier waits out the committer's
    // in-flight rounds, after which the direct Sync below covers any bytes
    // the rounds buffered but did not yet sync.
    options_.wal_committer->Barrier(wal_handle_);
  }
  const bool instrument = telemetry::Active(telemetry_);
  const int64_t sync_start = instrument ? options_.clock->NowNanos() : 0;
  const uint64_t durable_before = metrics_.wal_durable_bytes;
  SEPLSM_RETURN_IF_ERROR(wal_->Sync());
  ++metrics_.wal_syncs;
  metrics_.wal_durable_bytes = wal_->bytes_written();
  if (instrument) {
    const uint64_t newly_durable =
        metrics_.wal_durable_bytes > durable_before
            ? metrics_.wal_durable_bytes - durable_before
            : 0;
    telemetry_->RecordSpan(telemetry::SpanType::kWalSync,
                           telemetry_series_id_, sync_start,
                           options_.clock->NowNanos(), /*points=*/0,
                           /*bytes=*/newly_durable);
  }
  return Status::OK();
}

Status TsEngine::FlushAll() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    SEPLSM_RETURN_IF_ERROR(DrainMemTablesLocked(lock));
    SEPLSM_RETURN_IF_ERROR(SyncWalLocked());
  }
  CollectDeferredDeletes();
  return WaitForBackgroundIdle();
}

Status TsEngine::Checkpoint() {
  SEPLSM_RETURN_IF_ERROR(FlushAll());
  std::unique_lock<std::mutex> lock(mutex_);
  if (wal_ != nullptr) {
    // FlushAll ran without this lock held throughout, so appends may have
    // slipped in since; re-drain until quiescent before retiring the log.
    SEPLSM_RETURN_IF_ERROR(DrainForWalRetireLocked(lock));
    SEPLSM_RETURN_IF_ERROR(RotateWalLocked(nullptr));
    ++metrics_.wal_checkpoints;
  }
  return Status::OK();
}

Status TsEngine::WaitForBackgroundIdle() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!options_.background_mode) return Status::OK();
    // Defensive: make sure jobs are queued for any outstanding work (e.g.
    // a submit that failed at scheduler shutdown).
    MaybeScheduleFlushLocked();
    MaybeScheduleCompactionLocked();
    background_cv_.wait(lock, [this] {
      return background_error_set_ ||
             (pending_flushes_.empty() && !AnyLevelNeedsCompactionLocked());
    });
    if (background_error_set_) return background_error_;
  }
  CollectDeferredDeletes();
  return Status::OK();
}

Status TsEngine::QuerySnapshot(
    const ReadSnapshot& snap, int64_t lo, int64_t hi, QueryStats* local,
    const std::function<void(const DataPoint&)>& visit) {
  // One streaming merge, children newest first: the MemTable views (the
  // snapshot lists them oldest first), then level 0 newest first, then
  // each deeper level — a sorted level as one chain over its overlapping
  // slice, a stacked level newest first. The newest version of any key
  // lives in the shallowest level holding it, so this is recency order,
  // and the merge's lowest-child-wins rule keeps exactly that version.
  storage::QueryExplain* explain = local->explain;
  storage::ReadStats reads;
  storage::ReadOptions ropts;
  ropts.lo = lo;
  ropts.hi = hi;
  ropts.stats = &reads;
  ropts.explain = explain;
  using IterPtr = std::unique_ptr<storage::PointIterator>;
  auto open = [&](const storage::FilePtr& f, int32_t level) -> Result<IterPtr> {
    ++local->files_opened;
    if (explain != nullptr) {
      explain->RecordFileOpened(f->file_number, level, f->min_generation_time,
                                f->max_generation_time);
    }
    storage::ReadOptions file_opts = ropts;
    file_opts.explain_file = f->file_number;
    file_opts.explain_level = level;
    return NewTableIterator(*f, file_opts);
  };
  std::vector<IterPtr> children;
  std::vector<const storage::MemTableViewIterator*> mems;
  for (auto view = snap.mems.rbegin(); view != snap.mems.rend(); ++view) {
    auto it = std::make_unique<storage::MemTableViewIterator>(*view, lo, hi);
    mems.push_back(it.get());
    children.push_back(std::move(it));
  }
  for (size_t n = 0; n < snap.files.num_levels(); ++n) {
    const std::vector<storage::FilePtr>& files = snap.files.level(n);
    const int32_t level = static_cast<int32_t>(n);
    std::vector<size_t> overlap;
    const bool sorted =
        n > 0 && snap.files.layout(n) == storage::LevelLayout::kSorted;
    if (sorted) {
      size_t begin, end;
      snap.files.OverlappingLevelRange(n, lo, hi, &begin, &end);
      for (size_t i = begin; i < end; ++i) overlap.push_back(i);
    } else {
      overlap = storage::OverlappingLevel0(files, lo, hi);
    }
    local->pruning.files_skipped += files.size() - overlap.size();
    if (explain != nullptr) {
      explain->RecordFilesSkipped(level, files.size() - overlap.size(), lo,
                                  hi);
    }
    if (sorted && !overlap.empty()) {
      // A disjoint, ordered slice: one chained child, each file opened only
      // when the chain reaches it.
      std::vector<storage::ConcatenatingIterator::ChildFactory> slice;
      for (size_t i : overlap) {
        slice.push_back(
            [&open, f = files[i], level] { return open(f, level); });
      }
      children.push_back(
          std::make_unique<storage::ConcatenatingIterator>(std::move(slice)));
    } else if (!sorted) {
      // Stacked: arrival order is oldest first, so walk it backwards.
      for (auto i = overlap.rbegin(); i != overlap.rend(); ++i) {
        auto it = open(files[*i], level);
        if (!it.ok()) return it.status();
        children.push_back(std::move(it).value());
      }
    }
  }
  storage::MergingIterator merged(std::move(children));
  for (; merged.Valid(); merged.Next()) visit(merged.point());
  SEPLSM_RETURN_IF_ERROR(merged.status());
  local->disk_points_scanned += reads.points_scanned;
  local->device_bytes_read += reads.device_bytes_read;
  local->block_cache_hits += reads.cache_hits;
  local->block_cache_misses += reads.cache_misses;
  local->blocks_read += reads.blocks_read + reads.cache_hits;
  local->pruning.blocks_skipped += reads.blocks_skipped;
  uint64_t mem_points = 0;
  for (const auto* it : mems) mem_points += it->consumed();
  local->memtable_points += mem_points;
  if (explain != nullptr && mem_points > 0) {
    explain->RecordMemtableScan(mem_points);
  }
  return Status::OK();
}

Status TsEngine::ReadOnSnapshot(
    QueryStats* stats,
    const std::function<Status(const ReadSnapshot&, QueryStats*)>& body) {
  telemetry::ScopedSpan span(telemetry_, options_.clock,
                             telemetry::SpanType::kQuery,
                             telemetry_series_id_);
  QueryStats local;
  if (stats != nullptr) local.explain = stats->explain;
  // Capture the snapshot in O(files) under the lock; every disk read,
  // block-cache lookup, and merge run without it, so a long historical
  // query does not stall ingest or compaction. The snapshot's shared
  // ownership keeps retired SSTables on disk until we are done.
  ReadSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.files = version_.Snapshot();
    // Frozen batches not installed yet: oldest first, below the live
    // MemTables, mirroring the order the data was accepted in; C_seq
    // precedes C_nonseq (later views win on equal keys).
    for (const auto& batch : pending_flushes_) {
      snap.mems.push_back(batch.points);
    }
    if (options_.policy.kind == PolicyKind::kConventional) {
      snap.mems.push_back(c0_->SnapshotView());
    } else {
      snap.mems.push_back(cseq_->SnapshotView());
      snap.mems.push_back(cnonseq_->SnapshotView());
    }
    ++metrics_.snapshots_acquired;
  }
  SEPLSM_RETURN_IF_ERROR(body(snap, &local));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++metrics_.queries;
    metrics_.points_returned += local.points_returned;
    metrics_.disk_points_scanned += local.disk_points_scanned;
    metrics_.query_files_opened += local.files_opened;
    metrics_.query_device_bytes_read += local.device_bytes_read;
    metrics_.block_cache_hits += local.block_cache_hits;
    metrics_.block_cache_misses += local.block_cache_misses;
    metrics_.files_skipped += local.pruning.files_skipped;
    metrics_.blocks_skipped += local.pruning.blocks_skipped;
    metrics_.blooms_negative += local.pruning.blooms_negative;
    metrics_.summary_hits += local.pruning.summary_hits;
  }
  // Drop our file references, then sweep: if this query was the last
  // reader of a compaction-retired table, unlink it now.
  snap = ReadSnapshot();
  CollectDeferredDeletes();
  span.set_points(local.points_returned);
  span.set_bytes(local.device_bytes_read);
  span.set_files(local.files_opened);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status TsEngine::Query(int64_t lo, int64_t hi, std::vector<DataPoint>* out,
                       QueryStats* stats) {
  out->clear();
  if (lo > hi) return Status::InvalidArgument("Query: lo > hi");
  Status st = ReadOnSnapshot(stats, [&](const ReadSnapshot& snap,
                                        QueryStats* local) {
    SEPLSM_RETURN_IF_ERROR(QuerySnapshot(
        snap, lo, hi, local, [out](const DataPoint& p) { out->push_back(p); }));
    local->points_returned = out->size();
    return Status::OK();
  });
  if (!st.ok()) out->clear();  // a failed query returns nothing
  return st;
}

Result<bool> TsEngine::WindowServableBySummaries(const ReadSnapshot& snap,
                                                 int64_t ws, int64_t we,
                                                 SummaryReaderCache* readers,
                                                 QueryStats* local) {
  // A stacked file (level 0 or a tiering level) or a buffered point inside
  // the window overrides disk data, so the summaries alone could
  // double-count or miss an upsert.
  auto fall_back = [&](const char* reason) {
    if (local->explain != nullptr) {
      local->explain->RecordWindowFallback(ws, we, reason);
    }
    return false;
  };
  for (size_t n = 0; n < snap.files.num_levels(); ++n) {
    if (n > 0 && snap.files.layout(n) == storage::LevelLayout::kSorted) {
      continue;
    }
    if (!storage::OverlappingLevel0(snap.files.level(n), ws, we).empty()) {
      return fall_back("stacked-file-overlap");
    }
  }
  for (const auto& view : snap.mems) {
    auto it = view->lower_bound(ws);
    if (it != view->end() && it->first <= we) {
      return fall_back("buffered-point");
    }
  }
  // Two sorted levels overlapping the same window can hold two versions of
  // one key, and their summaries would double-count it — serve a window
  // from summaries only when a single sorted level owns it.
  size_t levels_overlapping = 0;
  for (size_t n = 1; n < snap.files.num_levels(); ++n) {
    if (snap.files.layout(n) != storage::LevelLayout::kSorted) continue;
    size_t begin, end;
    snap.files.OverlappingLevelRange(n, ws, we, &begin, &end);
    if (end > begin) ++levels_overlapping;
    for (size_t i = begin; i < end; ++i) {
      const storage::FileMetadata& f = *snap.files.level(n)[i];
      auto it = readers->find(f.file_number);
      if (it == readers->end()) {
        auto reader = OpenTableReader(f);
        if (!reader.ok()) return reader.status();
        it = readers->emplace(f.file_number, std::move(reader).value()).first;
        ++local->files_opened;
      }
      const storage::SSTableReader* r = it->second.get();
      if (!r->has_metadata() ||
          r->metadata().summary_window != options_.summary_window) {
        // v1 file (or other window width): point-read it
        return fall_back("unsummarized-file");
      }
    }
  }
  if (levels_overlapping > 1) return fall_back("multi-level-overlap");
  return true;
}

void TsEngine::MergeWindowSummaries(const ReadSnapshot& snap, int64_t ws,
                                    int64_t we, SummaryReaderCache* readers,
                                    Aggregates* agg, QueryStats* local) {
  const uint64_t hits_before = local->pruning.summary_hits;
  // WindowServableBySummaries admitted this window, so at most one sorted
  // level has files in it; walking every sorted level visits exactly that
  // one's slice.
  for (size_t n = 1; n < snap.files.num_levels(); ++n) {
    if (snap.files.layout(n) != storage::LevelLayout::kSorted) continue;
    size_t begin, end;
    snap.files.OverlappingLevelRange(n, ws, we, &begin, &end);
    for (size_t i = begin; i < end; ++i) {
      const storage::FileMetadata& f = *snap.files.level(n)[i];
      const format::TableMetadata& meta =
          readers->at(f.file_number)->metadata();
      auto it = std::lower_bound(
          meta.summaries.begin(), meta.summaries.end(), ws,
          [](const format::WindowSummary& s, int64_t w) {
            return s.window_start < w;
          });
      // A level's files are time-disjoint and walked in level order, so
      // partial summaries of one window merge in ascending time order.
      for (; it != meta.summaries.end() && it->window_start == ws; ++it) {
        agg->MergeOrdered({.count = it->count, .sum = it->sum,
                           .min = it->min, .max = it->max,
                           .first_time = it->first_time,
                           .last_time = it->last_time,
                           .first_value = it->first_value,
                           .last_value = it->last_value});
        ++local->pruning.summary_hits;
      }
    }
  }
  if (local->explain != nullptr) {
    local->explain->RecordSummaryWindowServed(
        ws, we, local->pruning.summary_hits - hits_before);
  }
}

Status TsEngine::AggregateSnapshot(const ReadSnapshot& snap, int64_t lo,
                                   int64_t hi, Aggregates* out,
                                   QueryStats* local) {
  *out = Aggregates();
  // Folds [flo, fhi] into *out by point reads (summaries unusable there).
  auto fallback = [&](int64_t flo, int64_t fhi) -> Status {
    if (flo > fhi) return Status::OK();
    return QuerySnapshot(snap, flo, fhi, local,
                         [out](const DataPoint& p) { out->Accumulate(p); });
  };
  const int64_t W = options_.summary_window;
  if (!options_.pruning || W <= 0) return fallback(lo, hi);
  // Clamp the window walk to the data actually present: an unbounded
  // request (e.g. hi = INT64_MAX) must not iterate empty windows.
  int64_t data_lo = std::numeric_limits<int64_t>::max();
  int64_t data_hi = std::numeric_limits<int64_t>::min();
  auto widen = [&](int64_t mn, int64_t mx) {
    data_lo = std::min(data_lo, mn);
    data_hi = std::max(data_hi, mx);
  };
  for (size_t n = 0; n < snap.files.num_levels(); ++n) {
    for (const auto& f : snap.files.level(n)) {
      widen(f->min_generation_time, f->max_generation_time);
    }
  }
  for (const auto& view : snap.mems) {
    if (!view->empty()) {
      widen(view->begin()->first, view->rbegin()->first);
    }
  }
  if (data_lo > data_hi) return Status::OK();  // nothing stored at all
  const int64_t clo = std::max(lo, data_lo);
  const int64_t chi = std::min(hi, data_hi);
  if (clo > chi) return Status::OK();
  if (clo > std::numeric_limits<int64_t>::max() - W ||
      chi < std::numeric_limits<int64_t>::min() + W) {
    return fallback(clo, chi);
  }
  // First aligned window fully inside [clo, chi]; FloorWindowStart handles
  // negative times.
  const int64_t ws0 = FloorWindowStart(clo + W - 1, W);
  const int64_t we_end = FloorWindowStart(chi - W + 1, W) + W;
  if (ws0 >= we_end) return fallback(clo, chi);
  if ((we_end - ws0) / W > kMaxPushdownWindows) return fallback(clo, chi);
  SummaryReaderCache readers;
  int64_t pending = clo;
  for (int64_t ws = ws0; ws < we_end; ws += W) {
    auto servable = WindowServableBySummaries(snap, ws, ws + W - 1, &readers,
                                              local);
    if (!servable.ok()) return servable.status();
    if (!servable.value()) continue;  // absorbed into the next point read
    SEPLSM_RETURN_IF_ERROR(fallback(pending, ws - 1));
    MergeWindowSummaries(snap, ws, ws + W - 1, &readers, out, local);
    pending = ws + W;
  }
  return fallback(pending, chi);
}

Status TsEngine::Aggregate(int64_t lo, int64_t hi, Aggregates* out,
                           QueryStats* stats) {
  *out = Aggregates();
  if (lo > hi) return Status::InvalidArgument("Query: lo > hi");
  Status st = ReadOnSnapshot(stats, [&](const ReadSnapshot& snap,
                                        QueryStats* local) {
    SEPLSM_RETURN_IF_ERROR(AggregateSnapshot(snap, lo, hi, out, local));
    // Aggregates cover the same points a Query would have returned; keeping
    // points_returned equal on both paths keeps RA comparable on vs. off.
    local->points_returned = out->count;
    return Status::OK();
  });
  if (!st.ok()) *out = Aggregates();
  return st;
}

Status TsEngine::Downsample(int64_t lo, int64_t hi, int64_t bucket_width,
                            std::vector<TimeBucket>* out,
                            QueryStats* stats) {
  out->clear();
  if (bucket_width <= 0) {
    return Status::InvalidArgument("Downsample: bucket_width must be > 0");
  }
  if (lo > hi) return Status::InvalidArgument("Query: lo > hi");
  const int64_t W = options_.summary_window;
  // The bucket grid must coincide with the summary grid for pushdown:
  // buckets are aligned to `lo`, so `lo` must sit on a window boundary and
  // the width must be a whole number of windows.
  const bool aligned =
      options_.pruning && W > 0 && bucket_width % W == 0 &&
      lo == FloorWindowStart(lo, W) &&
      hi <= std::numeric_limits<int64_t>::max() - bucket_width &&
      (hi - lo) / bucket_width < kMaxPushdownWindows;
  Status st = ReadOnSnapshot(stats, [&](const ReadSnapshot& snap,
                                        QueryStats* local) -> Status {
    // Point-reads [flo, fhi] and appends its non-empty buckets, aligned to
    // `flo` (a bucket boundary on both paths).
    auto bucketize = [&](int64_t flo, int64_t fhi) -> Status {
      if (flo > fhi) return Status::OK();
      return QuerySnapshot(snap, flo, fhi, local, [&](const DataPoint& p) {
        AccumulateIntoBuckets(p, flo, bucket_width, out);
      });
    };
    if (!aligned) {
      SEPLSM_RETURN_IF_ERROR(bucketize(lo, hi));
    } else {
      SummaryReaderCache readers;
      int64_t fb_start = 0;
      bool has_fb = false;
      for (int64_t bs = lo; bs <= hi; bs += bucket_width) {
        const int64_t be = bs + bucket_width;  // exclusive
        // A bucket truncated by `hi` has no full summary coverage.
        bool servable = be - 1 <= hi;
        for (int64_t ws = bs; ws < be && servable; ws += W) {
          auto r = WindowServableBySummaries(snap, ws, ws + W - 1, &readers,
                                             local);
          if (!r.ok()) return r.status();
          servable = r.value();
        }
        if (!servable) {
          if (!has_fb) {
            fb_start = bs;
            has_fb = true;
          }
          continue;
        }
        if (has_fb) {
          SEPLSM_RETURN_IF_ERROR(bucketize(fb_start, bs - 1));
          has_fb = false;
        }
        Aggregates agg;
        for (int64_t ws = bs; ws < be; ws += W) {
          MergeWindowSummaries(snap, ws, ws + W - 1, &readers, &agg, local);
        }
        if (agg.count > 0) {
          TimeBucket bucket;
          bucket.bucket_start = bs;
          bucket.bucket_end = be;
          bucket.aggregates = agg;
          out->push_back(bucket);
        }
      }
      if (has_fb) SEPLSM_RETURN_IF_ERROR(bucketize(fb_start, hi));
    }
    for (const auto& bucket : *out) {
      local->points_returned += bucket.aggregates.count;
    }
    return Status::OK();
  });
  if (!st.ok()) out->clear();
  return st;
}

int64_t TsEngine::MaxPersistedGenerationTime() {
  std::lock_guard<std::mutex> lock(mutex_);
  return MaxPersistedLocked();
}

int64_t TsEngine::MaxSeenGenerationTime() {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_seen_tg_;
}

Status TsEngine::SwitchPolicy(const PolicyConfig& config) {
  if (config.memtable_capacity == 0) {
    return Status::InvalidArgument("memtable_capacity must be positive");
  }
  if (config.kind == PolicyKind::kSeparation &&
      (config.nseq_capacity == 0 ||
       config.nseq_capacity >= config.memtable_capacity)) {
    return Status::InvalidArgument(
        "separation policy requires 0 < nseq_capacity < memtable_capacity");
  }
  Status st;
  {
    // The span covers the whole switch including the policy-mandated drain
    // — the cost Fig. 10's π_adaptive pays at every transition.
    telemetry::ScopedSpan span(telemetry_, options_.clock,
                               telemetry::SpanType::kPolicySwitch,
                               telemetry_series_id_);
    std::unique_lock<std::mutex> lock(mutex_);
    // Freeze under the old policy and switch in the same lock hold: each
    // batch keeps its source tag, so it is installed with the old policy's
    // semantics, while appends racing the install already land in the new
    // MemTables instead of being dropped with the old ones.
    FreezeMemTablesLocked();
    options_.policy = config;
    if (config.kind == PolicyKind::kConventional) {
      c0_ = std::make_unique<storage::MemTable>(config.memtable_capacity);
      cseq_.reset();
      cnonseq_.reset();
    } else {
      cseq_ = std::make_unique<storage::MemTable>(config.nseq_capacity);
      cnonseq_ = std::make_unique<storage::MemTable>(config.nonseq_capacity());
      c0_.reset();
    }
    if (telemetry::Active(telemetry_)) {
      telemetry_->registry()
          .GetCounter(config.kind == PolicyKind::kSeparation
                          ? "policy_switches_to_separation"
                          : "policy_switches_to_conventional")
          ->Add(1);
    }
    st = InstallFrozenLocked(lock);
  }
  CollectDeferredDeletes();
  return st;
}

Metrics TsEngine::GetMetrics() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Refresh the per-level occupancy gauges; the compaction counters in the
  // same structs accumulate at compaction time.
  if (metrics_.level_stats.size() < version_.num_levels()) {
    metrics_.level_stats.resize(version_.num_levels());
  }
  for (size_t n = 0; n < version_.num_levels(); ++n) {
    LevelStats& l = metrics_.level_stats[n];
    const std::vector<storage::FilePtr>& files = version_.level(n);
    l.files = files.size();
    l.bytes = 0;
    l.points = 0;
    for (const auto& f : files) {
      l.bytes += f->file_bytes;
      l.points += f->point_count;
    }
    // Debt: bytes of the files compaction must move out of this level to
    // drop back under its trigger (the oldest ones — what kOldest picks).
    // The deepest level never compacts out, so it carries no debt.
    l.compaction_debt_bytes = 0;
    if (n + 1 < version_.num_levels() && !files.empty()) {
      const size_t trigger = LevelTriggerLocked(n);
      if (files.size() >= trigger) {
        const size_t excess =
            std::min(files.size(), files.size() - trigger + 1);
        for (size_t i = 0; i < excess; ++i) {
          l.compaction_debt_bytes += files[i]->file_bytes;
        }
      }
    }
  }
  return metrics_;
}

EngineHealth TsEngine::GetHealth() {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineHealth h;
  if (background_error_set_) {
    h.background_error = background_error_.ToString();
  }
  h.wal_enabled = options_.enable_wal;
  h.wal_open = wal_ != nullptr;
  h.wal_tail_truncations = metrics_.wal_tail_truncations;
  h.committer_registered = wal_handle_ != nullptr;
  if (options_.wal_committer != nullptr) {
    const storage::GroupCommitter::Stats cs =
        options_.wal_committer->GetStats();
    h.committer_commits = cs.commits;
    h.committer_syncs = cs.syncs;
  }
  h.pending_flushes = pending_flushes_.size();
  h.level0_files = version_.level0().size();
  h.writer_stalls = metrics_.writer_stalls;
  h.ok = !background_error_set_ &&
         (!options_.enable_wal || wal_ != nullptr || shutting_down_);
  return h;
}

std::string EngineHealth::ToJson() const {
  std::ostringstream out;
  out << "{\"ok\":" << (ok ? "true" : "false")
      << ",\"background_error\":\"" << JsonEscape(background_error) << "\""
      << ",\"wal\":{\"enabled\":" << (wal_enabled ? "true" : "false")
      << ",\"open\":" << (wal_open ? "true" : "false")
      << ",\"tail_truncations\":" << wal_tail_truncations << "}"
      << ",\"committer\":{\"registered\":"
      << (committer_registered ? "true" : "false")
      << ",\"commits\":" << committer_commits
      << ",\"syncs\":" << committer_syncs << "}"
      << ",\"pending_flushes\":" << pending_flushes
      << ",\"level0_files\":" << level0_files
      << ",\"writer_stalls\":" << writer_stalls << "}";
  return out.str();
}

std::string TsEngine::DebugLsmJson(size_t max_files_per_level) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"num_levels\":" << version_.num_levels() << ",\"levels\":[";
  for (size_t n = 0; n < version_.num_levels(); ++n) {
    const std::vector<storage::FilePtr>& files = version_.level(n);
    uint64_t bytes = 0, points = 0;
    int64_t min_t = std::numeric_limits<int64_t>::max();
    int64_t max_t = std::numeric_limits<int64_t>::min();
    // Intra-level overlap: redundant span length as a fraction of the
    // total span the files claim (0 = disjoint, as a sorted run must be;
    // stacked levels report how much of their data is multiply covered).
    uint64_t covered = 0;
    std::vector<std::pair<int64_t, int64_t>> spans;
    spans.reserve(files.size());
    for (const auto& f : files) {
      bytes += f->file_bytes;
      points += f->point_count;
      min_t = std::min(min_t, f->min_generation_time);
      max_t = std::max(max_t, f->max_generation_time);
      covered += static_cast<uint64_t>(f->max_generation_time -
                                       f->min_generation_time) + 1;
      spans.emplace_back(f->min_generation_time, f->max_generation_time);
    }
    std::sort(spans.begin(), spans.end());
    uint64_t union_len = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [slo, shi] : spans) {
      if (!open || slo > cur_hi + 1) {
        if (open) {
          union_len += static_cast<uint64_t>(cur_hi - cur_lo) + 1;
        }
        cur_lo = slo;
        cur_hi = shi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, shi);
      }
    }
    if (open) union_len += static_cast<uint64_t>(cur_hi - cur_lo) + 1;
    const double overlap_fraction =
        covered == 0 ? 0.0
                     : static_cast<double>(covered - union_len) /
                           static_cast<double>(covered);
    const bool deepest = n + 1 == version_.num_levels();
    uint64_t debt = 0;
    if (!deepest && !files.empty()) {
      const size_t trigger = LevelTriggerLocked(n);
      if (files.size() >= trigger) {
        const size_t excess =
            std::min(files.size(), files.size() - trigger + 1);
        for (size_t i = 0; i < excess; ++i) debt += files[i]->file_bytes;
      }
    }
    if (n > 0) out << ",";
    out << "{\"level\":" << n << ",\"layout\":\""
        << (version_.layout(n) == storage::LevelLayout::kSorted ? "sorted"
                                                                : "stacked")
        << "\",\"files\":" << files.size() << ",\"bytes\":" << bytes
        << ",\"points\":" << points;
    if (!files.empty()) {
      out << ",\"min_time\":" << min_t << ",\"max_time\":" << max_t;
    }
    out << ",\"overlap_fraction\":" << overlap_fraction
        << ",\"compaction_trigger\":" << (deepest ? 0 : LevelTriggerLocked(n))
        << ",\"compaction_debt_bytes\":" << debt << ",\"file_list\":[";
    const size_t shown = std::min(files.size(), max_files_per_level);
    for (size_t i = 0; i < shown; ++i) {
      if (i > 0) out << ",";
      out << "{\"file\":" << files[i]->file_number
          << ",\"points\":" << files[i]->point_count
          << ",\"min_time\":" << files[i]->min_generation_time
          << ",\"max_time\":" << files[i]->max_generation_time << "}";
    }
    out << "],\"files_omitted\":" << files.size() - shown << "}";
  }
  out << "],\"pending_flushes\":" << pending_flushes_.size() << "}";
  return out.str();
}

void TsEngine::RegisterExporterEndpoints() {
  obs::HttpExporter* exporter = options_.http_exporter.get();
  if (exporter == nullptr) return;
  const std::string series =
      options_.series_name.empty() ? options_.dir : options_.series_name;
  auto add = [&](const std::string& path, obs::HttpExporter::Handler h) {
    exporter->RegisterHandler(path, std::move(h));
    exporter_paths_.push_back(path);
  };
  add("/metrics", [this, series](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = GetMetrics().ToPrometheus(series);
    if (telemetry::Active(telemetry_)) {
      // Exclude engine-counter names: this document already declares those
      // families above, and one exposition must not declare a family twice.
      resp.body +=
          telemetry_->registry().ToPrometheus(series, Metrics::CounterNames());
    }
    return resp;
  });
  add("/stats", [this, series](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response resp;
    resp.content_type = "application/json";
    std::ostringstream body;
    body << "{\"series\":\"" << JsonEscape(series) << "\",\"engine\":"
         << GetMetrics().ToJson();
    if (telemetry::Active(telemetry_)) {
      body << ",\"telemetry\":" << telemetry_->registry().ToJson();
    }
    body << ",\"health\":" << GetHealth().ToJson() << "}";
    resp.body = body.str();
    return resp;
  });
  add("/healthz", [this](const obs::HttpExporter::Request&) {
    const EngineHealth h = GetHealth();
    obs::HttpExporter::Response resp;
    resp.status = h.ok ? 200 : 503;
    resp.content_type = "application/json";
    resp.body = h.ToJson();
    return resp;
  });
  add("/debug/lsm", [this](const obs::HttpExporter::Request&) {
    obs::HttpExporter::Response resp;
    resp.content_type = "application/json";
    resp.body = DebugLsmJson();
    return resp;
  });
}

void TsEngine::DeregisterExporterEndpoints() {
  if (exporter_paths_.empty()) return;
  for (const auto& path : exporter_paths_) {
    options_.http_exporter->DeregisterHandler(path);
  }
  exporter_paths_.clear();
}

Status TsEngine::CheckInvariants() {
  std::lock_guard<std::mutex> lock(mutex_);
  SEPLSM_RETURN_IF_ERROR(version_.CheckInvariants());
  if (options_.policy.kind == PolicyKind::kSeparation && !cseq_->empty() &&
      !version_.run().empty()) {
    // Every in-order buffered point must sit above the persisted run.
    if (cseq_->min_generation_time() <=
            version_.run().back()->max_generation_time &&
        !options_.background_mode) {
      return Status::Internal("C_seq holds points at or below LAST(R)");
    }
  }
  return Status::OK();
}

size_t TsEngine::RunFileCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_.run().size();
}

size_t TsEngine::Level0FileCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_.level0().size();
}

size_t TsEngine::LevelFileCount(size_t level) {
  std::lock_guard<std::mutex> lock(mutex_);
  return level < version_.num_levels() ? version_.level(level).size() : 0;
}

void TsEngine::MaybeRecordTimelineLocked(uint64_t appended) {
  if (!options_.record_wa_timeline) return;
  timeline_batch_accum_ += appended;
  if (timeline_batch_accum_ >= options_.wa_timeline_batch) {
    timeline_batch_accum_ = 0;
    metrics_.wa_timeline.push_back(metrics_.points_written_total());
  }
}

}  // namespace seplsm::engine
