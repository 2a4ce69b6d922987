#ifndef SEPLSM_STORAGE_WAL_COMMITTER_H_
#define SEPLSM_STORAGE_WAL_COMMITTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/point.h"
#include "common/status.h"
#include "storage/wal.h"
#include "telemetry/telemetry.h"

namespace seplsm::storage {

/// Group commit for write-ahead logs (ROADMAP item 1; the `group_commit()`
/// loop pattern): concurrent appends — from many threads and many series —
/// enqueue their batch and wait; one commit round writes ONE multi-point
/// CRC-framed record per WAL, issues ONE fsync per WAL, and completes every
/// ticket in the round with the durability verdict. At N concurrent writers
/// that is ~1/N of the fsyncs of sync-every-append for the same guarantee:
/// an OK Wait means the batch is on the device.
///
/// The committer owns no thread. Rounds are led by the threads that would
/// otherwise block (the LevelDB/RocksDB write-queue pattern): a thread in
/// Wait, Barrier, Deregister, the destructor, or EnqueueBatch on a full
/// queue runs a round itself whenever none is running — it takes the whole
/// queue, writes and syncs it without the committer's mutex, and completes
/// the tickets — and otherwise waits for the running round to finish.
/// Everything that arrives while a round runs rides the next one, so group
/// size adapts to contention with no tuning knob. An entry whose ticket is
/// never waited on is written by the next round anyone leads.
///
/// Shared across `MultiSeriesDB` through `engine::Options::wal_committer`
/// exactly like the job scheduler and telemetry hubs: engines register a
/// `Handle` carrying their `WalWriter`, so one commit round can cover
/// several series' logs (batches are grouped per handle; each log still
/// gets its own record + fsync, but waiters overlap instead of
/// serializing).
///
/// Usage from an engine (see TsEngine::AppendBatch):
///   Ticket t = committer->EnqueueBatch(handle, points, n);  // engine mutex
///   ... insert into MemTable, release engine mutex ...
///   Status st = committer->Wait(t);                // outside engine mutex
/// Enqueue order equals WAL record order, so the log is consistent with
/// MemTable contents; waiting outside the engine mutex is what lets other
/// writers pile into the same commit round.
///
/// Thread-safe. The committer never takes an engine mutex, so engines may
/// call every method while holding theirs (a round led from there writes
/// other engines' logs, never their state).
/// One waiter's slot in a commit round: completed (under the committer's
/// mutex) with the round's durability verdict. Shared between the enqueuing
/// thread and the round's leader, hence the shared_ptr Ticket.
struct CommitWait {
  bool done = false;
  Status status;
};

class GroupCommitter {
 public:
  struct Options {
    /// Backpressure: Enqueue blocks (or leads a round) while this many
    /// points are queued.
    size_t max_queue_points = 4096;
    /// Cap on points per WAL record (a commit round exceeding it writes
    /// multiple records before the single fsync).
    size_t max_record_points = 1024;
    /// Clock for fsync-latency spans (not owned).
    Clock* clock = SystemClock::Default();
  };

  /// Cumulative committer statistics (all monotone).
  struct Stats {
    uint64_t commits = 0;        ///< points acknowledged durable
    uint64_t syncs = 0;          ///< fsyncs issued
    uint64_t groups = 0;         ///< per-handle groups written
    uint64_t records = 0;        ///< WAL records written
    uint64_t max_group_points = 0;  ///< largest single group
    uint64_t durable_bytes = 0;  ///< WAL bytes covered by successful fsyncs
  };

  class Handle;

  /// A waiter's slot in a commit round. Obtained from Enqueue, redeemed by
  /// Wait exactly once.
  using Ticket = std::shared_ptr<CommitWait>;

  GroupCommitter();  // default Options
  explicit GroupCommitter(Options options);

  /// Commits whatever is still queued. Every handle must be deregistered
  /// first.
  ~GroupCommitter();

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Registers a WAL with the committer. The writer must stay valid until
  /// SetWriter replaces it (under Barrier quiescence) or Deregister.
  Handle* Register(WalWriter* wal);

  /// Swaps the handle's writer (WAL rotation). The caller must hold its own
  /// write lock and have Barriered first, so no round is touching the old
  /// writer and no entry for this handle is queued.
  void SetWriter(Handle* handle, WalWriter* wal);

  /// Barrier + removes the handle. The Handle pointer is dead afterwards.
  void Deregister(Handle* handle);

  /// Queues one point for the handle's WAL and returns the ticket to wait
  /// on: EnqueueBatch(handle, &point, 1).
  Ticket Enqueue(Handle* handle, const DataPoint& point);

  /// Queues a copy of `count` points as ONE entry with ONE ticket — the
  /// whole batch lands in the same commit round (a round takes the entire
  /// queue) and the caller pays one Enqueue/Wait pair regardless of batch
  /// size. The entry owns its points, so a caller that never Waits (say,
  /// its MemTable insert failed) leaves nothing dangling. While
  /// max_queue_points are queued it leads a round (or waits for the
  /// running one) to make room, then admits the whole batch (bounded
  /// overshoot by one batch, so a batch larger than the cap cannot
  /// deadlock). Returns null when count == 0.
  Ticket EnqueueBatch(Handle* handle, const DataPoint* points, size_t count);

  /// Blocks until the ticket's commit round finished, leading rounds while
  /// none runs; returns the round's durability verdict (the fsync Status
  /// on failure).
  Status Wait(const Ticket& ticket);

  /// Enqueue + Wait for callers without their own lock ordering concerns.
  Status Commit(Handle* handle, const DataPoint& point);

  /// Blocks (leading rounds while none runs) until no queued or in-flight
  /// entry references `handle`. With the caller holding its own write lock
  /// (so nothing new is enqueued), the handle's writer is untouchable after
  /// this returns — the rotation precondition.
  void Barrier(Handle* handle);

  /// Wires fsync spans (SpanType::kWalSync) and committer counters into a
  /// telemetry hub. Idempotent per hub; pass the hub shared by the engines.
  void AttachTelemetry(std::shared_ptr<telemetry::Telemetry> telemetry);

  Stats GetStats() const;

 private:
  /// One EnqueueBatch call: its points, in order, and its ticket.
  struct Entry {
    Handle* handle;
    std::vector<DataPoint> points;
    Ticket wait;
    WalWriter* wal = nullptr;  ///< read under mutex_ as a round takes it
  };

  /// Where a round reports fsync spans and counters (all null until
  /// AttachTelemetry); copied under mutex_ when a round starts.
  struct Sinks {
    telemetry::Telemetry* telemetry = nullptr;
    telemetry::Counter* group_commits = nullptr;
    telemetry::Counter* group_points = nullptr;
    telemetry::Counter* fsyncs = nullptr;
  };

  /// One step of a blocking wait: runs a round when none is running (the
  /// queue is then non-empty: every caller waits on something queued or in
  /// flight), otherwise waits for the running round to finish.
  void LeadOrWaitLocked(std::unique_lock<std::mutex>& lock);
  /// Writes + fsyncs one round's entries (called without mutex_ held) and
  /// sets each ticket's status; returns the round's statistics.
  Stats CommitBatch(std::vector<Entry>* batch, const Sinks& sinks);

  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< a round finished
  std::vector<Entry> queue_;
  size_t queued_points_ = 0;
  bool round_running_ = false;
  Stats stats_;

  /// Telemetry wiring (set once by AttachTelemetry).
  std::shared_ptr<telemetry::Telemetry> telemetry_;
  Sinks sinks_;

  std::vector<std::unique_ptr<Handle>> handles_;
};

/// Per-registrant state: the WAL to write and the count of entries queued
/// or in flight (Barrier waits for it to hit zero). Opaque outside the
/// committer.
class GroupCommitter::Handle {
 public:
  explicit Handle(WalWriter* wal) : wal_(wal) {}

 private:
  friend class GroupCommitter;
  WalWriter* wal_;
  size_t pending_ = 0;  ///< guarded by the committer's mutex_
};

}  // namespace seplsm::storage

#endif  // SEPLSM_STORAGE_WAL_COMMITTER_H_
