#ifndef SEPLSM_STORAGE_WAL_COMMITTER_H_
#define SEPLSM_STORAGE_WAL_COMMITTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/point.h"
#include "common/status.h"
#include "storage/wal.h"
#include "telemetry/telemetry.h"

namespace seplsm::storage {

/// Group commit for write-ahead logs (ROADMAP item 1; the `group_commit()`
/// loop pattern): concurrent appends — from many threads and many series —
/// enqueue their point and wait; a dedicated commit thread drains the queue,
/// writes ONE multi-point CRC-framed record per WAL, issues ONE fsync per
/// WAL, and wakes every waiter with the durability verdict. At N concurrent
/// writers that is ~1/N of the fsyncs of sync-every-append for the same
/// guarantee: an OK Commit means the point is on the device.
///
/// Shared across `MultiSeriesDB` through `engine::Options::wal_committer`
/// exactly like the job scheduler and telemetry hubs: engines register a
/// `Handle` carrying their `WalWriter`, so one commit round can cover
/// several series' logs (points are grouped per handle; each log still gets
/// its own record + fsync, but waiters overlap instead of serializing).
///
/// Usage from an engine (see TsEngine::Append):
///   Ticket t = committer->Enqueue(handle, point);   // under engine mutex
///   ... insert into MemTable, release engine mutex ...
///   Status st = committer->Wait(t);                 // outside engine mutex
/// Enqueue order equals WAL record order, so the log is consistent with
/// MemTable contents; waiting outside the engine mutex is what lets other
/// writers pile into the same commit round.
///
/// Thread-safe. The committer never takes an engine mutex, so engines may
/// call every method while holding theirs.
/// One waiter's slot in a commit round: completed (under the committer's
/// mutex) with the round's durability verdict. Shared between the enqueuing
/// thread and the commit thread, hence the shared_ptr Ticket.
struct CommitWait {
  bool done = false;
  Status status;
};

class GroupCommitter {
 public:
  struct Options {
    /// Backpressure: Enqueue blocks while this many points are queued.
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

  /// Joins the commit thread. Every handle must be deregistered first.
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

  /// Queues `count` points under ONE lock hold with ONE shared ticket — the
  /// whole batch lands in the same commit round (CommitLoop drains the
  /// entire queue per round, so entries pushed together are never split
  /// across fsyncs) and the caller pays one Enqueue/Wait pair regardless of
  /// batch size. Blocks until the queue has room for at least one point,
  /// then admits the whole batch (bounded overshoot of max_queue_points by
  /// one batch, so a batch larger than the queue cap cannot deadlock).
  /// Returns null on shutdown or when count == 0.
  Ticket EnqueueBatch(Handle* handle, const DataPoint* points, size_t count);

  /// Blocks until the ticket's commit round finished; returns the round's
  /// durability verdict (the fsync Status on failure).
  Status Wait(const Ticket& ticket);

  /// Enqueue + Wait for callers without their own lock ordering concerns.
  Status Commit(Handle* handle, const DataPoint& point);

  /// Blocks until no queued or in-flight entry references `handle`. With
  /// the caller holding its own write lock (so nothing new is enqueued),
  /// the handle's writer is untouchable after this returns — the rotation
  /// precondition.
  void Barrier(Handle* handle);

  /// Wires fsync spans (SpanType::kWalSync) and committer counters into a
  /// telemetry hub. Idempotent per hub; pass the hub shared by the engines.
  void AttachTelemetry(std::shared_ptr<telemetry::Telemetry> telemetry);

  Stats GetStats() const;

 private:
  struct Entry {
    Handle* handle;
    DataPoint point;
    Ticket wait;
    WalWriter* wal = nullptr;  ///< read under mutex_ as a round takes it
  };

  void CommitLoop();
  /// Writes + fsyncs one batch of entries (called without mutex_ held),
  /// then completes their tickets.
  void CommitBatch(std::vector<Entry>* batch);

  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable worker_cv_;   ///< wakes the commit thread
  std::condition_variable done_cv_;     ///< wakes waiters + Barrier
  std::condition_variable space_cv_;    ///< wakes producers blocked on queue
  std::deque<Entry> queue_;
  bool stop_ = false;
  Stats stats_;

  /// Telemetry wiring (set once by AttachTelemetry; read by the thread).
  std::shared_ptr<telemetry::Telemetry> telemetry_;
  telemetry::Counter* ctr_group_commits_ = nullptr;
  telemetry::Counter* ctr_group_points_ = nullptr;
  telemetry::Counter* ctr_wal_fsyncs_ = nullptr;

  std::vector<std::unique_ptr<Handle>> handles_;
  std::thread thread_;
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
