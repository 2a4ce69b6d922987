#include "storage/wal_committer.h"

#include <algorithm>
#include <cassert>

namespace seplsm::storage {

GroupCommitter::GroupCommitter() : GroupCommitter(Options()) {}

GroupCommitter::GroupCommitter(Options options) : options_(options) {}

GroupCommitter::~GroupCommitter() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!queue_.empty() || round_running_) LeadOrWaitLocked(lock);
  }
  assert(handles_.empty() && "engines must Deregister before destruction");
}

GroupCommitter::Handle* GroupCommitter::Register(WalWriter* wal) {
  std::lock_guard<std::mutex> lock(mutex_);
  handles_.push_back(std::make_unique<Handle>(wal));
  return handles_.back().get();
}

void GroupCommitter::SetWriter(Handle* handle, WalWriter* wal) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(handle->pending_ == 0 && "SetWriter requires Barrier quiescence");
  handle->wal_ = wal;
}

void GroupCommitter::Deregister(Handle* handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (handle->pending_ != 0) LeadOrWaitLocked(lock);
  handles_.erase(std::find_if(handles_.begin(), handles_.end(),
                              [&](const std::unique_ptr<Handle>& h) {
                                return h.get() == handle;
                              }));
}

GroupCommitter::Ticket GroupCommitter::Enqueue(Handle* handle,
                                               const DataPoint& point) {
  return EnqueueBatch(handle, &point, 1);
}

GroupCommitter::Ticket GroupCommitter::EnqueueBatch(Handle* handle,
                                                    const DataPoint* points,
                                                    size_t count) {
  if (count == 0) return nullptr;
  // Copy and allocate before taking the lock; the round that writes the
  // entry may run long after this caller has moved on.
  Entry entry{handle, std::vector<DataPoint>(points, points + count),
              std::make_shared<CommitWait>()};
  Ticket ticket = entry.wait;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!queue_.empty() && queued_points_ >= options_.max_queue_points) {
    LeadOrWaitLocked(lock);
  }
  // One entry per batch: a round takes the whole queue, so the ticket can
  // only complete once every point of the batch is synced.
  queue_.push_back(std::move(entry));
  queued_points_ += count;
  ++handle->pending_;
  return ticket;
}

Status GroupCommitter::Wait(const Ticket& ticket) {
  if (ticket == nullptr) return Status::Aborted("wal committer: null ticket");
  std::unique_lock<std::mutex> lock(mutex_);
  while (!ticket->done) LeadOrWaitLocked(lock);
  return ticket->status;
}

Status GroupCommitter::Commit(Handle* handle, const DataPoint& point) {
  return Wait(Enqueue(handle, point));
}

void GroupCommitter::Barrier(Handle* handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (handle->pending_ != 0) LeadOrWaitLocked(lock);
}

void GroupCommitter::AttachTelemetry(
    std::shared_ptr<telemetry::Telemetry> telemetry) {
  if (!telemetry::Active(telemetry.get())) return;
  std::lock_guard<std::mutex> lock(mutex_);
  telemetry_ = std::move(telemetry);
  sinks_.telemetry = telemetry_.get();
  sinks_.group_commits =
      telemetry_->registry().GetCounter("wal_group_commits");
  sinks_.group_points = telemetry_->registry().GetCounter("wal_group_points");
  sinks_.fsyncs = telemetry_->registry().GetCounter("wal_fsyncs");
}

GroupCommitter::Stats GroupCommitter::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void GroupCommitter::LeadOrWaitLocked(std::unique_lock<std::mutex>& lock) {
  if (round_running_) {
    done_cv_.wait(lock);
    return;
  }
  assert(!queue_.empty() && "a blocked caller waits on a queued entry");
  // Take the whole queue as one commit round: every batch that arrived
  // while the previous round ran rides this one.
  round_running_ = true;
  std::vector<Entry> batch;
  batch.swap(queue_);
  queued_points_ = 0;
  for (Entry& e : batch) e.wal = e.handle->wal_;
  const Sinks sinks = sinks_;
  lock.unlock();
  const Stats delta = CommitBatch(&batch, sinks);
  lock.lock();
  for (Entry& e : batch) {
    --e.handle->pending_;
    e.wait->done = true;
  }
  stats_.commits += delta.commits;
  stats_.syncs += delta.syncs;
  stats_.groups += delta.groups;
  stats_.records += delta.records;
  stats_.durable_bytes += delta.durable_bytes;
  stats_.max_group_points =
      std::max(stats_.max_group_points, delta.max_group_points);
  round_running_ = false;
  done_cv_.notify_all();
}

GroupCommitter::Stats GroupCommitter::CommitBatch(std::vector<Entry>* batch,
                                                  const Sinks& sinks) {
  // Group entries per handle, preserving queue order within each group (the
  // WAL record order must match the order MemTable inserts were acked in).
  struct Group {
    Handle* handle;
    WalWriter* wal;  ///< one per round: taken in one mutex_ hold
    std::vector<DataPoint> points;
    std::vector<CommitWait*> waits;
  };
  std::vector<Group> groups;
  for (Entry& e : *batch) {
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& c) {
      return c.handle == e.handle;
    });
    if (g == groups.end()) {
      // A handle's first batch of the round: its points become the group's.
      groups.push_back(
          Group{e.handle, e.wal, std::move(e.points), {e.wait.get()}});
    } else {
      g->points.insert(g->points.end(), e.points.begin(), e.points.end());
      g->waits.push_back(e.wait.get());
    }
  }

  Stats delta;
  for (Group& g : groups) {
    WalWriter* wal = g.wal;
    Status st;
    uint64_t bytes_before = 0;
    uint64_t records = 0;
    if (wal == nullptr) {
      st = Status::IOError("wal committer: handle has no writer");
    } else {
      bytes_before = wal->bytes_written();
      // One record per max_record_points chunk, then a single fsync for
      // the whole group.
      for (size_t off = 0; st.ok() && off < g.points.size();
           off += options_.max_record_points) {
        size_t n =
            std::min(options_.max_record_points, g.points.size() - off);
        st = wal->AppendBatch(g.points.data() + off, n);
        if (st.ok()) ++records;
      }
      if (st.ok()) {
        const int64_t sync_start = options_.clock->NowNanos();
        st = wal->Sync();
        const int64_t sync_end = options_.clock->NowNanos();
        if (sinks.telemetry != nullptr) {
          sinks.telemetry->RecordSpan(
              telemetry::SpanType::kWalSync, /*series_id=*/0, sync_start,
              sync_end, /*points=*/g.points.size(),
              /*bytes=*/wal->bytes_written() - bytes_before);
        }
      }
    }
    for (CommitWait* w : g.waits) w->status = st;
    ++delta.groups;
    delta.records += records;
    delta.max_group_points =
        std::max(delta.max_group_points, static_cast<uint64_t>(g.points.size()));
    if (st.ok()) {
      ++delta.syncs;
      delta.commits += g.points.size();
      delta.durable_bytes += wal->bytes_written() - bytes_before;
      if (sinks.group_commits != nullptr) {
        sinks.group_commits->Add(1);
        sinks.group_points->Add(g.points.size());
        sinks.fsyncs->Add(1);
      }
    }
  }
  return delta;
}

}  // namespace seplsm::storage
