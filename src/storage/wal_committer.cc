#include "storage/wal_committer.h"

#include <algorithm>
#include <cassert>

namespace seplsm::storage {

GroupCommitter::GroupCommitter() : GroupCommitter(Options()) {}

GroupCommitter::GroupCommitter(Options options)
    : options_(options), thread_([this] { CommitLoop(); }) {}

GroupCommitter::~GroupCommitter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  space_cv_.notify_all();
  thread_.join();
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
  done_cv_.wait(lock, [&] { return handle->pending_ == 0; });
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
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [&] {
    return stop_ || queue_.size() < options_.max_queue_points;
  });
  if (stop_) return nullptr;
  Ticket ticket = std::make_shared<CommitWait>();
  // All entries share one ticket; pending_ and the done flag tolerate the
  // N-fold bookkeeping (done is idempotent, pending_ is ±N symmetric).
  // Pushing the whole batch under this single lock hold is what guarantees
  // one commit round covers it: the ticket must not complete while part of
  // the batch is still queued.
  for (size_t i = 0; i < count; ++i) {
    queue_.push_back(Entry{handle, points[i], ticket});
  }
  handle->pending_ += count;
  worker_cv_.notify_one();
  return ticket;
}

Status GroupCommitter::Wait(const Ticket& ticket) {
  if (ticket == nullptr) return Status::Aborted("wal committer stopped");
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return ticket->done; });
  return ticket->status;
}

Status GroupCommitter::Commit(Handle* handle, const DataPoint& point) {
  return Wait(Enqueue(handle, point));
}

void GroupCommitter::Barrier(Handle* handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return handle->pending_ == 0; });
}

void GroupCommitter::AttachTelemetry(
    std::shared_ptr<telemetry::Telemetry> telemetry) {
  if (!telemetry::Active(telemetry.get())) return;
  std::lock_guard<std::mutex> lock(mutex_);
  telemetry_ = std::move(telemetry);
  ctr_group_commits_ = telemetry_->registry().GetCounter("wal_group_commits");
  ctr_group_points_ = telemetry_->registry().GetCounter("wal_group_points");
  ctr_wal_fsyncs_ = telemetry_->registry().GetCounter("wal_fsyncs");
}

GroupCommitter::Stats GroupCommitter::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void GroupCommitter::CommitLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    worker_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // Stragglers window: writers woken by the previous round's ack are
    // usually a few instructions from their next Enqueue. While the queue
    // is still growing, yield (bounded) so they board this round instead
    // of paying their own fsync — microseconds spent against the ~100µs
    // fsync they would otherwise each trigger. Matters most when cores
    // are scarce and the wakeup-to-enqueue path gets serialized.
    size_t seen = 0;
    for (int spin = 0; spin < 4 && queue_.size() > seen && !stop_; ++spin) {
      seen = queue_.size();
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
    // Take the whole queue as one commit round: every point that arrived
    // while the previous fsync ran rides the next one — group size adapts
    // to contention with no tuning.
    std::vector<Entry> batch;
    batch.reserve(queue_.size());
    while (!queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      batch.back().wal = batch.back().handle->wal_;
      queue_.pop_front();
    }
    space_cv_.notify_all();
    lock.unlock();
    CommitBatch(&batch);
    lock.lock();
    for (Entry& e : batch) {
      --e.handle->pending_;
      e.wait->done = true;
    }
    done_cv_.notify_all();
  }
}

void GroupCommitter::CommitBatch(std::vector<Entry>* batch) {
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
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.handle == e.handle) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(Group{e.handle, e.wal, {}, {}});
      g = &groups.back();
    }
    g->points.push_back(e.point);
    g->waits.push_back(e.wait.get());
  }

  Stats delta;
  telemetry::Telemetry* telemetry;
  telemetry::Counter* ctr_commits;
  telemetry::Counter* ctr_points;
  telemetry::Counter* ctr_fsyncs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    telemetry = telemetry_.get();
    ctr_commits = ctr_group_commits_;
    ctr_points = ctr_group_points_;
    ctr_fsyncs = ctr_wal_fsyncs_;
  }

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
        if (telemetry != nullptr) {
          telemetry->RecordSpan(telemetry::SpanType::kWalSync,
                                /*series_id=*/0, sync_start, sync_end,
                                /*points=*/g.points.size(),
                                /*bytes=*/wal->bytes_written() - bytes_before);
        }
      }
    }
    for (size_t i = 0; i < g.waits.size(); ++i) g.waits[i]->status = st;
    ++delta.groups;
    delta.records += records;
    delta.max_group_points =
        std::max(delta.max_group_points, static_cast<uint64_t>(g.points.size()));
    if (st.ok()) {
      ++delta.syncs;
      delta.commits += g.points.size();
      delta.durable_bytes += wal->bytes_written() - bytes_before;
      if (ctr_commits != nullptr) {
        ctr_commits->Add(1);
        ctr_points->Add(g.points.size());
        ctr_fsyncs->Add(1);
      }
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.commits += delta.commits;
  stats_.syncs += delta.syncs;
  stats_.groups += delta.groups;
  stats_.records += delta.records;
  stats_.durable_bytes += delta.durable_bytes;
  stats_.max_group_points =
      std::max(stats_.max_group_points, delta.max_group_points);
}

}  // namespace seplsm::storage
