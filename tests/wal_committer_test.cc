#include "storage/wal_committer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/point.h"
#include "env/fault_env.h"
#include "env/mem_env.h"
#include "storage/wal.h"

namespace seplsm::storage {
namespace {

DataPoint MakePoint(int64_t tg) {
  DataPoint p;
  p.generation_time = tg;
  p.arrival_time = tg + 1;
  p.value = tg * 2.0;
  return p;
}

std::unique_ptr<WalWriter> MustOpen(Env* env, const std::string& path) {
  auto w = WalWriter::Open(env, path);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(*w);
}

std::vector<DataPoint> MustRead(Env* env, const std::string& path) {
  bool truncated = false;
  auto pts = ReadWal(env, path, &truncated);
  EXPECT_TRUE(pts.ok()) << pts.status().ToString();
  EXPECT_FALSE(truncated);
  return *pts;
}

TEST(GroupCommitterTest, SingleCommitIsDurableAndReadable) {
  MemEnv env;
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());

  ASSERT_TRUE(committer.Commit(handle, MakePoint(7)).ok());
  committer.Deregister(handle);

  // An OK Commit means synced: readable through a fresh handle with no
  // further Flush/Sync on the writer.
  auto pts = MustRead(&env, "wal.log");
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].generation_time, 7);

  auto stats = committer.GetStats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_GE(stats.syncs, 1u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_GT(stats.durable_bytes, 0u);
}

TEST(GroupCommitterTest, ConcurrentCommitsAllSurvive) {
  MemEnv env;
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!committer.Commit(handle, MakePoint(t * kPerThread + i)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  committer.Deregister(handle);
  EXPECT_EQ(failures.load(), 0);

  auto pts = MustRead(&env, "wal.log");
  std::set<int64_t> seen;
  for (const auto& p : pts) seen.insert(p.generation_time);
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));

  auto stats = committer.GetStats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LE(stats.syncs, stats.commits);
  EXPECT_GE(stats.max_group_points, 1u);
}

/// Env whose WritableFile::Sync blocks until the test grants a permit —
/// makes commit-round boundaries deterministic so batching is observable.
class GatedSyncEnv final : public Env {
 public:
  explicit GatedSyncEnv(Env* base) : base_(base) {}

  void GrantSync() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++permits_;
    cv_.notify_all();
  }
  /// Blocks until a Sync call is parked waiting for a permit.
  void AwaitSyncParked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return parked_ > 0; });
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> base_file;
    SEPLSM_RETURN_IF_ERROR(base_->NewWritableFile(fname, &base_file));
    *file = std::make_unique<GatedFile>(this, std::move(base_file));
    return Status::OK();
  }
  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> base_file;
    SEPLSM_RETURN_IF_ERROR(base_->NewAppendableFile(fname, &base_file));
    *file = std::make_unique<GatedFile>(this, std::move(base_file));
    return Status::OK();
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    return base_->NewRandomAccessFile(fname, file);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status ListDir(const std::string& dirname,
                 std::vector<std::string>* children) override {
    return base_->ListDir(dirname, children);
  }
  Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }

 private:
  class GatedFile final : public WritableFile {
   public:
    GatedFile(GatedSyncEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      env_->TakePermit();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    GatedSyncEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  void TakePermit() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return permits_ > 0; });
    --permits_;
    --parked_;
  }

  Env* base_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int permits_ = 0;
  int parked_ = 0;
};

TEST(GroupCommitterTest, PiledUpWaitersShareOneFsync) {
  MemEnv base;
  GatedSyncEnv env(&base);
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());

  // Round 1: a single point. Its waiter leads the round, which parks
  // inside its fsync.
  auto first = committer.Enqueue(handle, MakePoint(0));
  ASSERT_NE(first, nullptr);
  std::thread leader([&] { committer.Wait(first); });
  env.AwaitSyncParked();

  // While round 1 is stuck in fsync, eight more writers pile into the
  // queue. They MUST all land in one commit round: one record, one fsync.
  constexpr int kPiled = 8;
  std::vector<GroupCommitter::Ticket> tickets;
  for (int i = 1; i <= kPiled; ++i) {
    auto t = committer.Enqueue(handle, MakePoint(i));
    ASSERT_NE(t, nullptr);
    tickets.push_back(std::move(t));
  }

  env.GrantSync();  // finish round 1
  env.GrantSync();  // finish round 2
  leader.join();
  ASSERT_TRUE(committer.Wait(first).ok());
  // Round 2: led by this thread's first Wait, it takes all eight.
  for (auto& t : tickets) ASSERT_TRUE(committer.Wait(t).ok());
  committer.Deregister(handle);

  auto stats = committer.GetStats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kPiled) + 1);
  EXPECT_EQ(stats.syncs, 2u);
  EXPECT_EQ(stats.records, 2u);  // batch of 8 = ONE multi-point record
  EXPECT_EQ(stats.max_group_points, static_cast<uint64_t>(kPiled));

  auto pts = MustRead(&base, "wal.log");
  EXPECT_EQ(pts.size(), static_cast<size_t>(kPiled) + 1);
}

TEST(GroupCommitterTest, OversizedRoundSplitsIntoCappedRecords) {
  MemEnv base;
  GatedSyncEnv env(&base);
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter::Options opts;
  opts.max_record_points = 4;
  GroupCommitter committer(opts);
  auto* handle = committer.Register(wal.get());

  auto first = committer.Enqueue(handle, MakePoint(0));
  std::thread leader([&] { committer.Wait(first); });
  env.AwaitSyncParked();
  std::vector<GroupCommitter::Ticket> tickets;
  for (int i = 1; i <= 10; ++i) {
    tickets.push_back(committer.Enqueue(handle, MakePoint(i)));
  }
  env.GrantSync();
  env.GrantSync();
  leader.join();
  ASSERT_TRUE(committer.Wait(first).ok());
  for (auto& t : tickets) ASSERT_TRUE(committer.Wait(t).ok());
  committer.Deregister(handle);

  auto stats = committer.GetStats();
  // Round 2 had 10 points at a 4-point record cap: 3 records, still 1 fsync.
  EXPECT_EQ(stats.records, 4u);  // 1 (round 1) + 3 (round 2)
  EXPECT_EQ(stats.syncs, 2u);
  EXPECT_EQ(MustRead(&base, "wal.log").size(), 11u);
}

TEST(GroupCommitterTest, SyncFailureFailsEveryWaiterInTheRound) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());

  env.SetFailSyncs(true);
  EXPECT_FALSE(committer.Commit(handle, MakePoint(1)).ok());
  EXPECT_FALSE(committer.Commit(handle, MakePoint(2)).ok());

  // The committer survives the failure: clearing the fault, commits work
  // again on the same handle.
  env.SetFailSyncs(false);
  EXPECT_TRUE(committer.Commit(handle, MakePoint(3)).ok());
  committer.Deregister(handle);

  auto stats = committer.GetStats();
  EXPECT_EQ(stats.commits, 1u);  // only the successful point counts
}

TEST(GroupCommitterTest, BarrierThenSetWriterRotatesUnderTraffic) {
  MemEnv env;
  auto old_wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(old_wal.get());

  // Concurrent writer hammering the handle while the main thread rotates.
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  std::thread writer([&] {
    int64_t tg = 1000;
    while (!stop.load()) {
      if (committer.Commit(handle, MakePoint(tg++)).ok()) {
        committed.fetch_add(1);
      }
    }
  });

  while (committed.load() < 5) std::this_thread::yield();

  // Rotation protocol: quiesce, swap, resume. (A real engine holds its
  // write lock here so nothing enqueues during the swap; the test tolerates
  // the race by checking totals across both logs instead.)
  committer.Barrier(handle);
  auto new_wal = MustOpen(&env, "wal2.log");
  committer.SetWriter(handle, new_wal.get());

  const int at_rotation = committed.load();
  while (committed.load() < at_rotation + 5) std::this_thread::yield();
  stop.store(true);
  writer.join();
  committer.Deregister(handle);
  ASSERT_TRUE(old_wal->Close().ok());
  ASSERT_TRUE(new_wal->Close().ok());

  auto pts_old = MustRead(&env, "wal.log");
  auto pts_new = MustRead(&env, "wal2.log");
  EXPECT_GT(pts_new.size(), 0u);  // traffic moved to the new log
  EXPECT_GE(pts_old.size() + pts_new.size(),
            static_cast<size_t>(committed.load()));
}

TEST(GroupCommitterTest, TwoHandlesGetTheirOwnLogs) {
  MemEnv env;
  auto wal_a = MustOpen(&env, "a.log");
  auto wal_b = MustOpen(&env, "b.log");
  GroupCommitter committer;
  auto* ha = committer.Register(wal_a.get());
  auto* hb = committer.Register(wal_b.get());

  std::thread ta([&] {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(committer.Commit(ha, MakePoint(i)).ok());
    }
  });
  std::thread tb([&] {
    for (int i = 100; i < 120; ++i) {
      ASSERT_TRUE(committer.Commit(hb, MakePoint(i)).ok());
    }
  });
  ta.join();
  tb.join();
  committer.Deregister(ha);
  committer.Deregister(hb);

  auto pts_a = MustRead(&env, "a.log");
  auto pts_b = MustRead(&env, "b.log");
  ASSERT_EQ(pts_a.size(), 20u);
  ASSERT_EQ(pts_b.size(), 20u);
  for (const auto& p : pts_a) EXPECT_LT(p.generation_time, 100);
  for (const auto& p : pts_b) EXPECT_GE(p.generation_time, 100);
}

size_t CurrentThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

TEST(GroupCommitterTest, OwnsNoThread) {
  const size_t before = CurrentThreadCount();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  MemEnv env;
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());
  // Commit rounds run in the caller: constructing, registering and
  // committing start no thread.
  ASSERT_TRUE(committer.Commit(handle, MakePoint(1)).ok());
  EXPECT_EQ(CurrentThreadCount(), before);
  committer.Deregister(handle);
  EXPECT_EQ(committer.GetStats().commits, 1u);
}

TEST(GroupCommitterTest, UnwaitedEntriesAreWrittenByBarrierAndDeregister) {
  // An engine whose MemTable insert fails returns without Wait; its entry
  // must still reach the log with the next round anyone leads.
  MemEnv env;
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());

  auto unwaited = committer.Enqueue(handle, MakePoint(1));
  ASSERT_NE(unwaited, nullptr);
  EXPECT_EQ(committer.GetStats().commits, 0u);
  committer.Barrier(handle);
  EXPECT_EQ(committer.GetStats().commits, 1u);
  EXPECT_EQ(MustRead(&env, "wal.log").size(), 1u);

  ASSERT_NE(committer.Enqueue(handle, MakePoint(2)), nullptr);
  committer.Deregister(handle);
  EXPECT_EQ(committer.GetStats().commits, 2u);
  auto pts = MustRead(&env, "wal.log");
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].generation_time, 1);
  EXPECT_EQ(pts[1].generation_time, 2);
  // The entry's ticket completed with the round, though nobody waited.
  EXPECT_TRUE(committer.Wait(unwaited).ok());
}

TEST(GroupCommitterTest, LoneEnqueuerPastQueueCapLeadsARound) {
  // One thread enqueues past max_queue_points without ever waiting: with
  // no other thread to drain the queue, it must lead the rounds itself.
  MemEnv env;
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter::Options opts;
  opts.max_queue_points = 4;
  GroupCommitter committer(opts);
  auto* handle = committer.Register(wal.get());

  std::vector<GroupCommitter::Ticket> tickets;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(committer.Enqueue(handle, MakePoint(i)));
  }
  // The 5th and 9th enqueues each found 4 points queued and committed them.
  auto stats = committer.GetStats();
  EXPECT_EQ(stats.commits, 8u);
  EXPECT_EQ(stats.syncs, 2u);
  for (auto& t : tickets) ASSERT_TRUE(committer.Wait(t).ok());
  committer.Deregister(handle);
  EXPECT_EQ(committer.GetStats().commits, 10u);
  EXPECT_EQ(MustRead(&env, "wal.log").size(), 10u);
}

TEST(GroupCommitterTest, StatsAreMonotone) {
  MemEnv env;
  auto wal = MustOpen(&env, "wal.log");
  GroupCommitter committer;
  auto* handle = committer.Register(wal.get());

  auto before = committer.GetStats();
  ASSERT_TRUE(committer.Commit(handle, MakePoint(1)).ok());
  auto mid = committer.GetStats();
  ASSERT_TRUE(committer.Commit(handle, MakePoint(2)).ok());
  auto after = committer.GetStats();
  committer.Deregister(handle);

  EXPECT_LE(before.commits, mid.commits);
  EXPECT_LE(mid.commits, after.commits);
  EXPECT_LE(mid.syncs, after.syncs);
  EXPECT_LE(mid.durable_bytes, after.durable_bytes);
  EXPECT_EQ(after.commits, 2u);
}

}  // namespace
}  // namespace seplsm::storage
