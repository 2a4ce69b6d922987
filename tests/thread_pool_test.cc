#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "engine/job_scheduler.h"

namespace seplsm {
namespace {

using engine::JobScheduler;

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit(ThreadPool::Priority::kLow, [&] { ++ran; }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 10);
  ThreadPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.executed_low, 10u);
  EXPECT_EQ(stats.queued_low, 0u);
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(
      pool.Submit(ThreadPool::Priority::kHigh, [&] { ran = true; }).ok());
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, HighPriorityDispatchesBeforeLow) {
  // One worker, held busy while both queues fill: when it frees up, every
  // high-priority task must run before any low-priority one.
  ThreadPool pool(1);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit(ThreadPool::Priority::kLow,
                          [&] {
                            pinned = true;
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  // Submit() alone doesn't mean the worker has *started* the pin job; if
  // it is still queued, the high-priority tasks below would jump it.
  while (!pinned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(id);
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        pool.Submit(ThreadPool::Priority::kLow, [&, i] { record(100 + i); })
            .ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        pool.Submit(ThreadPool::Priority::kHigh, [&, i] { record(i); }).ok());
  }
  release = true;
  pool.Shutdown();
  ASSERT_EQ(order.size(), 6u);
  // FIFO within each class, high first.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 100, 101, 102}));
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsAborted) {
  ThreadPool pool(1);
  pool.Shutdown();
  Status st = pool.Submit(ThreadPool::Priority::kHigh, [] {});
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit(ThreadPool::Priority::kLow,
                          [&] {
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit(ThreadPool::Priority::kLow, [&] { ++ran; }).ok());
  }
  release = true;
  pool.Shutdown();  // must not drop the 20 queued tasks
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, HammerManyThreadsSubmitting) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  constexpr int kSubmitters = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ThreadPool::Priority p = (t + i) % 2 == 0
                                     ? ThreadPool::Priority::kHigh
                                     : ThreadPool::Priority::kLow;
        ASSERT_TRUE(pool.Submit(p, [&] { ++ran; }).ok());
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), kSubmitters * kPerThread);
  ThreadPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.executed_high + stats.executed_low,
            static_cast<uint64_t>(kSubmitters * kPerThread));
}

TEST(JobSchedulerTest, SameTokenJobsNeverOverlap) {
  JobScheduler scheduler(4);
  auto token = scheduler.RegisterToken();
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(token, JobScheduler::JobKind::kCompaction,
                            [&](uint64_t) {
                              int now = ++concurrent;
                              int seen = max_concurrent.load();
                              while (now > seen &&
                                     !max_concurrent.compare_exchange_weak(
                                         seen, now)) {
                              }
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(100));
                              --concurrent;
                              ++ran;
                            })
                    .ok());
  }
  // Wait for all 50 (DrainToken would cancel whatever is still queued).
  for (int i = 0; i < 20000 && ran.load() < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.DrainToken(token);
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(max_concurrent.load(), 1);
}

TEST(JobSchedulerTest, DistinctTokensRunInParallel) {
  // Two tokens, two workers: job A holds its slot until job B (other
  // token) has demonstrably started — impossible if tokens shared a lane.
  if (std::thread::hardware_concurrency() < 1) GTEST_SKIP();
  JobScheduler scheduler(2);
  ASSERT_EQ(scheduler.thread_count(), 2u);
  auto ta = scheduler.RegisterToken();
  auto tb = scheduler.RegisterToken();
  std::atomic<bool> b_started{false};
  ASSERT_TRUE(scheduler
                  .Submit(ta, JobScheduler::JobKind::kCompaction,
                          [&](uint64_t) {
                            while (!b_started.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(tb, JobScheduler::JobKind::kCompaction,
                          [&](uint64_t) { b_started = true; })
                  .ok());
  // DrainToken cancels jobs no worker has taken yet, so draining at once
  // could discard both before either runs. Give the workers a bounded
  // while to start B first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!b_started.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  scheduler.DrainToken(ta);
  scheduler.DrainToken(tb);
  EXPECT_TRUE(b_started.load());
}

TEST(JobSchedulerTest, FlushRunsBeforeQueuedCompaction) {
  // Single worker pinned; a token queues a compaction then a flush. When
  // the worker reaches the token, the flush must be picked first.
  JobScheduler scheduler(1);
  auto pin = scheduler.RegisterToken();
  auto token = scheduler.RegisterToken();
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(scheduler
                  .Submit(pin, JobScheduler::JobKind::kCompaction,
                          [&](uint64_t) {
                            pinned = true;
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  // Wait until the worker is demonstrably inside the pin job — otherwise
  // token's jobs below could run before it is picked up.
  while (!pinned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::mutex order_mutex;
  std::vector<std::string> order;
  auto record = [&](const char* what) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.emplace_back(what);
  };
  ASSERT_TRUE(scheduler
                  .Submit(token, JobScheduler::JobKind::kCompaction,
                          [&](uint64_t) { record("compaction"); })
                  .ok());
  ASSERT_TRUE(scheduler
                  .Submit(token, JobScheduler::JobKind::kFlush,
                          [&](uint64_t) { record("flush"); })
                  .ok());
  release = true;
  scheduler.DrainToken(pin);
  // Wait for both of token's jobs (DrainToken would cancel them).
  for (int i = 0; i < 10000; ++i) {
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      if (order.size() == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.DrainToken(token);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "flush");
  EXPECT_EQ(order[1], "compaction");
}

TEST(JobSchedulerTest, DrainTokenDropsQueuedJobsAndBlocksNewOnes) {
  JobScheduler scheduler(1);
  auto pin = scheduler.RegisterToken();
  auto token = scheduler.RegisterToken();
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(scheduler
                  .Submit(pin, JobScheduler::JobKind::kCompaction,
                          [&](uint64_t) {
                            pinned = true;
                            while (!release.load()) {
                              std::this_thread::yield();
                            }
                          })
                  .ok());
  // Wait until the worker is demonstrably inside the pin job — otherwise
  // token's jobs below could run (ran != 0) before it is picked up.
  while (!pinned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit(token, JobScheduler::JobKind::kFlush,
                            [&](uint64_t) { ++ran; })
                    .ok());
  }
  // DrainToken cancels token's queued jobs immediately, then blocks until
  // the worker (still pinned) no-ops token's queued pool task. Release the
  // pin only once the cancellation is observable, so none of the 5 jobs
  // can sneak in ahead of the drain.
  std::thread unpin([&] {
    while (scheduler.GetStats().canceled_jobs < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    release = true;
  });
  scheduler.DrainToken(token);  // all 5 still queued behind the pinned job
  unpin.join();
  scheduler.DrainToken(pin);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_GE(scheduler.GetStats().canceled_jobs, 5u);
  Status st =
      scheduler.Submit(token, JobScheduler::JobKind::kFlush, [](uint64_t) {});
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
}

TEST(JobSchedulerTest, QueueWaitIsReportedToTheJob) {
  JobScheduler scheduler(1);
  auto token = scheduler.RegisterToken();
  std::atomic<uint64_t> reported{~0ull};
  ASSERT_TRUE(scheduler
                  .Submit(token, JobScheduler::JobKind::kFlush,
                          [&](uint64_t wait) { reported = wait; })
                  .ok());
  for (int i = 0; i < 20000 && reported.load() == ~0ull; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.DrainToken(token);
  EXPECT_NE(reported.load(), ~0ull);  // the job ran and received a value
}

TEST(JobSchedulerTest, HammerManyTokens) {
  JobScheduler scheduler(4);
  constexpr int kTokens = 8;
  constexpr int kJobsPerToken = 100;
  std::vector<std::shared_ptr<JobScheduler::Token>> tokens;
  std::vector<std::atomic<int>> running(kTokens);
  std::vector<std::thread> submitters;
  std::atomic<bool> overlap{false};
  for (int t = 0; t < kTokens; ++t) {
    tokens.push_back(scheduler.RegisterToken());
  }
  for (int t = 0; t < kTokens; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kJobsPerToken; ++i) {
        JobScheduler::JobKind kind = i % 3 == 0
                                         ? JobScheduler::JobKind::kFlush
                                         : JobScheduler::JobKind::kCompaction;
        (void)scheduler.Submit(tokens[t], kind, [&, t](uint64_t) {
          if (++running[t] != 1) overlap = true;
          --running[t];
        });
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& token : tokens) scheduler.DrainToken(token);
  EXPECT_FALSE(overlap.load()) << "same-token jobs overlapped";
}

}  // namespace
}  // namespace seplsm
