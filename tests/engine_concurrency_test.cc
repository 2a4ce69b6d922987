// Concurrency tests for the snapshot-isolated read path: readers must see a
// consistent prefix of the writer's history while flushes and background
// compaction churn the file set underneath them, and a dead background
// compactor must fail writers instead of hanging them.
//
// These tests are the primary targets of the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "engine/ts_engine.h"
#include "env/fault_env.h"
#include "env/mem_env.h"

namespace seplsm::engine {
namespace {

class EngineConcurrencyTest : public ::testing::Test {
 protected:
  Options BaseOptions() {
    Options o;
    o.env = &env_;
    o.dir = "/db";
    o.sstable_points = 32;
    o.points_per_block = 8;
    return o;
  }

  std::unique_ptr<TsEngine> MustOpen(Options o) {
    auto e = TsEngine::Open(std::move(o));
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }

  MemEnv env_;
};

double ValueFor(int64_t t) { return static_cast<double>(t) * 0.25 + 1.0; }

// Keys 0..n-1, shuffled inside fixed-size windows: mostly increasing with a
// bounded delay, so the separation policy exercises both C_seq and C_nonseq
// and the conventional policy produces overlapping merges.
std::vector<int64_t> LocallyShuffledKeys(int64_t n, int64_t window,
                                         uint32_t seed) {
  std::vector<int64_t> keys(n);
  for (int64_t i = 0; i < n; ++i) keys[i] = i;
  std::mt19937 rng(seed);
  for (int64_t b = 0; b < n; b += window) {
    int64_t e = std::min(b + window, n);
    std::shuffle(keys.begin() + b, keys.begin() + e, rng);
  }
  return keys;
}

// The fuzzed snapshot-consistency check. One writer appends `keys` in order,
// publishing how many appends completed; a reader brackets every query with
// two loads of that counter and asserts the result contains at least what
// was durably appended before the query (m1) and at most what was appended
// by its end (m2) — i.e. every query observes some consistent point of the
// history, never a torn one, while compaction replaces files underneath it.
void RunSnapshotConsistencyFuzz(TsEngine* db, const std::vector<int64_t>& keys,
                                uint32_t seed) {
  std::atomic<size_t> appended{0};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (size_t i = 0; i < keys.size(); ++i) {
      Status st = db->Append({keys[i], keys[i] + 7, ValueFor(keys[i])});
      ASSERT_TRUE(st.ok()) << st.ToString();
      appended.store(i + 1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::mt19937 rng(seed);
  const int64_t n = static_cast<int64_t>(keys.size());
  int queries = 0;
  while (!done.load(std::memory_order_acquire) || queries < 20) {
    int64_t lo = std::uniform_int_distribution<int64_t>(0, n - 1)(rng);
    int64_t hi =
        std::min<int64_t>(n - 1, lo + std::uniform_int_distribution<int64_t>(
                                          0, n / 4)(rng));
    if (queries % 8 == 0) {  // some full-range scans
      lo = 0;
      hi = n - 1;
    }
    size_t m1 = appended.load(std::memory_order_acquire);
    std::vector<DataPoint> out;
    Status st = db->Query(lo, hi, &out);
    ASSERT_TRUE(st.ok()) << st.ToString();
    size_t m2 = appended.load(std::memory_order_acquire);

    // Well-formed: sorted, unique, in range, correct values.
    std::vector<bool> present(static_cast<size_t>(n), false);
    int64_t prev = std::numeric_limits<int64_t>::min();
    for (const auto& p : out) {
      ASSERT_GT(p.generation_time, prev);
      prev = p.generation_time;
      ASSERT_GE(p.generation_time, lo);
      ASSERT_LE(p.generation_time, hi);
      ASSERT_EQ(p.value, ValueFor(p.generation_time));
      present[static_cast<size_t>(p.generation_time)] = true;
    }
    // Lower bound: everything appended before the query started.
    for (size_t i = 0; i < m1; ++i) {
      if (keys[i] >= lo && keys[i] <= hi) {
        ASSERT_TRUE(present[static_cast<size_t>(keys[i])])
            << "query lost key " << keys[i] << " (appended at " << i
            << " < m1=" << m1 << ")";
      }
    }
    // Upper bound: nothing from the future. A point becomes visible inside
    // Append, before the writer bumps the counter, so allow the single
    // append that may be in flight when m2 is read.
    size_t m2_vis = std::min(m2 + 1, keys.size());
    std::vector<bool> could_exist(static_cast<size_t>(n), false);
    for (size_t i = 0; i < m2_vis; ++i) {
      could_exist[static_cast<size_t>(keys[i])] = true;
    }
    for (const auto& p : out) {
      ASSERT_TRUE(could_exist[static_cast<size_t>(p.generation_time)])
          << "query returned key " << p.generation_time
          << " that was not yet appended (m2=" << m2 << ")";
    }
    ++queries;
  }
  writer.join();

  // The final state is complete.
  std::vector<DataPoint> all;
  ASSERT_TRUE(db->Query(0, n - 1, &all).ok());
  ASSERT_EQ(all.size(), static_cast<size_t>(n));
  ASSERT_TRUE(db->CheckInvariants().ok());
}

TEST_F(EngineConcurrencyTest, SnapshotConsistencyFuzzConventional) {
  Options o = BaseOptions();
  o.policy = PolicyConfig::Conventional(8);
  o.background_mode = true;
  o.max_level0_files = 4;
  auto db = MustOpen(o);
  RunSnapshotConsistencyFuzz(db.get(), LocallyShuffledKeys(3000, 16, 11), 42);
}

TEST_F(EngineConcurrencyTest, SnapshotConsistencyFuzzSeparation) {
  Options o = BaseOptions();
  o.policy = PolicyConfig::Separation(8, 6);
  o.background_mode = true;
  o.max_level0_files = 4;
  auto db = MustOpen(o);
  RunSnapshotConsistencyFuzz(db.get(), LocallyShuffledKeys(3000, 16, 13), 77);
}

TEST_F(EngineConcurrencyTest, SnapshotConsistencyFuzzSynchronousMode) {
  // Synchronous mode merges inline under the writer; queries still capture
  // snapshots and read without the lock.
  Options o = BaseOptions();
  o.policy = PolicyConfig::Conventional(8);
  auto db = MustOpen(o);
  RunSnapshotConsistencyFuzz(db.get(), LocallyShuffledKeys(2000, 16, 17), 99);
}

TEST_F(EngineConcurrencyTest, ManyReadersWritersChurn) {
  // Two writers on disjoint key ranges plus three readers mixing Query,
  // Aggregate and Downsample while level 0 stays tiny (maximum compaction
  // churn). Readers only assert well-formedness; the point is that TSan
  // sees heavy snapshot/compaction overlap with zero races and that every
  // retired file is eventually collected.
  Options o = BaseOptions();
  o.num_levels = 2;  // tiering retires no files: pin the rewriting seed tree
  o.policy = PolicyConfig::Conventional(8);
  o.background_mode = true;
  o.max_level0_files = 2;
  o.sstable_points = 16;
  auto db = MustOpen(o);

  constexpr int64_t kPerWriter = 1500;
  std::atomic<bool> done{false};
  auto writer = [&](int64_t base) {
    auto keys = LocallyShuffledKeys(kPerWriter, 8,
                                    static_cast<uint32_t>(base + 1));
    for (int64_t k : keys) {
      Status st = db->Append({base + k, base + k, ValueFor(base + k)});
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  };
  std::thread w1(writer, int64_t{0});
  std::thread w2(writer, int64_t{1'000'000});

  auto reader = [&](uint32_t seed) {
    std::mt19937 rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      int64_t base = (rng() % 2 == 0) ? 0 : 1'000'000;
      int64_t lo = base + static_cast<int64_t>(rng() % kPerWriter);
      int64_t hi = lo + static_cast<int64_t>(rng() % 500);
      std::vector<DataPoint> out;
      ASSERT_TRUE(db->Query(lo, hi, &out).ok());
      int64_t prev = std::numeric_limits<int64_t>::min();
      for (const auto& p : out) {
        ASSERT_GT(p.generation_time, prev);
        prev = p.generation_time;
        ASSERT_EQ(p.value, ValueFor(p.generation_time));
      }
      Aggregates agg;
      ASSERT_TRUE(db->Aggregate(lo, hi, &agg).ok());
      // Aggregate runs on a newer snapshot than the Query above; keys are
      // only ever added, so the count can only have grown.
      ASSERT_GE(agg.count, out.size());
      std::vector<TimeBucket> buckets;
      ASSERT_TRUE(db->Downsample(lo, hi, 64, &buckets).ok());
    }
  };
  std::thread r1(reader, 1);
  std::thread r2(reader, 2);
  std::thread r3(reader, 3);

  w1.join();
  w2.join();
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  r3.join();

  ASSERT_TRUE(db->FlushAll().ok());
  std::vector<DataPoint> all;
  ASSERT_TRUE(db->Query(0, 2'000'000, &all).ok());
  EXPECT_EQ(all.size(), 2 * static_cast<size_t>(kPerWriter));
  ASSERT_TRUE(db->CheckInvariants().ok());

  // No reader is outstanding, so every compaction-retired file has been
  // physically unlinked by the sweeps at the end of FlushAll/Query.
  Metrics m = db->GetMetrics();
  EXPECT_EQ(m.files_deleted, m.files_deferred_deleted);
  EXPECT_GT(m.files_deferred_deleted, 0u);
}

TEST_F(EngineConcurrencyTest, SyncModeConcurrentWritersMatchOracle) {
  // Synchronous mode with several writers: full MemTables from different
  // threads are installed inline, one batch at a time and in freeze order,
  // with the engine mutex released during table I/O. Writers overlap on
  // keys (the value is a function of the key, so every interleaving has one
  // right answer), readers run throughout, and the final state must equal a
  // std::map oracle with every appended point accounted for.
  constexpr int kWriters = 4;
  constexpr int64_t kKeySpace = 1200;
  constexpr size_t kPerWriter = 900;
  for (const PolicyConfig& policy :
       {PolicyConfig::Conventional(32), PolicyConfig::Separation(32, 16)}) {
    SCOPED_TRACE(policy.ToString());
    Options o = BaseOptions();
    o.dir = policy.kind == PolicyKind::kConventional ? "/sync_c" : "/sync_s";
    o.policy = policy;
    o.background_mode = false;
    auto db = MustOpen(o);

    std::vector<std::vector<int64_t>> keys(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      // Each writer covers a shifted, locally shuffled window of the key
      // space, so the writers' ranges overlap pairwise.
      auto local = LocallyShuffledKeys(kPerWriter, 24,
                                       static_cast<uint32_t>(w + 101));
      for (int64_t k : local) {
        keys[w].push_back((k + static_cast<int64_t>(w) * 100) % kKeySpace);
      }
    }
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int64_t k : keys[w]) {
          Status st = db->Append({k, k + 7, ValueFor(k)});
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
      });
    }
    auto reader = [&](uint32_t seed) {
      std::mt19937 rng(seed);
      while (!done.load(std::memory_order_acquire)) {
        int64_t lo = static_cast<int64_t>(rng() % kKeySpace);
        int64_t hi = lo + static_cast<int64_t>(rng() % 300);
        std::vector<DataPoint> out;
        ASSERT_TRUE(db->Query(lo, hi, &out).ok());
        int64_t prev = std::numeric_limits<int64_t>::min();
        for (const auto& p : out) {
          ASSERT_GT(p.generation_time, prev);
          prev = p.generation_time;
          ASSERT_EQ(p.value, ValueFor(p.generation_time));
        }
      }
    };
    std::thread r1(reader, 7);
    std::thread r2(reader, 8);
    for (auto& t : writers) t.join();
    done.store(true, std::memory_order_release);
    r1.join();
    r2.join();

    std::map<int64_t, DataPoint> oracle;
    for (const auto& ks : keys) {
      for (int64_t k : ks) oracle[k] = DataPoint{k, k + 7, ValueFor(k)};
    }
    for (int pass = 0; pass < 2; ++pass) {  // buffered, then drained
      std::vector<DataPoint> all;
      ASSERT_TRUE(db->Query(0, kKeySpace, &all).ok());
      ASSERT_EQ(all.size(), oracle.size());
      size_t i = 0;
      for (const auto& [k, p] : oracle) {
        ASSERT_EQ(all[i], p) << "key " << k;
        ++i;
      }
      ASSERT_TRUE(db->CheckInvariants().ok());
      ASSERT_TRUE(db->FlushAll().ok());
    }
    EXPECT_EQ(db->GetMetrics().points_ingested,
              static_cast<uint64_t>(kWriters) * kPerWriter);
  }
}

TEST_F(EngineConcurrencyTest, PosixConcurrentReadsBesideCompaction) {
  // Real files with the table cache on: one cached reader per table serves
  // queries and background compaction at the same time, so its reads must
  // not share a file position.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("seplsm_posix_reads_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {
    Options o;
    o.env = Env::Default();
    o.dir = dir;
    o.num_levels = 2;
    o.policy = PolicyConfig::Conventional(16);
    o.background_mode = true;
    o.max_level0_files = 4;
    o.table_cache_entries = 64;
    o.sstable_points = 64;
    o.points_per_block = 8;
    auto db = MustOpen(o);

    constexpr int64_t kPoints = 4000;
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (int64_t k : LocallyShuffledKeys(kPoints, 64, 53)) {
        Status st = db->Append({k, k, ValueFor(k)});
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
    auto reader = [&](uint32_t seed) {
      std::mt19937 rng(seed);
      while (!done.load(std::memory_order_acquire)) {
        int64_t lo = static_cast<int64_t>(rng() % kPoints);
        std::vector<DataPoint> out;
        Status st = db->Query(lo, lo + 400, &out);
        ASSERT_TRUE(st.ok()) << st.ToString();
        for (const auto& p : out) {
          ASSERT_EQ(p.value, ValueFor(p.generation_time));
        }
      }
    };
    std::thread r1(reader, 3);
    std::thread r2(reader, 4);
    writer.join();
    done.store(true, std::memory_order_release);  // also after a failure
    r1.join();
    r2.join();

    ASSERT_TRUE(db->FlushAll().ok());
    std::vector<DataPoint> all;
    ASSERT_TRUE(db->Query(0, kPoints, &all).ok());
    EXPECT_EQ(all.size(), static_cast<size_t>(kPoints));
    ASSERT_TRUE(db->CheckInvariants().ok());
    EXPECT_GT(db->GetMetrics().merge_count, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(EngineConcurrencyTest, WriterUnblocksOnBackgroundCompactionError) {
  // Regression: if the background compactor dies while level 0 is at
  // max_level0_files, Append used to wait on writer_cv_ forever — the wait
  // predicate only looked at the level-0 file count. Writers must instead
  // be failed with the stored background error.
  FaultInjectionEnv fault_env(&env_);
  Options o = BaseOptions();
  o.env = &fault_env;
  o.num_levels = 2;  // the fault fires on compaction reads: pin the seed tree
  o.policy = PolicyConfig::Conventional(4);
  o.sstable_points = 16;
  o.background_mode = true;
  o.max_level0_files = 2;
  auto db = MustOpen(o);

  // Build a run so a later out-of-order batch needs a real (reading)
  // compaction. In-order level-0 files are adopted without any read.
  for (int64_t t = 0; t < 64; ++t) {
    ASSERT_TRUE(db->Append({t, t, 1.0}).ok());
  }
  ASSERT_TRUE(db->WaitForBackgroundIdle().ok());
  ASSERT_GT(db->RunFileCount(), 0u);

  // Writes keep succeeding, reads fail: flushes still land in level 0 but
  // the compactor cannot read its inputs and exits with an error.
  fault_env.SetFailReads(true);

  auto outcome = std::async(std::launch::async, [&] {
    // Re-write existing keys: overlaps the run, so draining level 0 now
    // requires reads. Pre-fix this loop hangs once level 0 is full and the
    // compactor is dead; post-fix it returns the background error.
    for (int i = 0; i < 10'000; ++i) {
      Status st = db->Append({i % 64, 100 + i, 2.0});
      if (!st.ok()) return st;
    }
    return Status::OK();
  });

  ASSERT_EQ(outcome.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "Append hung after the background compactor died";
  Status st = outcome.get();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();

  fault_env.SetFailReads(false);  // let shutdown clean up
}

// Worker count for shared-scheduler tests; the TSan CI job runs these
// suites at both extremes (SEPLSM_BG_THREADS=1 and =8) to cover the
// fully-serialized and maximally-parallel interleavings.
size_t SchedulerThreadsFromEnv() {
  const char* v = std::getenv("SEPLSM_BG_THREADS");
  if (v != nullptr) {
    int n = std::atoi(v);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 4;
}

TEST_F(EngineConcurrencyTest, SharedSchedulerTwoEnginesFuzz) {
  // Two engines on one scheduler, each under the snapshot-consistency
  // fuzz concurrently: per-token serialization must keep each engine's
  // single-compactor invariant while their jobs interleave in the pool.
  auto scheduler = std::make_shared<JobScheduler>(SchedulerThreadsFromEnv());
  Options oa = BaseOptions();
  oa.dir = "/db_a";
  oa.policy = PolicyConfig::Conventional(8);
  oa.background_mode = true;
  oa.max_level0_files = 4;
  oa.job_scheduler = scheduler;
  Options ob = oa;
  ob.dir = "/db_b";
  ob.policy = PolicyConfig::Separation(8, 6);
  auto a = MustOpen(oa);
  auto b = MustOpen(ob);

  std::thread ta([&] {
    RunSnapshotConsistencyFuzz(a.get(), LocallyShuffledKeys(2000, 16, 21), 5);
  });
  std::thread tb([&] {
    RunSnapshotConsistencyFuzz(b.get(), LocallyShuffledKeys(2000, 16, 23), 6);
  });
  ta.join();
  tb.join();

  ASSERT_TRUE(a->WaitForBackgroundIdle().ok());
  ASSERT_TRUE(b->WaitForBackgroundIdle().ok());
  Metrics ma = a->GetMetrics();
  Metrics mb = b->GetMetrics();
  EXPECT_GT(ma.bg_flush_jobs, 0u);
  EXPECT_GT(mb.bg_flush_jobs, 0u);
  // A no-op job dispatched just before idle may still be counting, so the
  // scheduler totals are compared loosely — what matters is that both
  // engines' work went through the one shared pool.
  JobScheduler::Stats stats = scheduler->GetStats();
  EXPECT_GT(stats.executed_flush, 0u);
  EXPECT_EQ(stats.threads, SchedulerThreadsFromEnv());
}

TEST_F(EngineConcurrencyTest, CloseOneEngineWhileOtherCompacts) {
  // Regression for shutdown ordering: destroying engine A must drain only
  // A's jobs. Engine B — possibly mid-compaction on the same scheduler —
  // keeps ingesting and stays fully readable afterwards.
  auto scheduler = std::make_shared<JobScheduler>(SchedulerThreadsFromEnv());
  Options oa = BaseOptions();
  oa.dir = "/db_a";
  oa.policy = PolicyConfig::Conventional(8);
  oa.background_mode = true;
  oa.max_level0_files = 2;  // keep both engines constantly compacting
  oa.sstable_points = 16;
  oa.job_scheduler = scheduler;
  Options ob = oa;
  ob.dir = "/db_b";
  auto a = MustOpen(oa);
  auto b = MustOpen(ob);

  constexpr int64_t kPoints = 1200;
  std::atomic<bool> a_closed{false};
  std::thread writer_b([&] {
    auto keys = LocallyShuffledKeys(kPoints, 8, 31);
    for (size_t i = 0; i < keys.size(); ++i) {
      Status st = b->Append({keys[i], keys[i], ValueFor(keys[i])});
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    // B must be able to finish its work after A is gone.
    while (!a_closed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(b->FlushAll().ok());
  });

  // Load A until it surely has level-0 files / a compaction in flight,
  // then destroy it mid-churn.
  auto keys_a = LocallyShuffledKeys(600, 8, 37);
  for (int64_t k : keys_a) {
    ASSERT_TRUE(a->Append({k, k, ValueFor(k)}).ok());
  }
  a.reset();  // drains only A's token
  a_closed.store(true, std::memory_order_release);

  writer_b.join();
  std::vector<DataPoint> all;
  ASSERT_TRUE(b->Query(0, kPoints - 1, &all).ok());
  EXPECT_EQ(all.size(), static_cast<size_t>(kPoints));
  ASSERT_TRUE(b->CheckInvariants().ok());

  // A closed cleanly: reopening it recovers every accepted point.
  Options oa2 = BaseOptions();
  oa2.dir = "/db_a";
  oa2.policy = PolicyConfig::Conventional(8);
  oa2.background_mode = true;
  oa2.job_scheduler = scheduler;
  auto a2 = MustOpen(oa2);
  std::vector<DataPoint> a_all;
  ASSERT_TRUE(a2->Query(0, 599, &a_all).ok());
  EXPECT_EQ(a_all.size(), 600u);
}

TEST_F(EngineConcurrencyTest, BackgroundErrorStaysOnItsEngine) {
  // A failed compaction on series A must poison only A: B shares the
  // scheduler (and possibly the worker that hit the error) but keeps
  // flushing, compacting, and serving reads.
  FaultInjectionEnv fault_env(&env_);
  auto scheduler = std::make_shared<JobScheduler>(SchedulerThreadsFromEnv());
  Options oa = BaseOptions();
  oa.env = &fault_env;
  oa.dir = "/db_a";
  oa.num_levels = 2;  // the fault fires on compaction reads: pin the seed tree
  oa.policy = PolicyConfig::Conventional(4);
  oa.sstable_points = 16;
  oa.background_mode = true;
  oa.max_level0_files = 2;
  oa.job_scheduler = scheduler;
  Options ob = BaseOptions();
  ob.dir = "/db_b";
  ob.policy = PolicyConfig::Conventional(4);
  ob.sstable_points = 16;
  ob.background_mode = true;
  ob.max_level0_files = 2;
  ob.job_scheduler = scheduler;
  auto a = MustOpen(oa);
  auto b = MustOpen(ob);

  // Give A a run so an out-of-order batch needs a reading compaction.
  for (int64_t t = 0; t < 64; ++t) {
    ASSERT_TRUE(a->Append({t, t, 1.0}).ok());
  }
  ASSERT_TRUE(a->WaitForBackgroundIdle().ok());
  fault_env.SetFailReads(true);  // A's compactions now die; B is untouched

  auto outcome = std::async(std::launch::async, [&] {
    for (int i = 0; i < 10'000; ++i) {
      Status st = a->Append({i % 64, 100 + i, 2.0});
      if (!st.ok()) return st;
    }
    return Status::OK();
  });

  // B keeps working the whole time.
  auto keys = LocallyShuffledKeys(800, 8, 41);
  for (int64_t k : keys) {
    ASSERT_TRUE(b->Append({k, k, ValueFor(k)}).ok());
  }

  ASSERT_EQ(outcome.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "Append on the failing engine hung";
  EXPECT_TRUE(outcome.get().IsIOError());

  ASSERT_TRUE(b->FlushAll().ok()) << "healthy engine was poisoned";
  std::vector<DataPoint> all;
  ASSERT_TRUE(b->Query(0, 799, &all).ok());
  EXPECT_EQ(all.size(), 800u);
  Metrics mb = b->GetMetrics();
  EXPECT_GT(mb.bg_flush_jobs, 0u);

  fault_env.SetFailReads(false);  // let A's shutdown clean up
}

}  // namespace
}  // namespace seplsm::engine
