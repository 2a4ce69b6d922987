// Property-based tests: for arbitrary delay-disordered workloads, under both
// policies and both execution modes, the engine must (a) keep the run sorted
// and non-overlapping, (b) return exactly the ingested set from range
// queries, (c) satisfy the WA accounting identity, and (d) agree with a
// brute-force in-memory reference on random range queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "dist/parametric.h"
#include "engine/ts_engine.h"
#include "env/mem_env.h"
#include "workload/synthetic.h"

namespace seplsm::engine {
namespace {

struct PropertyCase {
  std::string label;
  PolicyConfig policy;
  bool background_mode;
  double sigma;      // lognormal delay spread
  uint64_t seed;
};

std::vector<PropertyCase> Cases() {
  std::vector<PropertyCase> cases;
  int i = 0;
  for (bool bg : {false, true}) {
    for (double sigma : {0.5, 1.5, 2.5}) {
      cases.push_back({"conv_" + std::to_string(i), PolicyConfig::Conventional(32),
                       bg, sigma, 100u + static_cast<uint64_t>(i)});
      ++i;
      cases.push_back({"sep_" + std::to_string(i),
                       PolicyConfig::Separation(32, 16), bg, sigma,
                       200u + static_cast<uint64_t>(i)});
      ++i;
      cases.push_back({"sep_skew_" + std::to_string(i),
                       PolicyConfig::Separation(32, 28), bg, sigma,
                       300u + static_cast<uint64_t>(i)});
      ++i;
    }
  }
  return cases;
}

// Names the parameter in test listings instead of dumping its bytes, which
// hold heap pointers and so would change from run to run.
void PrintTo(const PropertyCase& c, std::ostream* os) { *os << c.label; }

class EnginePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(EnginePropertyTest, FuzzedWorkloadInvariants) {
  const PropertyCase& pc = GetParam();
  MemEnv env;
  Options o;
  o.env = &env;
  o.dir = "/db";
  o.policy = pc.policy;
  o.background_mode = pc.background_mode;
  o.sstable_points = 32;
  o.points_per_block = 8;
  auto open = TsEngine::Open(o);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  auto& db = *open;

  workload::SyntheticConfig sc;
  sc.num_points = 3000;
  sc.delta_t = 20.0;
  sc.seed = pc.seed;
  dist::LognormalDistribution delay(3.0, pc.sigma);
  auto points = workload::GenerateSynthetic(sc, delay);

  std::map<int64_t, DataPoint> reference;
  Rng rng(pc.seed * 7 + 1);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(db->Append(points[i]).ok());
    reference.insert_or_assign(points[i].generation_time, points[i]);
    // Interleave occasional queries against the reference.
    if (i % 500 == 499) {
      int64_t lo = rng.UniformInt(0, 60000);
      int64_t hi = lo + rng.UniformInt(0, 20000);
      std::vector<DataPoint> got;
      ASSERT_TRUE(db->Query(lo, hi, &got).ok());
      std::vector<DataPoint> want;
      for (auto it = reference.lower_bound(lo);
           it != reference.end() && it->first <= hi; ++it) {
        want.push_back(it->second);
      }
      ASSERT_EQ(got, want) << "mid-ingest query [" << lo << "," << hi << "]";
    }
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->CheckInvariants().ok());

  // (b) Full-range query returns exactly the ingested set.
  std::vector<DataPoint> all;
  ASSERT_TRUE(db
                  ->Query(std::numeric_limits<int64_t>::min() / 2,
                          std::numeric_limits<int64_t>::max() / 2, &all)
                  .ok());
  ASSERT_EQ(all.size(), reference.size());
  size_t idx = 0;
  for (const auto& [tg, p] : reference) {
    ASSERT_EQ(all[idx].generation_time, tg);
    ASSERT_EQ(all[idx], p);
    ++idx;
  }

  // (c) Accounting identity: everything ingested is on disk exactly once
  // after FlushAll, and written = flushed + rewritten >= ingested.
  Metrics m = db->GetMetrics();
  EXPECT_EQ(m.points_ingested, points.size());
  EXPECT_GE(m.points_flushed, reference.size());
  EXPECT_EQ(m.points_written_total(), m.points_flushed + m.points_rewritten);
  EXPECT_GE(m.WriteAmplification(), 1.0 - 1e-9);

  // (d) Random range queries match brute force.
  for (int trial = 0; trial < 30; ++trial) {
    int64_t lo = rng.UniformInt(-100, 70000);
    int64_t hi = lo + rng.UniformInt(0, 30000);
    std::vector<DataPoint> got;
    ASSERT_TRUE(db->Query(lo, hi, &got).ok());
    std::vector<DataPoint> want;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && it->first <= hi; ++it) {
      want.push_back(it->second);
    }
    ASSERT_EQ(got, want) << "[" << lo << "," << hi << "]";
  }
}

// Query [lo, hi] and compare with the reference, point for point.
::testing::AssertionResult RangeMatches(
    TsEngine* db, const std::map<int64_t, DataPoint>& reference, int64_t lo,
    int64_t hi) {
  std::vector<DataPoint> got;
  Status st = db->Query(lo, hi, &got);
  if (!st.ok()) return ::testing::AssertionFailure() << st.ToString();
  std::vector<DataPoint> want;
  for (auto it = reference.lower_bound(lo);
       it != reference.end() && it->first <= hi; ++it) {
    want.push_back(it->second);
  }
  if (got != want) {
    return ::testing::AssertionFailure()
           << "[" << lo << "," << hi << "]: got " << got.size()
           << " points, want " << want.size();
  }
  return ::testing::AssertionSuccess();
}

// The same workloads, interrupted by the lifecycle steps that drain the
// MemTables: a mid-stream policy switch, a FlushAll, and a WAL checkpoint
// followed by more appends and a reopen that replays them. Answers must
// match the reference and the invariants must hold after every step.
TEST_P(EnginePropertyTest, LifecycleStepsKeepAnswers) {
  const PropertyCase& pc = GetParam();
  SCOPED_TRACE("seed " + std::to_string(pc.seed));
  MemEnv env;
  Options o;
  o.env = &env;
  o.dir = "/db";
  o.policy = pc.policy;
  o.background_mode = pc.background_mode;
  o.sstable_points = 32;
  o.points_per_block = 8;
  o.enable_wal = true;
  auto open = TsEngine::Open(o);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  std::unique_ptr<TsEngine> db = std::move(open).value();

  workload::SyntheticConfig sc;
  sc.num_points = 3000;
  sc.delta_t = 20.0;
  sc.seed = pc.seed;
  dist::LognormalDistribution delay(3.0, pc.sigma);
  auto points = workload::GenerateSynthetic(sc, delay);
  const size_t n = points.size();
  const size_t switch_at = n / 4, flush_at = n / 2, checkpoint_at = 3 * n / 4;
  const size_t reopen_at = checkpoint_at + 50;
  const PolicyConfig switched =
      pc.policy.kind == PolicyKind::kConventional
          ? PolicyConfig::Separation(pc.policy.memtable_capacity,
                                     pc.policy.memtable_capacity / 2)
          : PolicyConfig::Conventional(pc.policy.memtable_capacity);

  std::map<int64_t, DataPoint> reference;
  Rng rng(pc.seed * 13 + 5);
  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    Status st = db->CheckInvariants();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_TRUE(RangeMatches(db.get(), reference,
                             std::numeric_limits<int64_t>::min() / 2,
                             std::numeric_limits<int64_t>::max() / 2));
    for (int trial = 0; trial < 5; ++trial) {
      int64_t lo = rng.UniformInt(-100, 70000);
      ASSERT_TRUE(RangeMatches(db.get(), reference, lo,
                               lo + rng.UniformInt(0, 30000)));
    }
  };
  uint64_t ingested_since_checkpoint = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(db->Append(points[i]).ok()) << "append " << i;
    reference.insert_or_assign(points[i].generation_time, points[i]);
    ++ingested_since_checkpoint;
    if (i == switch_at) {
      ASSERT_TRUE(db->SwitchPolicy(switched).ok());
      ASSERT_NO_FATAL_FAILURE(check("after SwitchPolicy"));
    } else if (i == flush_at) {
      ASSERT_TRUE(db->FlushAll().ok());
      ASSERT_NO_FATAL_FAILURE(check("after FlushAll"));
    } else if (i == checkpoint_at) {
      ASSERT_TRUE(db->Checkpoint().ok());
      ingested_since_checkpoint = 0;
      ASSERT_NO_FATAL_FAILURE(check("after Checkpoint"));
    } else if (i == reopen_at) {
      // Close with the post-checkpoint points still buffered: the reopen
      // must bring them back from the WAL.
      db.reset();
      o.policy = switched;
      auto reopened = TsEngine::Open(o);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      db = std::move(reopened).value();
      EXPECT_EQ(db->GetMetrics().points_ingested, ingested_since_checkpoint);
      ASSERT_NO_FATAL_FAILURE(check("after reopen"));
    }
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_NO_FATAL_FAILURE(check("at the end"));
  Metrics m = db->GetMetrics();
  EXPECT_EQ(m.points_ingested, ingested_since_checkpoint);
  EXPECT_EQ(m.points_written_total(), m.points_flushed + m.points_rewritten);
}

INSTANTIATE_TEST_SUITE_P(Workloads, EnginePropertyTest,
                         ::testing::ValuesIn(Cases()),
                         [](const auto& info) { return info.param.label; });

TEST(EnginePropertyExtraTest, ReopenAfterEveryBatchKeepsData) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.dir = "/db";
  o.policy = PolicyConfig::Conventional(16);
  o.sstable_points = 16;
  o.points_per_block = 8;

  workload::SyntheticConfig sc;
  sc.num_points = 1000;
  sc.delta_t = 10.0;
  sc.seed = 5;
  dist::LognormalDistribution delay(3.0, 1.5);
  auto points = workload::GenerateSynthetic(sc, delay);

  std::map<int64_t, DataPoint> reference;
  size_t cursor = 0;
  while (cursor < points.size()) {
    auto open = TsEngine::Open(o);
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    auto& db = *open;
    size_t batch = std::min<size_t>(250, points.size() - cursor);
    for (size_t i = 0; i < batch; ++i, ++cursor) {
      ASSERT_TRUE(db->Append(points[cursor]).ok());
      reference.insert_or_assign(points[cursor].generation_time,
                                 points[cursor]);
    }
    ASSERT_TRUE(db->FlushAll().ok());
    ASSERT_TRUE(db->CheckInvariants().ok());
  }
  auto open = TsEngine::Open(o);
  ASSERT_TRUE(open.ok());
  std::vector<DataPoint> all;
  ASSERT_TRUE((*open)->Query(-1, 1 << 30, &all).ok());
  EXPECT_EQ(all.size(), reference.size());
}

TEST(EnginePropertyExtraTest, DuplicateHeavyWorkload) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.dir = "/db";
  o.policy = PolicyConfig::Separation(16, 8);
  o.sstable_points = 16;
  o.points_per_block = 4;
  auto open = TsEngine::Open(o);
  ASSERT_TRUE(open.ok());
  auto& db = *open;
  Rng rng(88);
  std::map<int64_t, double> reference;
  // Only 50 distinct keys, written 2000 times: exercises upsert through
  // memtables, flushes and merges.
  for (int i = 0; i < 2000; ++i) {
    int64_t key = rng.UniformInt(0, 49);
    double value = static_cast<double>(i);
    DataPoint p{key, 10000 + i, value};
    ASSERT_TRUE(db->Append(p).ok());
    reference[key] = value;
  }
  ASSERT_TRUE(db->FlushAll().ok());
  std::vector<DataPoint> all;
  ASSERT_TRUE(db->Query(0, 49, &all).ok());
  ASSERT_EQ(all.size(), reference.size());
  for (const auto& p : all) {
    EXPECT_EQ(p.value, reference[p.generation_time])
        << "key " << p.generation_time;
  }
}

}  // namespace
}  // namespace seplsm::engine
