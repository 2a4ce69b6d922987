#include "model/wa_simulator.h"

#include <gtest/gtest.h>

#include "dist/parametric.h"
#include "engine/ts_engine.h"
#include "env/mem_env.h"
#include "workload/synthetic.h"

namespace seplsm::model {
namespace {

struct SimCase {
  std::string label;
  engine::PolicyConfig policy;
  size_t sstable_points;
  double sigma;
  uint64_t seed;
};

std::vector<SimCase> Cases() {
  return {
      {"conv_small", engine::PolicyConfig::Conventional(16), 32, 1.5, 1},
      {"conv_large_tables", engine::PolicyConfig::Conventional(32), 128, 2.0,
       2},
      {"sep_even", engine::PolicyConfig::Separation(32, 16), 32, 1.5, 3},
      {"sep_tiny_nonseq", engine::PolicyConfig::Separation(32, 28), 64, 2.0,
       4},
      {"sep_tiny_seq", engine::PolicyConfig::Separation(32, 4), 64, 1.0, 5},
  };
}

// Names the parameter in test listings instead of dumping its bytes, which
// hold heap pointers and so would change from run to run.
void PrintTo(const SimCase& c, std::ostream* os) { *os << c.label; }

class WaSimulatorTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(WaSimulatorTest, MatchesEngineExactly) {
  const SimCase& c = GetParam();
  workload::SyntheticConfig sc;
  sc.num_points = 4000;
  sc.delta_t = 20.0;
  sc.seed = c.seed;
  dist::LognormalDistribution delay(3.0, c.sigma);
  auto points = workload::GenerateSynthetic(sc, delay);

  // Real engine.
  MemEnv env;
  engine::Options o;
  o.env = &env;
  o.dir = "/sim";
  o.num_levels = 2;  // the keys-only simulator models the two-level tree
  o.policy = c.policy;
  o.sstable_points = c.sstable_points;
  auto db = engine::TsEngine::Open(o);
  ASSERT_TRUE(db.ok());
  for (const auto& p : points) ASSERT_TRUE((*db)->Append(p).ok());
  ASSERT_TRUE((*db)->FlushAll().ok());
  engine::Metrics real = (*db)->GetMetrics();

  // Keys-only simulator.
  WaSimulator sim(c.policy, c.sstable_points);
  sim.AppendStream(points);
  sim.FlushAll();
  const SimulatedWa& simulated = sim.result();

  EXPECT_EQ(simulated.points_ingested, real.points_ingested);
  EXPECT_EQ(simulated.points_flushed, real.points_flushed);
  EXPECT_EQ(simulated.points_rewritten, real.points_rewritten);
  EXPECT_EQ(simulated.flush_count, real.flush_count);
  EXPECT_EQ(simulated.merge_count, real.merge_count);
  EXPECT_EQ(sim.run_file_count(), (*db)->RunFileCount());
  EXPECT_DOUBLE_EQ(simulated.WriteAmplification(),
                   real.WriteAmplification());
}

INSTANTIATE_TEST_SUITE_P(Configs, WaSimulatorTest,
                         ::testing::ValuesIn(Cases()),
                         [](const auto& info) { return info.param.label; });

TEST(WaSimulatorBasicsTest, OrderedStreamWaOne) {
  WaSimulator sim(engine::PolicyConfig::Conventional(8), 16);
  for (int64_t t = 0; t < 256; ++t) sim.Append(t);
  EXPECT_EQ(sim.result().points_rewritten, 0u);
  EXPECT_DOUBLE_EQ(sim.result().WriteAmplification(), 1.0);
}

TEST(WaSimulatorBasicsTest, DuplicateKeysAreUpserts) {
  WaSimulator sim(engine::PolicyConfig::Conventional(8), 16);
  for (int i = 0; i < 100; ++i) sim.Append(42);
  // Never fills the MemTable: one unique key.
  EXPECT_EQ(sim.result().points_ingested, 100u);
  EXPECT_EQ(sim.result().points_flushed, 0u);
  sim.FlushAll();
  EXPECT_EQ(sim.result().points_flushed, 1u);
}

TEST(WaSimulatorBasicsTest, SeparationAccumulatesBeforeMerge) {
  WaSimulator sim(engine::PolicyConfig::Separation(8, 4), 16);
  // Establish a run, then feed out-of-order points below it.
  for (int64_t t = 0; t < 40; ++t) sim.Append(t * 10);
  uint64_t merges_before = sim.result().merge_count;
  sim.Append(5);
  sim.Append(15);
  sim.Append(25);
  EXPECT_EQ(sim.result().merge_count, merges_before);  // C_nonseq not full
  sim.Append(35);  // fills C_nonseq (capacity 4)
  EXPECT_EQ(sim.result().merge_count, merges_before + 1);
  ASSERT_FALSE(sim.merge_rewrites().empty());
  EXPECT_GT(sim.merge_rewrites().back(), 0u);
}

TEST(WaSimulatorBasicsTest, MuchFasterPathStillCountsFig5) {
  // Sanity: the per-merge rewrite log is populated for model validation.
  workload::SyntheticConfig sc;
  sc.num_points = 20000;
  sc.delta_t = 50.0;
  dist::LognormalDistribution delay(4.0, 1.5);
  auto points = workload::GenerateSynthetic(sc, delay);
  WaSimulator sim(engine::PolicyConfig::Conventional(128), 512);
  sim.AppendStream(points);
  EXPECT_GT(sim.merge_rewrites().size(), 10u);
}

}  // namespace
}  // namespace seplsm::model
