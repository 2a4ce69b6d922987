// Property sweeps over the WA models across every Table II configuration:
// finiteness, lower bounds, directional monotonicity, numeric-option
// robustness of ζ, and simulator-vs-model coherence at scale.

#include <gtest/gtest.h>

#include <cmath>

#include "dist/parametric.h"
#include "model/subsequent_model.h"
#include "model/tuner.h"
#include "model/wa_model.h"
#include "model/wa_simulator.h"
#include "workload/datasets.h"

namespace seplsm::workload {
// Names the parameter in test listings instead of dumping its bytes, which
// hold the `name` string's pointer and so would change from run to run.
void PrintTo(const TableIIConfig& config, std::ostream* os) {
  *os << config.name;
}
}  // namespace seplsm::workload

namespace seplsm::model {
namespace {

class TableIIModelTest
    : public ::testing::TestWithParam<workload::TableIIConfig> {};

TEST_P(TableIIModelTest, PredictionsWellFormed) {
  const auto& config = GetParam();
  auto delay = workload::MakeTableIIDistribution(config);
  WaModel model(*delay, config.delta_t);
  double rc = model.ConventionalWa(512);
  EXPECT_TRUE(std::isfinite(rc));
  EXPECT_GE(rc, 1.0);
  for (size_t nseq : {64u, 256u, 448u}) {
    double rs = model.SeparationWa(512, nseq);
    EXPECT_TRUE(std::isfinite(rs)) << "nseq=" << nseq;
    EXPECT_GE(rs, 1.0);
    // A phase writes every arrival at least once and at most ~twice plus
    // the pre-phase rewrites; sanity-cap against runaway estimates.
    EXPECT_LT(rs, 1000.0);
  }
}

TEST_P(TableIIModelTest, ZetaRobustToQuadratureOptions) {
  const auto& config = GetParam();
  auto delay = workload::MakeTableIIDistribution(config);
  SubsequentModelOptions coarse;
  coarse.quad_segments = 12;
  coarse.quad_points = 6;
  SubsequentModelOptions fine;
  fine.quad_segments = 24;
  fine.quad_points = 12;
  SubsequentModel a(*delay, config.delta_t, coarse);
  SubsequentModel b(*delay, config.delta_t, fine);
  double za = a.Estimate(256);
  double zb = b.Estimate(256);
  // Quadrature resolution shifts the estimate a little; it must stay in a
  // band far narrower than the model-vs-measurement tolerance.
  EXPECT_NEAR(za / std::max(zb, 1e-9), 1.0, 0.25)
      << "coarse=" << za << " fine=" << zb;
}

TEST_P(TableIIModelTest, ZetaRobustToTailSwitch) {
  const auto& config = GetParam();
  auto delay = workload::MakeTableIIDistribution(config);
  SubsequentModelOptions eager;
  eager.tail_switch = 0.05;  // hand off to the union bound earlier
  SubsequentModelOptions patient;
  patient.tail_switch = 0.005;
  SubsequentModel a(*delay, config.delta_t, eager);
  SubsequentModel b(*delay, config.delta_t, patient);
  double za = a.Estimate(128);
  double zb = b.Estimate(128);
  EXPECT_NEAR(za / std::max(zb, 1e-9), 1.0, 0.15);
}

TEST_P(TableIIModelTest, SimulatorAgreesWithModelRanking) {
  // At 200k points the simulator is the ground truth the models must rank
  // correctly whenever the predicted gap is decisive (>25%). This is the
  // granularity-aware model's job — the paper-form model knowingly
  // under-prices whole-SSTable rewrites on mildly disordered data.
  const auto& config = GetParam();
  auto delay = workload::MakeTableIIDistribution(config);
  WaModel model(*delay, config.delta_t);
  model.set_granularity_sstable_points(512);
  double rc = model.ConventionalWa(512);
  double rs = model.SeparationWa(512, 256);

  auto points = workload::GenerateTableII(config, 200'000);
  WaSimulator sim_c(engine::PolicyConfig::Conventional(512), 512);
  sim_c.AppendStream(points);
  WaSimulator sim_s(engine::PolicyConfig::Separation(512, 256), 512);
  sim_s.AppendStream(points);
  double wa_c = sim_c.result().WriteAmplification();
  double wa_s = sim_s.result().WriteAmplification();

  if (rs < rc / 1.25) {
    EXPECT_LT(wa_s, wa_c) << config.name << ": model says pi_s decisively";
  } else if (rc < rs / 1.25) {
    EXPECT_LT(wa_c, wa_s) << config.name << ": model says pi_c decisively";
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, TableIIModelTest,
                         ::testing::ValuesIn(workload::TableII()),
                         [](const auto& info) { return info.param.name; });

TEST(ModelScalePropertyTest, SimulatedWaStableAcrossScale) {
  // WA is a ratio: doubling the stream length must not move it much once
  // past warm-up.
  auto config = workload::TableIIByName("M5");
  auto delay = workload::MakeTableIIDistribution(config);
  double wa[2];
  size_t sizes[2] = {150'000, 300'000};
  for (int i = 0; i < 2; ++i) {
    auto points = workload::GenerateTableII(config, sizes[i], /*seed=*/3);
    WaSimulator sim(engine::PolicyConfig::Conventional(512), 512);
    sim.AppendStream(points);
    wa[i] = sim.result().WriteAmplification();
  }
  EXPECT_NEAR(wa[0] / wa[1], 1.0, 0.12) << wa[0] << " vs " << wa[1];
}

TEST(ModelScalePropertyTest, GranularityCorrectionShrinksWithScale) {
  // As ζ per merge grows (heavier disorder), the granularity correction
  // must monotonically lose influence.
  double previous_gap = 1e9;
  for (double sigma : {1.0, 1.5, 2.0}) {
    dist::LognormalDistribution d(5.0, sigma);
    WaModel plain(d, 50.0);
    WaModel corrected(d, 50.0);
    corrected.set_granularity_sstable_points(512);
    double gap = corrected.ConventionalWa(512) - plain.ConventionalWa(512);
    EXPECT_LE(gap, previous_gap + 1e-9) << "sigma=" << sigma;
    previous_gap = gap;
  }
}

}  // namespace
}  // namespace seplsm::model
