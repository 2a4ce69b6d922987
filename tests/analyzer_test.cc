#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "analyzer/adaptive_controller.h"
#include "analyzer/delay_collector.h"
#include "analyzer/drift_detector.h"
#include "analyzer/fitter.h"
#include "common/random.h"
#include "dist/gamma.h"
#include "dist/parametric.h"
#include "env/mem_env.h"
#include "workload/synthetic.h"

namespace seplsm::analyzer {
namespace {

TEST(DelayCollectorTest, TracksMomentsAndDeltaT) {
  DelayCollector c;
  for (int64_t i = 0; i < 100; ++i) {
    c.Observe({i * 50, i * 50 + 10, 0.0});
  }
  EXPECT_EQ(c.count(), 100u);
  EXPECT_DOUBLE_EQ(c.moments().mean(), 10.0);
  EXPECT_NEAR(c.EstimateDeltaT(), 50.0, 1e-9);
}

TEST(DelayCollectorTest, DeltaTFallbackBeforeTwoPoints) {
  DelayCollector c;
  EXPECT_EQ(c.EstimateDeltaT(123.0), 123.0);
  c.Observe({0, 5, 0.0});
  EXPECT_EQ(c.EstimateDeltaT(123.0), 123.0);
}

TEST(DelayCollectorTest, ResetDelaysKeepsTiming) {
  DelayCollector c;
  for (int64_t i = 0; i < 10; ++i) c.Observe({i * 100, i * 100 + 3, 0.0});
  c.ResetDelays();
  EXPECT_EQ(c.count(), 0u);
  EXPECT_NEAR(c.EstimateDeltaT(), 100.0, 1e-9);
}

TEST(DelayCollectorTest, RecentWindowBounded) {
  DelayCollector c(100, 16);
  for (int64_t i = 0; i < 100; ++i) c.Observe({i, i + i, 0.0});
  EXPECT_EQ(c.RecentSample().size(), 16u);
  // Recent window holds the newest delays.
  EXPECT_DOUBLE_EQ(c.RecentSample().back(), 99.0);
}

TEST(FitterTest, RecoversLognormalParameters) {
  Rng rng(5);
  dist::LognormalDistribution truth(4.0, 1.5);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(truth.Sample(rng));
  auto fit = FitDelayDistribution(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->family, "lognormal");
  auto* ln = dynamic_cast<dist::LognormalDistribution*>(
      fit->distribution.get());
  ASSERT_NE(ln, nullptr);
  EXPECT_NEAR(ln->mu(), 4.0, 0.05);
  EXPECT_NEAR(ln->sigma(), 1.5, 0.05);
}

TEST(FitterTest, RecoversExponential) {
  Rng rng(6);
  dist::ExponentialDistribution truth(200.0);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(truth.Sample(rng));
  auto fit = FitDelayDistribution(sample);
  ASSERT_TRUE(fit.ok());
  // Exponential == Weibull(k=1) is also a lognormal-ish shape; accept either
  // parametric family as long as the KS fit is tight.
  EXPECT_LT(fit->ks_distance, 0.02);
}

TEST(FitterTest, RecoversGamma) {
  Rng rng(15);
  dist::GammaDistribution truth(3.0, 50.0);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(truth.Sample(rng));
  auto fit = FitDelayDistribution(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->ks_distance, 0.02);
  if (fit->family == "gamma") {
    auto* g = dynamic_cast<dist::GammaDistribution*>(fit->distribution.get());
    ASSERT_NE(g, nullptr);
    EXPECT_NEAR(g->shape(), 3.0, 0.3);
    EXPECT_NEAR(g->scale(), 50.0, 5.0);
  }
}

TEST(FitterTest, BimodalFallsBackToEmpirical) {
  Rng rng(7);
  std::vector<double> sample;
  for (int i = 0; i < 5000; ++i) sample.push_back(10.0 + rng.NextDouble());
  for (int i = 0; i < 5000; ++i) sample.push_back(50000.0 + rng.NextDouble());
  auto fit = FitDelayDistribution(sample);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->family, "empirical");
  EXPECT_LT(fit->ks_distance, 0.05);
}

TEST(FitterTest, EmptySampleRejected) {
  EXPECT_FALSE(FitDelayDistribution({}).ok());
}

TEST(ConcurrentFitTest, TwoThreadsFitAtOnceRaceFree) {
  // Two series tuning at once fit on two threads. Gamma's CDF and density
  // evaluate ln Γ, which must not touch shared state (std::lgamma writes
  // the global signgam; a TSan build reports that race). Every concurrent
  // fit must also equal a lone one.
  Rng rng(15);
  dist::GammaDistribution truth(3.0, 50.0);
  std::vector<double> sample;
  for (int i = 0; i < 2000; ++i) sample.push_back(truth.Sample(rng));
  auto lone = FitDelayDistribution(sample);
  ASSERT_TRUE(lone.ok());
  const double lone_pdf = truth.Pdf(150.0);
  std::atomic<int> mismatches{0};
  auto fit_repeatedly = [&] {
    for (int i = 0; i < 20; ++i) {
      auto fit = FitDelayDistribution(sample);
      if (!fit.ok() || fit->family != lone->family ||
          fit->ks_distance != lone->ks_distance ||
          truth.Pdf(150.0) != lone_pdf) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::thread a(fit_repeatedly);
  std::thread b(fit_repeatedly);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(DriftDetectorTest, NoDriftOnSameDistribution) {
  Rng rng(8);
  dist::LognormalDistribution d(4.0, 1.5);
  std::vector<double> ref, recent;
  for (int i = 0; i < 2000; ++i) ref.push_back(d.Sample(rng));
  for (int i = 0; i < 2000; ++i) recent.push_back(d.Sample(rng));
  DriftDetector detector;
  detector.SetReference(std::move(ref));
  EXPECT_FALSE(detector.IsDrift(recent));
}

TEST(DriftDetectorTest, DetectsSigmaChange) {
  Rng rng(9);
  dist::LognormalDistribution before(5.0, 2.0);
  dist::LognormalDistribution after(5.0, 1.0);
  std::vector<double> ref, recent;
  for (int i = 0; i < 2000; ++i) ref.push_back(before.Sample(rng));
  for (int i = 0; i < 2000; ++i) recent.push_back(after.Sample(rng));
  DriftDetector detector;
  detector.SetReference(std::move(ref));
  EXPECT_TRUE(detector.IsDrift(recent));
}

TEST(DriftDetectorTest, TooFewSamplesNeverDrift) {
  DriftDetector detector;
  detector.SetReference({1.0, 2.0, 3.0});
  EXPECT_FALSE(detector.IsDrift({100.0, 200.0}));
}

class AdaptiveControllerTest : public ::testing::Test {
 protected:
  std::unique_ptr<engine::TsEngine> OpenEngine(size_t n = 64) {
    engine::Options o;
    o.env = &env_;
    o.dir = "/db";
    o.policy = engine::PolicyConfig::Conventional(n);
    o.sstable_points = 64;
    auto e = engine::TsEngine::Open(o);
    EXPECT_TRUE(e.ok());
    return std::move(e).value();
  }

  AdaptiveController::Options FastOptions() {
    AdaptiveController::Options o;
    o.warmup_points = 512;
    o.check_interval = 512;
    o.reservoir_capacity = 1024;
    o.recent_window = 512;
    o.tuning.sweep_step = 8;
    return o;
  }

  MemEnv env_;
};

TEST_F(AdaptiveControllerTest, FirstDecisionAfterWarmup) {
  auto db = OpenEngine();
  AdaptiveController controller(db.get(), FastOptions());
  workload::SyntheticConfig sc;
  sc.num_points = 2000;
  sc.delta_t = 50.0;
  dist::LognormalDistribution delay(4.0, 1.5);
  auto points = workload::GenerateSynthetic(sc, delay);
  for (const auto& p : points) {
    ASSERT_TRUE(controller.Observe(p).ok());
    ASSERT_TRUE(db->Append(p).ok());
  }
  ASSERT_GE(controller.decisions().size(), 1u);
  const auto& d = controller.decisions().front();
  EXPECT_GT(d.wa_conventional, 0.0);
  EXPECT_GT(d.wa_separation_best, 0.0);
}

TEST_F(AdaptiveControllerTest, SwitchesOnDrift) {
  auto db = OpenEngine();
  auto options = FastOptions();
  options.drift.min_samples = 256;
  AdaptiveController controller(db.get(), options);

  // Regime 1: almost ordered (conventional wins); regime 2: severe
  // disorder (separation wins).
  workload::SyntheticConfig sc1;
  sc1.num_points = 3000;
  sc1.delta_t = 1000.0;
  sc1.seed = 1;
  dist::UniformDistribution mild(0.0, 5.0);
  auto part1 = workload::GenerateSynthetic(sc1, mild);

  workload::SyntheticConfig sc2;
  sc2.num_points = 3000;
  sc2.delta_t = 10.0;
  sc2.seed = 2;
  sc2.start_time = part1.back().generation_time + 1000;
  dist::LognormalDistribution severe(6.0, 2.0);
  auto part2 = workload::GenerateSynthetic(sc2, severe);

  for (const auto& p : part1) ASSERT_TRUE(controller.Observe(p).ok());
  size_t decisions_after_part1 = controller.decisions().size();
  ASSERT_GE(decisions_after_part1, 1u);
  EXPECT_EQ(controller.decisions().back().chosen.kind,
            engine::PolicyKind::kConventional);

  for (const auto& p : part2) ASSERT_TRUE(controller.Observe(p).ok());
  ASSERT_GT(controller.decisions().size(), decisions_after_part1)
      << "drift should force a re-tune";
  EXPECT_EQ(controller.decisions().back().chosen.kind,
            engine::PolicyKind::kSeparation);
  EXPECT_EQ(db->options().policy.kind, engine::PolicyKind::kSeparation);
}

TEST_F(AdaptiveControllerTest, NoSpuriousSwitchesOnStableStream) {
  auto db = OpenEngine();
  AdaptiveController controller(db.get(), FastOptions());
  workload::SyntheticConfig sc;
  sc.num_points = 6000;
  sc.delta_t = 50.0;
  dist::LognormalDistribution delay(4.0, 1.5);
  auto points = workload::GenerateSynthetic(sc, delay);
  for (const auto& p : points) ASSERT_TRUE(controller.Observe(p).ok());
  size_t switches = 0;
  for (const auto& d : controller.decisions()) switches += d.switched;
  EXPECT_LE(switches, 1u);  // at most the initial switch
}

// The two-regime stream from SwitchesOnDrift, factored for the audit tests:
// guarantees at least two tuning decisions (warmup, then drift).
std::vector<DataPoint> TwoRegimeStream() {
  workload::SyntheticConfig sc1;
  sc1.num_points = 3000;
  sc1.delta_t = 1000.0;
  sc1.seed = 1;
  dist::UniformDistribution mild(0.0, 5.0);
  auto points = workload::GenerateSynthetic(sc1, mild);

  workload::SyntheticConfig sc2;
  sc2.num_points = 3000;
  sc2.delta_t = 10.0;
  sc2.seed = 2;
  sc2.start_time = points.back().generation_time + 1000;
  dist::LognormalDistribution severe(6.0, 2.0);
  auto part2 = workload::GenerateSynthetic(sc2, severe);
  points.insert(points.end(), part2.begin(), part2.end());
  return points;
}

TEST_F(AdaptiveControllerTest, AuditRingRecordsEveryDecision) {
  auto db = OpenEngine();
  auto options = FastOptions();
  options.drift.min_samples = 256;
  AdaptiveController controller(db.get(), options);
  for (const auto& p : TwoRegimeStream()) {
    ASSERT_TRUE(controller.Observe(p).ok());
  }
  ASSERT_GE(controller.decisions().size(), 2u);

  auto audit = controller.AuditLog();
  ASSERT_EQ(audit.size(), controller.decisions().size());
  EXPECT_EQ(controller.audit_dropped(), 0u);
  EXPECT_EQ(audit.front().trigger, "warmup");
  EXPECT_EQ(audit.back().trigger, "drift");
  for (const auto& entry : audit) {
    EXPECT_GT(entry.at_points, 0u);
    EXPECT_GE(entry.ooo_rate, 0.0);
    EXPECT_LE(entry.ooo_rate, 1.0);
    EXPECT_GT(entry.wa_conventional, 0.0);
    EXPECT_GT(entry.wa_separation_best, 0.0);
    EXPECT_FALSE(entry.chosen.empty());
    EXPECT_FALSE(entry.fitted_family.empty());
  }
  // The severe-disorder regime pushed most delays past its Δt.
  EXPECT_GT(audit.back().ooo_rate, audit.front().ooo_rate);

  std::string json = controller.AuditJson();
  EXPECT_NE(json.find("\"entries\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":\"warmup\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST_F(AdaptiveControllerTest, AuditRingEvictsOldestWhenFull) {
  auto db = OpenEngine();
  auto options = FastOptions();
  options.drift.min_samples = 256;
  options.audit_capacity = 1;
  AdaptiveController controller(db.get(), options);
  for (const auto& p : TwoRegimeStream()) {
    ASSERT_TRUE(controller.Observe(p).ok());
  }
  ASSERT_GE(controller.decisions().size(), 2u);
  auto audit = controller.AuditLog();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit.back().trigger, "drift");  // oldest (warmup) evicted
  EXPECT_GE(controller.audit_dropped(), 1u);
}

TEST_F(AdaptiveControllerTest, AuditDisabledByZeroCapacity) {
  auto db = OpenEngine();
  auto options = FastOptions();
  options.audit_capacity = 0;
  AdaptiveController controller(db.get(), options);
  workload::SyntheticConfig sc;
  sc.num_points = 2000;
  sc.delta_t = 50.0;
  dist::LognormalDistribution delay(4.0, 1.5);
  for (const auto& p : workload::GenerateSynthetic(sc, delay)) {
    ASSERT_TRUE(controller.Observe(p).ok());
  }
  ASSERT_GE(controller.decisions().size(), 1u);
  EXPECT_TRUE(controller.AuditLog().empty());
  EXPECT_EQ(controller.audit_dropped(), 0u);
}

}  // namespace
}  // namespace seplsm::analyzer
