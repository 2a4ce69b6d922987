// Configuration-matrix test: one disordered workload driven through every
// combination of {policy} x {WAL} x {value encoding} x {table cache} x
// {sstable size}, each verified for (a) exact query correctness against a
// brute-force reference and (b) engine invariants. Guards against feature
// interactions (e.g. WAL replay + Gorilla blocks + cache eviction).

#include <gtest/gtest.h>

#include <map>

#include "dist/parametric.h"
#include "engine/ts_engine.h"
#include "env/mem_env.h"
#include "workload/synthetic.h"

namespace seplsm::engine {
namespace {

struct MatrixCase {
  std::string label;
  PolicyConfig policy;
  bool wal;
  format::ValueEncoding encoding;
  size_t cache;
  size_t sstable_points;
};

std::vector<MatrixCase> Cases() {
  std::vector<MatrixCase> cases;
  int i = 0;
  for (auto policy : {PolicyConfig::Conventional(16),
                      PolicyConfig::Separation(16, 8)}) {
    for (bool wal : {false, true}) {
      for (auto encoding :
           {format::ValueEncoding::kRaw, format::ValueEncoding::kGorilla}) {
        for (size_t cache : {size_t{0}, size_t{4}}) {
          for (size_t sstable : {size_t{8}, size_t{64}}) {
            MatrixCase c;
            c.label = "case_" + std::to_string(i++) +
                      (policy.kind == PolicyKind::kSeparation ? "_sep"
                                                              : "_conv") +
                      (wal ? "_wal" : "") +
                      (encoding == format::ValueEncoding::kGorilla
                           ? "_gorilla"
                           : "") +
                      (cache ? "_cache" : "") + "_sst" +
                      std::to_string(sstable);
            c.policy = policy;
            c.wal = wal;
            c.encoding = encoding;
            c.cache = cache;
            c.sstable_points = sstable;
            cases.push_back(c);
          }
        }
      }
    }
  }
  return cases;
}

// Names the parameter in test listings instead of dumping its bytes, which
// hold heap pointers and so would change from run to run.
void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.label; }

class EngineMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrixTest, CorrectUnderAllFeatureCombinations) {
  const MatrixCase& c = GetParam();
  MemEnv env;
  Options o;
  o.env = &env;
  o.dir = "/matrix";
  o.policy = c.policy;
  o.enable_wal = c.wal;
  o.value_encoding = c.encoding;
  o.table_cache_entries = c.cache;
  o.sstable_points = c.sstable_points;
  o.points_per_block = 4;
  auto open = TsEngine::Open(o);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  auto& db = *open;

  workload::SyntheticConfig sc;
  sc.num_points = 1200;
  sc.delta_t = 20.0;
  sc.seed = 99;
  dist::LognormalDistribution delay(3.5, 1.5);
  auto points = workload::GenerateSynthetic(sc, delay);

  std::map<int64_t, DataPoint> reference;
  for (const auto& p : points) {
    ASSERT_TRUE(db->Append(p).ok());
    reference.insert_or_assign(p.generation_time, p);
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->CheckInvariants().ok());

  std::vector<DataPoint> all;
  ASSERT_TRUE(db->Query(-1000, 1 << 30, &all).ok());
  ASSERT_EQ(all.size(), reference.size());
  size_t idx = 0;
  for (const auto& [tg, p] : reference) {
    ASSERT_EQ(all[idx], p) << "key " << tg;
    ++idx;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, EngineMatrixTest,
                         ::testing::ValuesIn(Cases()),
                         [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace seplsm::engine
