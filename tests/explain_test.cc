// Query EXPLAIN (DESIGN.md §15): the decision trace is purely
// observational. Two invariants carry the whole feature:
//
//  1. Equivalence — answers with an explain attached are bit-identical to
//     answers without one, across fuzzed ranges and all three read APIs.
//  2. Completeness — the explain's aggregate counters equal the
//     PruningStats the same query reports, so no pruning decision escapes
//     the trace.

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/job_scheduler.h"
#include "engine/multi_series_db.h"
#include "engine/ts_engine.h"
#include "env/mem_env.h"
#include "storage/query_explain.h"
#include "storage/sstable.h"

namespace seplsm::engine {
namespace {

double Reading(int64_t t) { return std::sin(t * 0.017) * 25.0 + (t % 13); }

Options BaseOptions(Env* env, const std::string& dir) {
  Options o;
  o.env = env;
  o.dir = dir;
  o.num_levels = 2;  // pin: accounting-sensitive assertions below
  o.policy = PolicyConfig::Separation(256, 128);
  o.sstable_points = 256;
  o.points_per_block = 32;
  o.summary_window = 64;
  return o;
}

/// A mildly disordered stream with a buffered tail, so queries cross
/// flushed files, level-0 stragglers, and the memtable.
std::vector<DataPoint> MakeTrace(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<DataPoint> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t t = static_cast<int64_t>(i);
    int64_t delay =
        (rng.UniformU64(10) == 0) ? rng.UniformInt(0, 39) : 0;
    int64_t tg = t > delay ? t - delay : t;
    trace.push_back({tg, t, Reading(tg)});
  }
  return trace;
}

class ExplainEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = TsEngine::Open(BaseOptions(&env_, "/db"));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    auto trace = MakeTrace(6000, 42);
    ASSERT_TRUE(db_->AppendBatch(trace.data(), trace.size()).ok());
    // Leave the last chunk buffered: the memtable path must also be
    // equivalence-covered (RecordMemtableScan).
  }

  MemEnv env_;
  std::unique_ptr<TsEngine> db_;
};

TEST_F(ExplainEquivalenceTest, FuzzedQueriesBitIdentical) {
  Rng rng(7);
  const int64_t max_t = 6000;
  for (int i = 0; i < 60; ++i) {
    int64_t lo = rng.UniformInt(0, max_t - 1);
    int64_t hi = rng.UniformInt(lo, max_t);

    std::vector<DataPoint> plain;
    ASSERT_TRUE(db_->Query(lo, hi, &plain).ok());

    storage::QueryExplain explain;
    QueryStats stats;
    stats.explain = &explain;
    std::vector<DataPoint> traced;
    ASSERT_TRUE(db_->Query(lo, hi, &traced, &stats).ok());

    ASSERT_EQ(plain.size(), traced.size()) << "range [" << lo << "," << hi
                                           << "]";
    for (size_t k = 0; k < plain.size(); ++k) {
      EXPECT_EQ(plain[k], traced[k]);
    }
  }
}

TEST_F(ExplainEquivalenceTest, FuzzedAggregatesBitIdentical) {
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    int64_t lo = rng.UniformInt(0, 5999);
    int64_t hi = rng.UniformInt(lo, 6000);

    Aggregates plain;
    ASSERT_TRUE(db_->Aggregate(lo, hi, &plain).ok());

    storage::QueryExplain explain;
    QueryStats stats;
    stats.explain = &explain;
    Aggregates traced;
    ASSERT_TRUE(db_->Aggregate(lo, hi, &traced, &stats).ok());

    EXPECT_EQ(plain.count, traced.count);
    EXPECT_EQ(plain.sum, traced.sum);  // bitwise: same code path, same order
    EXPECT_EQ(plain.min, traced.min);
    EXPECT_EQ(plain.max, traced.max);
    EXPECT_EQ(plain.first_time, traced.first_time);
    EXPECT_EQ(plain.last_time, traced.last_time);
  }
}

TEST_F(ExplainEquivalenceTest, FuzzedDownsamplesBitIdentical) {
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    int64_t lo = rng.UniformInt(0, 5999);
    int64_t hi = rng.UniformInt(lo, 6000);
    int64_t bucket = rng.UniformInt(1, 300);

    std::vector<TimeBucket> plain;
    ASSERT_TRUE(db_->Downsample(lo, hi, bucket, &plain).ok());

    storage::QueryExplain explain;
    QueryStats stats;
    stats.explain = &explain;
    std::vector<TimeBucket> traced;
    ASSERT_TRUE(db_->Downsample(lo, hi, bucket, &traced, &stats).ok());

    ASSERT_EQ(plain.size(), traced.size());
    for (size_t k = 0; k < plain.size(); ++k) {
      EXPECT_EQ(plain[k].bucket_start, traced[k].bucket_start);
      EXPECT_EQ(plain[k].aggregates.count, traced[k].aggregates.count);
      EXPECT_EQ(plain[k].aggregates.sum, traced[k].aggregates.sum);
      EXPECT_EQ(plain[k].aggregates.min, traced[k].aggregates.min);
      EXPECT_EQ(plain[k].aggregates.max, traced[k].aggregates.max);
    }
  }
}

TEST_F(ExplainEquivalenceTest, AggregatesMatchPruningStats) {
  // The completeness invariant: explain totals == the PruningStats of the
  // very same query, for every fuzzed range and both read shapes.
  Rng rng(17);
  bool saw_file_skip = false, saw_summary = false;
  for (int i = 0; i < 60; ++i) {
    int64_t lo = rng.UniformInt(0, 5999);
    int64_t hi = rng.UniformInt(lo, 6000);

    storage::QueryExplain explain;
    QueryStats stats;
    stats.explain = &explain;
    if (i % 2 == 0) {
      std::vector<DataPoint> out;
      ASSERT_TRUE(db_->Query(lo, hi, &out, &stats).ok());
    } else {
      Aggregates agg;
      ASSERT_TRUE(db_->Aggregate(lo, hi, &agg, &stats).ok());
    }
    EXPECT_EQ(explain.files_skipped(), stats.pruning.files_skipped);
    EXPECT_EQ(explain.blocks_skipped(), stats.pruning.blocks_skipped);
    EXPECT_EQ(explain.blooms_negative(), stats.pruning.blooms_negative);
    EXPECT_EQ(explain.summary_hits(), stats.pruning.summary_hits);
    saw_file_skip = saw_file_skip || explain.files_skipped() > 0;
    saw_summary = saw_summary || explain.summary_hits() > 0;
  }
  // The workload must actually exercise the pruning paths, or the
  // equalities above are vacuous.
  EXPECT_TRUE(saw_file_skip);
  EXPECT_TRUE(saw_summary);
}

TEST_F(ExplainEquivalenceTest, EventBoundKeepsTotals) {
  storage::QueryExplain small(/*max_events=*/4);
  QueryStats stats;
  stats.explain = &small;
  std::vector<DataPoint> out;
  ASSERT_TRUE(db_->Query(0, 6000, &out, &stats).ok());
  EXPECT_LE(small.events().size(), 4u);
  EXPECT_GT(small.dropped_events(), 0u);
  // Aggregates keep counting past the bound.
  EXPECT_EQ(small.files_skipped(), stats.pruning.files_skipped);
  EXPECT_EQ(small.blocks_skipped(), stats.pruning.blocks_skipped);
  EXPECT_GT(small.files_opened(), 4u);

  small.Clear();
  EXPECT_TRUE(small.events().empty());
  EXPECT_EQ(small.dropped_events(), 0u);
  EXPECT_EQ(small.files_opened(), 0u);
}

TEST_F(ExplainEquivalenceTest, JsonAndTextRenderEvents) {
  storage::QueryExplain explain;
  QueryStats stats;
  stats.explain = &explain;
  Aggregates agg;
  ASSERT_TRUE(db_->Aggregate(100, 2000, &agg, &stats).ok());
  ASSERT_FALSE(explain.events().empty());
  std::string json = explain.ToJson();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_FALSE(explain.ToText().empty());
}

TEST(ExplainBlockAttributionTest, BlockEventsNameTheirOwnFile) {
  // One query merges blocks of several open files in turn, so every block
  // event must carry the file it came from. Tables are written straight
  // into the directory: recovery puts the disjoint ones (1, 4) in level 1
  // and the overlapping stragglers (2, 3) in level 0.
  MemEnv env;
  auto write = [&](uint64_t number, int64_t first, int64_t last,
                   int64_t step) {
    storage::SSTableWriter writer(&env, storage::TableFilePath("/db", number),
                                  /*points_per_block=*/32);
    for (int64_t t = first; t <= last; t += step) {
      ASSERT_TRUE(writer.Add({t, t, Reading(t)}).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  };
  write(1, 0, 990, 10);
  write(2, 505, 1495, 10);
  write(3, 702, 1302, 20);
  write(4, 1000, 1990, 10);

  // The scheduler's only worker is held by a job the test owns, so the
  // engine's level-0 compaction stays queued while the query runs. The
  // engine is declared first so that it is destroyed last: its destructor
  // waits for its queued job, which needs the worker back.
  auto scheduler = std::make_shared<JobScheduler>(1);
  std::unique_ptr<TsEngine> db;
  std::promise<void> started, release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_TRUE(scheduler
                  ->Submit(scheduler->RegisterToken(),
                           JobScheduler::JobKind::kFlush,
                           [&started, released](uint64_t) {
                             started.set_value();
                             released.wait();
                           })
                  .ok());
  started.get_future().wait();
  struct Release {
    std::promise<void>* p;
    ~Release() { p->set_value(); }
  } guard{&release};

  Options o = BaseOptions(&env, "/db");
  o.background_mode = true;
  o.job_scheduler = scheduler;
  auto opened = TsEngine::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(opened).value();
  ASSERT_EQ(db->LevelFileCount(0), 2u);
  ASSERT_EQ(db->LevelFileCount(1), 2u);

  const int64_t lo = 600, hi = 1400;
  storage::QueryExplain explain;
  QueryStats stats;
  stats.explain = &explain;
  std::vector<DataPoint> out;
  ASSERT_TRUE(db->Query(lo, hi, &out, &stats).ok());

  std::map<uint64_t, uint64_t> reads, skips;
  std::map<uint64_t, int32_t> levels;
  for (const auto& e : explain.events()) {
    using Kind = storage::QueryExplain::EventKind;
    if (e.kind == Kind::kFileOpened) levels[e.file_number] = e.level;
    if (e.kind == Kind::kBlockRead) reads[e.file_number] += e.count;
    if (e.kind == Kind::kBlockSkippedIndex) skips[e.file_number] += e.count;
  }
  EXPECT_EQ(explain.dropped_events(), 0u);
  EXPECT_EQ(levels, (std::map<uint64_t, int32_t>{{1, 1}, {2, 0}, {3, 0},
                                                 {4, 1}}));
  for (uint64_t number = 1; number <= 4; ++number) {
    auto reader = storage::SSTableReader::Open(
        &env, storage::TableFilePath("/db", number));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    storage::ReadStats own;
    std::vector<DataPoint> points;
    ASSERT_TRUE((*reader)->ReadRange(lo, hi, &points, &own).ok());
    EXPECT_GT(own.blocks_read, 0u) << "file " << number;
    EXPECT_EQ(reads[number], own.blocks_read) << "file " << number;
    EXPECT_EQ(skips[number], own.blocks_skipped) << "file " << number;
  }
}

TEST(ExplainBloomTest, SeriesBloomRejectionIsTraced) {
  MemEnv env;
  MultiSeriesDB::MultiOptions mopts;
  mopts.base = BaseOptions(&env, "/multi");
  mopts.series_bloom = true;
  auto db = MultiSeriesDB::Open(std::move(mopts));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Append("exists", {1, 1, 1.0}).ok());

  storage::QueryExplain explain;
  QueryStats stats;
  stats.explain = &explain;
  std::vector<DataPoint> out;
  Status st = (*db)->Query("never-written", 0, 10, &out, &stats);
  EXPECT_TRUE(st.IsNotFound());
  // The bloom-negative path resets *stats; the explain attachment and its
  // event must survive that reset.
  EXPECT_EQ(stats.explain, &explain);
  EXPECT_EQ(stats.pruning.blooms_negative, 1u);
  EXPECT_EQ(explain.blooms_negative(), 1u);
  ASSERT_EQ(explain.events().size(), 1u);
  EXPECT_EQ(explain.events()[0].kind,
            storage::QueryExplain::EventKind::kBloomNegative);
  EXPECT_EQ(explain.events()[0].detail, "never-written");
}

}  // namespace
}  // namespace seplsm::engine
