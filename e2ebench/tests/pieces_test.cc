// Unit tests for the benchmark's own pieces: the counting Env's tallies on a
// scripted call sequence, the in-memory device's file semantics, and the
// percentile / sample-count rule.
//
//   cmake --build .bench_build --target e2ebench_pieces_test
//   .bench_build/e2ebench_pieces_test

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "counting_env.h"
#include "ram_env.h"
#include "env/mem_env.h"
#include "sampling.h"
#include "trace.h"

namespace e2ebench {
namespace {

using Op = CountingEnv::Op;

TEST(CountingEnvTest, TalliesScriptedSequence) {
  seplsm::MemEnv base;
  CountingEnv env(&base);
  ASSERT_TRUE(env.CreateDirIfMissing("/d").ok());

  std::unique_ptr<seplsm::WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/d/a", &file).ok());
  ASSERT_TRUE(file->Append("hello").ok());
  ASSERT_TRUE(file->Append("world!").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(env.SyncDir("/d").ok());

  std::unique_ptr<seplsm::RandomAccessFile> reader;
  std::string out;
  {
    CountingEnv::QueryScope scope;
    ASSERT_TRUE(env.NewRandomAccessFile("/d/a", &reader).ok());
    ASSERT_TRUE(reader->Read(0, 4, &out).ok());
  }
  ASSERT_TRUE(reader->Read(5, 100, &out).ok());  // short read at EOF
  ASSERT_TRUE(env.RenameFile("/d/a", "/d/b").ok());
  ASSERT_TRUE(env.RemoveFile("/d/b").ok());

  EXPECT_EQ(env.Get(Op::kCreate).calls, 1u);
  EXPECT_EQ(env.Get(Op::kAppend).calls, 2u);
  EXPECT_EQ(env.Get(Op::kAppend).bytes, 11u);
  EXPECT_EQ(env.Get(Op::kSync).calls, 2u);
  EXPECT_EQ(env.Get(Op::kClose).calls, 1u);
  EXPECT_EQ(env.Get(Op::kDirSync).calls, 1u);
  EXPECT_EQ(env.Get(Op::kOpenRead).calls, 1u);
  EXPECT_EQ(env.Get(Op::kRead).calls, 2u);
  EXPECT_EQ(env.Get(Op::kRead).bytes, 4u + 6u);
  EXPECT_EQ(env.Get(Op::kRename).calls, 1u);
  EXPECT_EQ(env.Get(Op::kRemove).calls, 1u);
  EXPECT_EQ(env.Get(Op::kOther).calls, 1u);  // CreateDirIfMissing

  // Only the calls made inside the QueryScope count toward the query path.
  EXPECT_EQ(env.GetQuery(Op::kOpenRead).calls, 1u);
  EXPECT_EQ(env.GetQuery(Op::kRead).calls, 1u);
  EXPECT_EQ(env.GetQuery(Op::kRead).bytes, 4u);
  EXPECT_EQ(env.GetQuery(Op::kAppend).calls, 0u);

  EXPECT_EQ(env.SyncLatenciesNs().size(), 2u);
  env.Reset();
  EXPECT_EQ(env.Get(Op::kAppend).calls, 0u);
  EXPECT_EQ(env.GetQuery(Op::kRead).bytes, 0u);
  EXPECT_TRUE(env.SyncLatenciesNs().empty());
}

TEST(CountingEnvTest, ForwardedCallsAreSpans) {
  seplsm::MemEnv base;
  CountingEnv env(&base);
  Tracer::Get().SetEnabled(true);
  {
    ScopedSpan outer("test.outer");
    ASSERT_TRUE(env.SyncDir("/").ok());
  }
  Tracer::Get().SetEnabled(false);
  auto ledger = Tracer::Get().Ledger();
  ASSERT_EQ(ledger.count("env.dir_sync"), 1u);
  EXPECT_EQ(ledger["env.dir_sync"].count, 1u);
  ASSERT_EQ(ledger.count("test.outer"), 1u);
  // The child's time is excluded from the parent's self time.
  EXPECT_EQ(ledger["test.outer"].self_ns,
            ledger["test.outer"].total_ns - ledger["env.dir_sync"].total_ns);
}

TEST(RamEnvTest, FileSemantics) {
  RamEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("/db/s_a").ok());
  std::unique_ptr<seplsm::WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("/db/s_a/1.sst", &w).ok());
  ASSERT_TRUE(w->Append("abcdef").ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Close().ok());
  EXPECT_FALSE(w->Append("x").ok());  // closed

  std::unique_ptr<seplsm::RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/db/s_a/1.sst", &r).ok());
  std::string out;
  ASSERT_TRUE(r->Read(2, 3, &out).ok());
  EXPECT_EQ(out, "cde");
  ASSERT_TRUE(r->Read(4, 100, &out).ok());  // short read at EOF
  EXPECT_EQ(out, "ef");
  EXPECT_EQ(r->Size(), 6u);

  // An unlinked file stays readable through a handle opened before.
  ASSERT_TRUE(env.RemoveFile("/db/s_a/1.sst").ok());
  EXPECT_FALSE(env.FileExists("/db/s_a/1.sst"));
  ASSERT_TRUE(r->Read(0, 6, &out).ok());
  EXPECT_EQ(out, "abcdef");
  EXPECT_FALSE(env.RemoveFile("/db/s_a/1.sst").ok());

  // Appendable files keep their contents; rename replaces the target.
  ASSERT_TRUE(env.NewAppendableFile("/db/s_a/wal.log.new", &w).ok());
  ASSERT_TRUE(w->Append("12").ok());
  ASSERT_TRUE(env.NewAppendableFile("/db/s_a/wal.log.new", &w).ok());
  ASSERT_TRUE(w->Append("34").ok());
  ASSERT_TRUE(env.RenameFile("/db/s_a/wal.log.new", "/db/s_a/wal.log").ok());
  uint64_t size = 0;
  ASSERT_TRUE(env.GetFileSize("/db/s_a/wal.log", &size).ok());
  EXPECT_EQ(size, 4u);

  // ListDir names direct children only, files and directories alike.
  ASSERT_TRUE(env.CreateDirIfMissing("/db/s_b").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env.ListDir("/db", &children).ok());
  std::sort(children.begin(), children.end());
  EXPECT_EQ(children, (std::vector<std::string>{"s_a", "s_b"}));
  ASSERT_TRUE(env.ListDir("/db/s_a/", &children).ok());
  EXPECT_EQ(children, (std::vector<std::string>{"wal.log"}));
  EXPECT_FALSE(env.ListDir("/missing", &children).ok());
}

TEST(SamplingTest, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT_EQ(Percentile(v, 50), 50.0);
  EXPECT_EQ(Percentile(v, 99), 99.0);
  EXPECT_EQ(Percentile(v, 100), 100.0);
  EXPECT_EQ(Percentile({7.0}, 50), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2.0);
}

TEST(SamplingTest, SampleCountRule) {
  // At least ten samples must lie beyond the reported percentile.
  EXPECT_EQ(MinSamplesFor(50), 20u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(99), 1000u);
  EXPECT_FALSE(EnoughSamples(999, 99));
  EXPECT_TRUE(EnoughSamples(1000, 99));
  EXPECT_FALSE(EnoughSamples(1000000, 100));  // a maximum is not a percentile
  // With exactly the minimum, ten samples exceed the p99 value.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double p99 = Percentile(v, 99);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }),
            10);
}

TEST(SamplingTest, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SamplingTest, BestQuartile) {
  // Twelve passes, the last four slowed by a neighbour: the figure is the
  // third best pass, untouched by the slow ones.
  const std::vector<double> cost = {10, 11, 12, 13, 14, 15, 16, 17,
                                    90, 91, 92, 93};
  EXPECT_EQ(BestQuartile(cost, false), 12.0);
  std::vector<double> rate;
  for (double c : cost) rate.push_back(1000.0 / c);
  EXPECT_EQ(BestQuartile(rate, true), 1000.0 / 12.0);
  // Even with nine slow passes of twelve, it still reads an undisturbed one.
  EXPECT_EQ(BestQuartile({10, 11, 12, 90, 91, 92, 93, 94, 95, 96, 97, 98},
                         false),
            12.0);
  EXPECT_EQ(BestQuartile({5.0}, true), 5.0);
}

}  // namespace
}  // namespace e2ebench
