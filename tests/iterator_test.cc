// Unit tests for the streaming iterator layer (storage/iterator.h): the
// adapters, the block-streaming SSTable cursor, concatenation over disjoint
// children, the k-way dedup merge, and the iterator-driven table writer the
// compaction path is built on. The dedup tie-break rules are pinned here as
// API contract — the engine's newer-wins upsert semantics depend on them.

#include "storage/iterator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <utility>

#include "common/random.h"
#include "env/fault_env.h"
#include "env/mem_env.h"
#include "storage/block_cache.h"
#include "storage/memtable.h"
#include "storage/sstable.h"

namespace seplsm::storage {
namespace {

std::vector<DataPoint> MakePoints(size_t n, int64_t start = 0,
                                  int64_t step = 10) {
  std::vector<DataPoint> points(n);
  for (size_t i = 0; i < n; ++i) {
    points[i].generation_time = start + static_cast<int64_t>(i) * step;
    points[i].arrival_time = points[i].generation_time + 5;
    points[i].value = static_cast<double>(i);
  }
  return points;
}

std::vector<DataPoint> DrainIterator(PointIterator* it) {
  std::vector<DataPoint> out;
  while (it->Valid()) {
    out.push_back(it->point());
    it->Next();
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  return out;
}

/// Yields `points`, then turns invalid carrying `error` — models a child
/// whose backing read failed partway through.
class FailingIterator final : public PointIterator {
 public:
  FailingIterator(std::vector<DataPoint> points, Status error)
      : points_(std::move(points)), error_(std::move(error)) {}

  bool Valid() const override { return pos_ < points_.size(); }
  void Next() override { ++pos_; }
  const DataPoint& point() const override { return points_[pos_]; }
  Status status() const override {
    return Valid() ? Status::OK() : error_;
  }

 private:
  std::vector<DataPoint> points_;
  Status error_;
  size_t pos_ = 0;
};

TEST(VectorIteratorTest, BorrowedScanYieldsAll) {
  auto points = MakePoints(25);
  VectorIterator it(&points);
  EXPECT_EQ(DrainIterator(&it), points);
}

TEST(VectorIteratorTest, OwnedScanYieldsAll) {
  auto points = MakePoints(7);
  VectorIterator it(points);  // copy: iterator owns its storage
  EXPECT_EQ(DrainIterator(&it), points);
}

TEST(VectorIteratorTest, EmptyIsImmediatelyInvalid) {
  std::vector<DataPoint> empty;
  VectorIterator it(&empty);
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

TEST(MemTableViewIteratorTest, YieldsSortedUpsertedContents) {
  MemTable mem(64);
  mem.Add({30, 1, 3.0});
  mem.Add({10, 2, 1.0});
  mem.Add({20, 3, 2.0});
  mem.Add({10, 4, 9.0});  // upsert: replaces the first value at t=10
  MemTableViewIterator it(mem.SnapshotView());
  auto out = DrainIterator(&it);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].generation_time, 10);
  EXPECT_EQ(out[0].value, 9.0);
  EXPECT_EQ(out[1].generation_time, 20);
  EXPECT_EQ(out[2].generation_time, 30);
}

TEST(MemTableViewIteratorTest, EmptyViewIsInvalid) {
  MemTable mem(4);
  MemTableViewIterator it(mem.SnapshotView());
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

class SSTableIteratorTest : public ::testing::Test {
 protected:
  FileMetadata WriteTable(const std::vector<DataPoint>& points,
                          const std::string& path,
                          size_t points_per_block = 16) {
    SSTableWriter writer(&env_, path, points_per_block);
    for (const auto& p : points) EXPECT_TRUE(writer.Add(p).ok());
    auto meta = writer.Finish();
    EXPECT_TRUE(meta.ok()) << meta.status().ToString();
    return *meta;
  }

  std::unique_ptr<SSTableReader> MustOpen(const std::string& path,
                                          BlockCacheHandle cache = {}) {
    auto reader = SSTableReader::Open(&env_, path, cache);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    return std::move(reader).value();
  }

  MemEnv env_;
};

TEST_F(SSTableIteratorTest, FullScanMatchesReadAll) {
  auto points = MakePoints(100);
  WriteTable(points, "/t.sst");
  auto reader = MustOpen("/t.sst");
  auto it = reader->NewIterator();
  EXPECT_EQ(DrainIterator(it.get()), points);
}

TEST_F(SSTableIteratorTest, RangeScanMatchesReadRange) {
  Rng rng(7);
  std::vector<DataPoint> points;
  int64_t t = 0;
  for (int i = 0; i < 1500; ++i) {
    t += 1 + static_cast<int64_t>(rng.UniformU64(9));
    points.push_back({t, t + 1, static_cast<double>(i)});
  }
  WriteTable(points, "/t.sst", 32);
  auto reader = MustOpen("/t.sst");
  for (int trial = 0; trial < 40; ++trial) {
    ReadOptions opts;
    opts.lo = rng.UniformInt(0, t);
    opts.hi = opts.lo + rng.UniformInt(0, 400);
    auto it = reader->NewIterator(opts);
    std::vector<DataPoint> want;
    ASSERT_TRUE(reader->ReadRange(opts.lo, opts.hi, &want).ok());
    EXPECT_EQ(DrainIterator(it.get()), want)
        << "[" << opts.lo << ", " << opts.hi << "]";
  }
}

TEST_F(SSTableIteratorTest, DrainedStatsEqualReadRangeStats) {
  // Queries stream tables through this iterator while replays call
  // ReadRange: both must account a range identically — blocks past `hi`
  // count as skipped on both — or the pruning counters drift. Each side
  // reads through its own cache, so hit/miss sequences match as well.
  auto points = MakePoints(100, 0, 10);  // keys 0..990, 7 blocks of 16
  WriteTable(points, "/t.sst", 16);      // block k spans [160k, 160k+150]
  BlockCache cache_a(1 << 20, 1), cache_b(1 << 20, 1);
  auto streamed_reader = MustOpen("/t.sst", BlockCacheHandle{&cache_a, 1, 1});
  auto ranged_reader = MustOpen("/t.sst", BlockCacheHandle{&cache_b, 1, 1});
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, 990},     {kMin, kMax},  // the whole file
      {0, 0},       {990, 990},    // first and last point
      {150, 160},   {160, 310},    // block edges
      {151, 159},                  // empty: the gap between two blocks
      {kMin, -1},   {991, kMax},   // empty: before and after the file
      {500, 400},                  // empty: inverted
      {500, 510},   {300, 700},  {0, 500},  {500, 990}};
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const int64_t lo = rng.UniformInt(-50, 1040);
    ranges.emplace_back(lo, lo + rng.UniformInt(0, 600));
  }
  for (auto [lo, hi] : ranges) {
    ReadStats streamed, ranged;
    ReadOptions opts;
    opts.lo = lo;
    opts.hi = hi;
    opts.stats = &streamed;
    auto it = streamed_reader->NewIterator(opts);
    auto got = DrainIterator(it.get());
    std::vector<DataPoint> want;
    ASSERT_TRUE(ranged_reader->ReadRange(lo, hi, &want, &ranged).ok());
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << "]");
    EXPECT_EQ(got, want);
    EXPECT_EQ(streamed.points_scanned, ranged.points_scanned);
    EXPECT_EQ(streamed.device_bytes_read, ranged.device_bytes_read);
    EXPECT_EQ(streamed.blocks_read, ranged.blocks_read);
    EXPECT_EQ(streamed.blocks_skipped, ranged.blocks_skipped);
    EXPECT_EQ(streamed.cache_hits, ranged.cache_hits);
    EXPECT_EQ(streamed.cache_misses, ranged.cache_misses);
    EXPECT_EQ(streamed.blocks_read + streamed.cache_hits +
                  streamed.blocks_skipped,
              7u);  // every block is either read or skipped, once
  }
}

TEST_F(SSTableIteratorTest, StatsAccountScannedPointsAndBlocks) {
  auto points = MakePoints(100);  // 7 blocks of 16
  WriteTable(points, "/t.sst", 16);
  auto reader = MustOpen("/t.sst");
  ReadStats stats;
  ReadOptions opts;
  opts.stats = &stats;
  auto it = reader->NewIterator(opts);
  DrainIterator(it.get());
  EXPECT_EQ(stats.points_scanned, 100u);
  EXPECT_EQ(stats.blocks_read, 7u);
  EXPECT_GT(stats.device_bytes_read, 0u);
}

TEST_F(SSTableIteratorTest, LoadsBlocksLazilyOneAtATime) {
  auto points = MakePoints(100, 0, 10);  // keys 0..990, 7 blocks of 16
  WriteTable(points, "/t.sst", 16);
  auto reader = MustOpen("/t.sst");
  // Touching only the first point must read only the first block — the
  // bounded-memory claim rests on blocks being pulled on demand.
  ReadStats stats;
  ReadOptions opts;
  opts.stats = &stats;
  auto it = reader->NewIterator(opts);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->point().generation_time, 0);
  EXPECT_EQ(stats.blocks_read, 1u);
  // A range confined to one middle block skips the rest via the index.
  ReadStats mid_stats;
  ReadOptions mid;
  mid.lo = 500;
  mid.hi = 510;
  mid.stats = &mid_stats;
  auto mid_it = reader->NewIterator(mid);
  auto got = DrainIterator(mid_it.get());
  ASSERT_EQ(got.size(), 2u);  // 500, 510
  EXPECT_EQ(mid_stats.blocks_read, 1u);
}

TEST_F(SSTableIteratorTest, FillCacheFalseServesHitsButNeverInserts) {
  BlockCache cache(1 << 20, 1);
  auto points = MakePoints(64);
  WriteTable(points, "/a.sst", 16);
  WriteTable(MakePoints(64, 10000), "/b.sst", 16);
  auto a = MustOpen("/a.sst", {&cache, 1, 1});
  auto b = MustOpen("/b.sst", {&cache, 1, 2});

  // Warm the cache with table a (default fill_cache=true).
  {
    auto it = a->NewIterator();
    DrainIterator(it.get());
  }
  const size_t entries_after_warm = cache.TotalEntries();
  const uint64_t inserts_after_warm = cache.inserts();
  EXPECT_EQ(entries_after_warm, 4u);  // 64 points / 16 per block

  // A fill_cache=false scan of table b reads the device but inserts nothing.
  {
    ReadStats stats;
    ReadOptions opts;
    opts.fill_cache = false;
    opts.stats = &stats;
    auto it = b->NewIterator(opts);
    DrainIterator(it.get());
    EXPECT_EQ(stats.cache_misses, 4u);
    EXPECT_GT(stats.device_bytes_read, 0u);
  }
  EXPECT_EQ(cache.TotalEntries(), entries_after_warm);
  EXPECT_EQ(cache.inserts(), inserts_after_warm);

  // Cached blocks are still served to a fill_cache=false scan: zero device
  // reads for table a the second time around.
  {
    ReadStats stats;
    ReadOptions opts;
    opts.fill_cache = false;
    opts.stats = &stats;
    auto it = a->NewIterator(opts);
    EXPECT_EQ(DrainIterator(it.get()), points);
    EXPECT_EQ(stats.cache_hits, 4u);
    EXPECT_EQ(stats.device_bytes_read, 0u);
  }
}

TEST(ConcatenatingIteratorTest, ChainsDisjointChildrenInOrder) {
  auto all = MakePoints(30);
  std::vector<std::unique_ptr<PointIterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<DataPoint>(all.begin(), all.begin() + 10)));
  children.push_back(
      std::make_unique<VectorIterator>(std::vector<DataPoint>{}));  // empty
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<DataPoint>(all.begin() + 10, all.end())));
  ConcatenatingIterator it(std::move(children));
  EXPECT_EQ(DrainIterator(&it), all);
}

TEST(ConcatenatingIteratorTest, OrderViolationSurfacesInternal) {
  std::vector<std::unique_ptr<PointIterator>> children;
  children.push_back(
      std::make_unique<VectorIterator>(MakePoints(5, 100)));  // 100..140
  children.push_back(
      std::make_unique<VectorIterator>(MakePoints(5, 0)));  // 0..40: earlier!
  ConcatenatingIterator it(std::move(children));
  size_t emitted = 0;
  while (it.Valid()) {
    ++emitted;
    it.Next();
  }
  EXPECT_EQ(emitted, 5u);  // the first child streams fine
  EXPECT_TRUE(it.status().IsInternal()) << it.status().ToString();
}

std::unique_ptr<MergingIterator> MergeOf(
    std::vector<std::vector<DataPoint>> sources) {
  std::vector<std::unique_ptr<PointIterator>> children;
  for (auto& s : sources) {
    children.push_back(std::make_unique<VectorIterator>(std::move(s)));
  }
  return std::make_unique<MergingIterator>(std::move(children));
}

TEST(MergingIteratorTest, NoChildrenIsEmptyAndOk) {
  MergingIterator it({});
  EXPECT_FALSE(it.Valid());
  EXPECT_TRUE(it.status().ok());
}

TEST(MergingIteratorTest, AllEmptyChildren) {
  auto it = MergeOf({{}, {}, {}});
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST(MergingIteratorTest, SingleSourcePassesThrough) {
  auto points = MakePoints(50);
  auto it = MergeOf({points});
  EXPECT_EQ(DrainIterator(it.get()), points);
}

TEST(MergingIteratorTest, TwoWayInterleave) {
  std::vector<DataPoint> odd, even;
  for (int64_t t = 0; t < 40; ++t) {
    ((t % 2 == 0) ? even : odd).push_back({t, t, static_cast<double>(t)});
  }
  auto it = MergeOf({odd, even});
  auto out = DrainIterator(it.get());
  ASSERT_EQ(out.size(), 40u);
  for (int64_t t = 0; t < 40; ++t) {
    EXPECT_EQ(out[static_cast<size_t>(t)].generation_time, t);
  }
}

TEST(MergingIteratorTest, EqualTimesLowestIndexChildWins) {
  // Children are given newest-first; pinning this tie-break is what makes
  // the streaming merge reproduce the engine's newer-wins upsert exactly.
  std::vector<DataPoint> newer = {{5, 50, 1.0}};
  std::vector<DataPoint> older = {{5, 40, 2.0}};
  {
    auto it = MergeOf({newer, older});
    auto out = DrainIterator(it.get());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value, 1.0);
  }
  {
    // Reversing the child order flips the winner: precedence is positional.
    auto it = MergeOf({older, newer});
    auto out = DrainIterator(it.get());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value, 2.0);
  }
}

TEST(MergingIteratorTest, WithinChildDuplicatesCollapse) {
  // A single child carrying the same generation time twice emits only the
  // first occurrence — Next() consumes every point at the emitted time.
  std::vector<DataPoint> child = {{5, 1, 1.0}, {5, 2, 2.0}, {7, 3, 3.0}};
  auto it = MergeOf({child});
  auto out = DrainIterator(it.get());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].generation_time, 5);
  EXPECT_EQ(out[0].value, 1.0);
  EXPECT_EQ(out[1].generation_time, 7);
}

TEST(MergingIteratorTest, SixteenWayStripedMerge) {
  std::vector<std::vector<DataPoint>> sources(16);
  for (int64_t t = 0; t < 1000; ++t) {
    sources[static_cast<size_t>(t % 16)].push_back(
        {t, t, static_cast<double>(t)});
  }
  auto it = MergeOf(std::move(sources));
  auto out = DrainIterator(it.get());
  ASSERT_EQ(out.size(), 1000u);
  for (int64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(out[static_cast<size_t>(t)].generation_time, t);
  }
}

TEST(MergingIteratorTest, ChildErrorStopsMergeWithStatus) {
  std::vector<std::unique_ptr<PointIterator>> children;
  children.push_back(std::make_unique<FailingIterator>(
      MakePoints(2, 0), Status::IOError("read failed")));
  children.push_back(std::make_unique<VectorIterator>(MakePoints(5, 100)));
  MergingIterator it(std::move(children));
  size_t emitted = 0;
  while (it.Valid()) {
    ++emitted;
    it.Next();
  }
  // The failing child's own points stream out, but the moment it reports an
  // error the merge stops — it must NOT silently continue with the healthy
  // child and produce a table missing the failed child's tail.
  EXPECT_LE(emitted, 2u);
  EXPECT_TRUE(it.status().IsIOError()) << it.status().ToString();
}

class TableWriterIteratorTest : public ::testing::Test {
 protected:
  std::vector<DataPoint> ReadBack(Env* env, const FileMetadata& meta) {
    auto reader = SSTableReader::Open(env, meta.path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    std::vector<DataPoint> out;
    EXPECT_TRUE((*reader)->ReadAll(&out).ok());
    return out;
  }

  std::vector<std::string> SstFiles(Env* env, const std::string& dir) {
    std::vector<std::string> children;
    EXPECT_TRUE(env->ListDir(dir, &children).ok());
    std::vector<std::string> ssts;
    for (const auto& c : children) {
      if (c.size() > 4 && c.substr(c.size() - 4) == ".sst") {
        ssts.push_back(c);
      }
    }
    return ssts;
  }

  MemEnv env_;
};

TEST_F(TableWriterIteratorTest, MatchesVectorOverload) {
  auto points = MakePoints(1000);
  uint64_t next_vec = 1;
  std::vector<FileMetadata> vec_files;
  ASSERT_TRUE(WriteSortedPointsAsTables(&env_, "/vec", points, 300, 64,
                                        &next_vec, &vec_files)
                  .ok());
  uint64_t next_it = 1;
  std::vector<FileMetadata> it_files;
  VectorIterator input(&points);
  ASSERT_TRUE(WriteSortedPointsAsTables(&env_, "/it", &input, 300, 64,
                                        &next_it, &it_files)
                  .ok());
  ASSERT_EQ(it_files.size(), vec_files.size());
  EXPECT_EQ(next_it, next_vec);
  for (size_t i = 0; i < it_files.size(); ++i) {
    EXPECT_EQ(it_files[i].point_count, vec_files[i].point_count);
    EXPECT_EQ(it_files[i].min_generation_time,
              vec_files[i].min_generation_time);
    EXPECT_EQ(it_files[i].max_generation_time,
              vec_files[i].max_generation_time);
    EXPECT_EQ(ReadBack(&env_, it_files[i]), ReadBack(&env_, vec_files[i]));
  }
}

TEST_F(TableWriterIteratorTest, EmptyInputWritesNothing) {
  std::vector<DataPoint> empty;
  VectorIterator input(&empty);
  uint64_t next = 7;
  std::vector<FileMetadata> files;
  ASSERT_TRUE(
      WriteSortedPointsAsTables(&env_, "/db", &input, 10, 4, &next, &files)
          .ok());
  EXPECT_TRUE(files.empty());
  EXPECT_EQ(next, 7u);
}

TEST_F(TableWriterIteratorTest, CancelAbortsAndRemovesPartialFiles) {
  auto points = MakePoints(100);
  VectorIterator input(&points);
  uint64_t next = 1;
  std::vector<FileMetadata> files;
  std::atomic<bool> cancel{true};
  Status st = WriteSortedPointsAsTables(&env_, "/db", &input, 30, 8, &next,
                                        &files, format::ValueEncoding::kRaw,
                                        {}, &cancel);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_TRUE(files.empty());
  EXPECT_TRUE(SstFiles(&env_, "/db").empty());
}

TEST_F(TableWriterIteratorTest, SourceErrorRemovesEverythingItCreated) {
  auto points = MakePoints(100);
  std::vector<std::unique_ptr<PointIterator>> children;
  children.push_back(std::make_unique<FailingIterator>(
      points, Status::IOError("source died")));
  MergingIterator input(std::move(children));
  uint64_t next = 1;
  std::vector<FileMetadata> files;
  // 30 per file: three complete tables land before the source error hits on
  // the fourth — all of them must be gone afterwards, not just the partial.
  Status st =
      WriteSortedPointsAsTables(&env_, "/db", &input, 30, 8, &next, &files);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_TRUE(files.empty());
  EXPECT_TRUE(SstFiles(&env_, "/db").empty());
}

TEST_F(TableWriterIteratorTest, WriteFaultLeavesNoPartialTables) {
  FaultInjectionEnv fault(&env_);
  auto points = MakePoints(200);
  // Let the first file (and a bit of the second) succeed, then fail every
  // append. RemoveFile is not faulted, so cleanup proceeds.
  fault.SetFailAfterOps(30);
  VectorIterator input(&points);
  uint64_t next = 1;
  std::vector<FileMetadata> files;
  Status st =
      WriteSortedPointsAsTables(&fault, "/db", &input, 50, 8, &next, &files);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(files.empty());
  EXPECT_TRUE(SstFiles(&env_, "/db").empty());
}

TEST_F(TableWriterIteratorTest, AppendsAfterExistingEntriesOnSuccess) {
  // *files may already carry earlier outputs (the engine accumulates across
  // merge steps): success appends, failure restores exactly the old size.
  auto points = MakePoints(20);
  std::vector<FileMetadata> files(3);
  files[0].file_number = 99;
  uint64_t next = 10;
  VectorIterator input(&points);
  ASSERT_TRUE(
      WriteSortedPointsAsTables(&env_, "/db", &input, 10, 4, &next, &files)
          .ok());
  ASSERT_EQ(files.size(), 5u);
  EXPECT_EQ(files[0].file_number, 99u);  // pre-existing entries untouched
  EXPECT_EQ(files[3].file_number, 10u);

  auto more = MakePoints(40, 1000);
  VectorIterator input2(&more);
  std::atomic<bool> cancel{true};
  Status st = WriteSortedPointsAsTables(&env_, "/db", &input2, 10, 4, &next,
                                        &files, format::ValueEncoding::kRaw,
                                        {}, &cancel);
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(files.size(), 5u);  // restored to the pre-call state
}

}  // namespace
}  // namespace seplsm::storage
