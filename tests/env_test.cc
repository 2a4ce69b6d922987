#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "env/fault_env.h"
#include "env/latency_env.h"
#include "env/mem_env.h"

namespace seplsm {
namespace {

std::string WriteFile(Env* env, const std::string& path,
                      const std::string& data) {
  std::unique_ptr<WritableFile> f;
  EXPECT_TRUE(env->NewWritableFile(path, &f).ok());
  EXPECT_TRUE(f->Append(data).ok());
  EXPECT_TRUE(f->Close().ok());
  return path;
}

std::string ReadWhole(Env* env, const std::string& path) {
  std::unique_ptr<RandomAccessFile> f;
  EXPECT_TRUE(env->NewRandomAccessFile(path, &f).ok());
  std::string out;
  EXPECT_TRUE(f->Read(0, f->Size(), &out).ok());
  return out;
}

class EnvContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "posix") {
      env_ = Env::Default();
      dir_ = (std::filesystem::temp_directory_path() /
              ("seplsm_env_test_" + std::to_string(::getpid())))
                 .string();
      ASSERT_TRUE(env_->CreateDirIfMissing(dir_).ok());
    } else {
      owned_ = std::make_unique<MemEnv>();
      env_ = owned_.get();
      dir_ = "/db";
    }
  }

  void TearDown() override {
    if (GetParam() == "posix") {
      std::filesystem::remove_all(dir_);
    }
  }

  std::unique_ptr<MemEnv> owned_;
  Env* env_ = nullptr;
  std::string dir_;
};

TEST_P(EnvContractTest, WriteReadRoundTrip) {
  std::string path = dir_ + "/a.bin";
  WriteFile(env_, path, "hello world");
  EXPECT_EQ(ReadWhole(env_, path), "hello world");
}

TEST_P(EnvContractTest, PositionedReads) {
  std::string path = dir_ + "/b.bin";
  WriteFile(env_, path, "0123456789");
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile(path, &f).ok());
  std::string out;
  ASSERT_TRUE(f->Read(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
}

TEST_P(EnvContractTest, ReadPastEofShortens) {
  std::string path = dir_ + "/c.bin";
  WriteFile(env_, path, "abc");
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile(path, &f).ok());
  std::string out;
  ASSERT_TRUE(f->Read(2, 100, &out).ok());
  EXPECT_EQ(out, "c");
  ASSERT_TRUE(f->Read(50, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(EnvContractTest, ConcurrentReadsOfDistinctOffsets) {
  // One reader shared by several threads, as the table cache shares one
  // between queries and background compaction: each thread reads its own
  // offsets and must get exactly those bytes back.
  std::string data(64 * 1024, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131 + i / 251) & 0xff);
  }
  std::string path = WriteFile(env_, dir_ + "/shared.bin", data);
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile(path, &f).ok());
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string out;
      for (size_t i = 0; i < 200; ++i) {
        // Thread t reads the t-th quarter of the file, in strides that
        // never line up with the other threads' reads.
        const size_t offset = t * (data.size() / kThreads) + (i * 97) % 8192;
        const size_t n = 1 + (i * 37 + t) % 4096;
        if (!f->Read(offset, n, &out).ok() ||
            out != data.substr(offset, n)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_P(EnvContractTest, FileExistsAndSize) {
  std::string path = dir_ + "/d.bin";
  EXPECT_FALSE(env_->FileExists(path));
  WriteFile(env_, path, "12345");
  EXPECT_TRUE(env_->FileExists(path));
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(path, &size).ok());
  EXPECT_EQ(size, 5u);
}

TEST_P(EnvContractTest, RemoveFile) {
  std::string path = dir_ + "/e.bin";
  WriteFile(env_, path, "x");
  ASSERT_TRUE(env_->RemoveFile(path).ok());
  EXPECT_FALSE(env_->FileExists(path));
  EXPECT_FALSE(env_->RemoveFile(path).ok());
}

TEST_P(EnvContractTest, RenameFile) {
  std::string src = dir_ + "/f.bin";
  std::string dst = dir_ + "/g.bin";
  WriteFile(env_, src, "payload");
  ASSERT_TRUE(env_->RenameFile(src, dst).ok());
  EXPECT_FALSE(env_->FileExists(src));
  EXPECT_EQ(ReadWhole(env_, dst), "payload");
}

TEST_P(EnvContractTest, ListDirSeesFiles) {
  WriteFile(env_, dir_ + "/one.sst", "1");
  WriteFile(env_, dir_ + "/two.sst", "2");
  std::vector<std::string> children;
  ASSERT_TRUE(env_->ListDir(dir_, &children).ok());
  EXPECT_NE(std::find(children.begin(), children.end(), "one.sst"),
            children.end());
  EXPECT_NE(std::find(children.begin(), children.end(), "two.sst"),
            children.end());
}

TEST_P(EnvContractTest, OpenMissingFileFails) {
  std::unique_ptr<RandomAccessFile> f;
  EXPECT_FALSE(env_->NewRandomAccessFile(dir_ + "/missing", &f).ok());
}

TEST_P(EnvContractTest, OverwriteReplacesContents) {
  std::string path = dir_ + "/h.bin";
  WriteFile(env_, path, "first version");
  WriteFile(env_, path, "v2");
  EXPECT_EQ(ReadWhole(env_, path), "v2");
}

TEST_P(EnvContractTest, AppendableFileCreatesWhenMissing) {
  std::string path = dir_ + "/app.bin";
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewAppendableFile(path, &f).ok());
  ASSERT_TRUE(f->Append("abc").ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(ReadWhole(env_, path), "abc");
}

TEST_P(EnvContractTest, AppendableFileContinuesExisting) {
  std::string path = dir_ + "/app2.bin";
  WriteFile(env_, path, "head-");
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewAppendableFile(path, &f).ok());
  ASSERT_TRUE(f->Append("tail").ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(ReadWhole(env_, path), "head-tail");
}

TEST_P(EnvContractTest, SyncMakesDataReadable) {
  // The functional half of the durability contract (crash semantics are
  // covered by the fault env): after Sync, a concurrent reader sees every
  // appended byte even while the file stays open for writing.
  std::string path = dir_ + "/sync.bin";
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile(path, &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(ReadWhole(env_, path), "durable");
  ASSERT_TRUE(f->Append("+more").ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(ReadWhole(env_, path), "durable+more");
  ASSERT_TRUE(f->Close().ok());
}

TEST_P(EnvContractTest, SyncDirSucceeds) {
  WriteFile(env_, dir_ + "/x.bin", "x");
  EXPECT_TRUE(env_->SyncDir(dir_).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, EnvContractTest,
                         ::testing::Values("mem", "posix"),
                         [](const auto& info) { return info.param; });

TEST(MemEnvTest, TotalBytes) {
  MemEnv env;
  WriteFile(&env, "/a", "12345");
  WriteFile(&env, "/b", "123");
  EXPECT_EQ(env.TotalBytes(), 8u);
}

TEST(MemEnvTest, ListDirDirectChildrenAndDirs) {
  MemEnv env;
  WriteFile(&env, "/d/a.txt", "x");
  WriteFile(&env, "/d/sub/b.txt", "x");
  WriteFile(&env, "/d/sub/c.txt", "x");
  std::vector<std::string> children;
  ASSERT_TRUE(env.ListDir("/d", &children).ok());
  // Files and implicit child directories, each reported once.
  ASSERT_EQ(children.size(), 2u);
  EXPECT_NE(std::find(children.begin(), children.end(), "a.txt"),
            children.end());
  EXPECT_NE(std::find(children.begin(), children.end(), "sub"),
            children.end());
}

TEST(LatencyEnvTest, ChargesSeekPerOpen) {
  MemEnv base;
  WriteFile(&base, "/f", "0123456789");
  DeviceLatencyModel model;
  model.seek_nanos = 1000;
  model.transfer_nanos_per_byte = 0.0;
  LatencyEnv env(&base, model);
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &f).ok());
  EXPECT_EQ(env.simulated_nanos(), 1000);
  EXPECT_EQ(env.opens(), 1u);
}

TEST(LatencyEnvTest, SequentialReadsAvoidExtraSeeks) {
  MemEnv base;
  WriteFile(&base, "/f", std::string(100, 'x'));
  DeviceLatencyModel model;
  model.seek_nanos = 1000;
  model.transfer_nanos_per_byte = 1.0;
  LatencyEnv env(&base, model);
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &f).ok());
  std::string out;
  ASSERT_TRUE(f->Read(0, 10, &out).ok());   // seek (first read) + 10 bytes
  ASSERT_TRUE(f->Read(10, 10, &out).ok());  // contiguous: no seek
  ASSERT_TRUE(f->Read(50, 10, &out).ok());  // jump: seek
  // open seek + first-read seek + jump seek = 3000; transfer 30.
  EXPECT_EQ(env.simulated_nanos(), 3000 + 30);
  EXPECT_EQ(env.bytes_read(), 30u);
}

TEST(LatencyEnvTest, ResetCountersZeroes) {
  MemEnv base;
  WriteFile(&base, "/f", "abc");
  LatencyEnv env(&base, DeviceLatencyModel{});
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &f).ok());
  env.ResetCounters();
  EXPECT_EQ(env.simulated_nanos(), 0);
  EXPECT_EQ(env.opens(), 0u);
}

TEST(FaultEnvTest, FailsAfterArmedThreshold) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  env.SetFailAfterOps(2);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("/f", &f).ok());  // op 1
  ASSERT_TRUE(f->Append("a").ok());                 // op 2
  EXPECT_TRUE(f->Append("b").IsIOError());          // op 3 -> fail
  EXPECT_TRUE(f->Append("c").IsIOError());
}

TEST(FaultEnvTest, DisarmedPassesThrough) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  WriteFile(&env, "/f", "data");
  EXPECT_EQ(ReadWhole(&env, "/f"), "data");
}

TEST(FaultEnvTest, FailSyncsBreaksOnlySyncs) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  env.SetFailSyncs(true);
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("/db/f", &f).ok());
  ASSERT_TRUE(f->Append("abc").ok());       // buffered writes still succeed
  EXPECT_TRUE(f->Sync().IsIOError());       // flush command errors
  EXPECT_TRUE(env.SyncDir("/db").IsIOError());
  env.SetFailSyncs(false);
  EXPECT_TRUE(f->Sync().ok());
}

// --- SimulateCrash: the power-loss model the WAL crash matrix relies on ---

TEST(FaultEnvCrashTest, UnsyncedTailIsDropped) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/db/f", &f).ok());
    ASSERT_TRUE(f->Append("synced").ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Append("-volatile").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.SyncDir("/db").ok());  // entry durable, tail still volatile
  ASSERT_TRUE(env.SimulateCrash().ok());
  EXPECT_EQ(ReadWhole(&base, "/db/f"), "synced");
}

TEST(FaultEnvCrashTest, FileWithoutDirSyncLosesItsEntry) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/db/f", &f).ok());
    ASSERT_TRUE(f->Append("content").ok());
    ASSERT_TRUE(f->Sync().ok());  // content durable, entry not
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.SimulateCrash().ok());
  EXPECT_FALSE(base.FileExists("/db/f"));
}

TEST(FaultEnvCrashTest, PreexistingFilesAreDurableAsIs) {
  MemEnv base;
  WriteFile(&base, "/db/old", "ancient");
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(env.SimulateCrash().ok());
  EXPECT_EQ(ReadWhole(&base, "/db/old"), "ancient");
}

TEST(FaultEnvCrashTest, TruncatingCreateIsImmediatelyEmpty) {
  // The harsh model that exposes truncate-in-place WAL rotation: re-creating
  // a durable file truncates it on the device at once, so a crash right
  // after leaves an empty file, not the old bytes.
  MemEnv base;
  FaultInjectionEnv env(&base);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/db/f", &f).ok());
    ASSERT_TRUE(f->Append("v1").ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.SyncDir("/db").ok());
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/db/f", &f).ok());  // truncating create
    ASSERT_TRUE(f->Append("v2-unsynced").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.SimulateCrash().ok());
  ASSERT_TRUE(base.FileExists("/db/f"));
  EXPECT_EQ(ReadWhole(&base, "/db/f"), "");
}

TEST(FaultEnvCrashTest, UnsyncedRenameRollsBack) {
  MemEnv base;
  WriteFile(&base, "/db/dst", "old-dst");
  FaultInjectionEnv env(&base);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/db/src", &f).ok());
    ASSERT_TRUE(f->Append("new").ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.RenameFile("/db/src", "/db/dst").ok());
  ASSERT_TRUE(env.SimulateCrash().ok());  // no SyncDir: rename undone
  // The pre-rename destination is restored; the source was created in this
  // epoch without a directory sync, so its entry is gone too.
  EXPECT_EQ(ReadWhole(&base, "/db/dst"), "old-dst");
  EXPECT_FALSE(base.FileExists("/db/src"));
}

TEST(FaultEnvCrashTest, UnsyncedRenameOfDurableSourceKeepsTheSource) {
  // A rename of a previously-durable file, crash before SyncDir: the file
  // must still exist under its OLD name — a crash can undo the rename, but
  // never delete both names.
  MemEnv base;
  WriteFile(&base, "/db/src", "payload");
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(env.RenameFile("/db/src", "/db/dst").ok());
  ASSERT_TRUE(env.SimulateCrash().ok());
  EXPECT_EQ(ReadWhole(&base, "/db/src"), "payload");
  EXPECT_FALSE(base.FileExists("/db/dst"));
}

TEST(FaultEnvCrashTest, DirSyncedRenameSurvives) {
  MemEnv base;
  WriteFile(&base, "/db/dst", "old-dst");
  FaultInjectionEnv env(&base);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile("/db/src", &f).ok());
    ASSERT_TRUE(f->Append("new").ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.RenameFile("/db/src", "/db/dst").ok());
  ASSERT_TRUE(env.SyncDir("/db").ok());
  ASSERT_TRUE(env.SimulateCrash().ok());
  EXPECT_EQ(ReadWhole(&base, "/db/dst"), "new");
  EXPECT_FALSE(base.FileExists("/db/src"));
}

TEST(FaultEnvCrashTest, RemoveIsImmediatelyDurable) {
  MemEnv base;
  WriteFile(&base, "/db/f", "x");
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(env.RemoveFile("/db/f").ok());
  ASSERT_TRUE(env.SimulateCrash().ok());
  EXPECT_FALSE(base.FileExists("/db/f"));  // no unlink resurrection
}

TEST(FaultEnvCrashTest, AppendableFileFirstTouchKeepsExistingDurable) {
  MemEnv base;
  WriteFile(&base, "/db/log", "prefix");
  FaultInjectionEnv env(&base);
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env.NewAppendableFile("/db/log", &f).ok());
    ASSERT_TRUE(f->Append("-unsynced").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(env.SimulateCrash().ok());
  // The pre-existing prefix predates the env and stays; the un-synced
  // appended tail is dropped.
  EXPECT_EQ(ReadWhole(&base, "/db/log"), "prefix");
}

}  // namespace
}  // namespace seplsm
