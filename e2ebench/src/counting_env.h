#ifndef E2EBENCH_COUNTING_ENV_H_
#define E2EBENCH_COUNTING_ENV_H_

// A forwarding Env that counts and times every call it passes on. The
// traced run puts it between the engine and its device to fill the `env.*`
// rows of the ledger; every forwarded call is also a trace span.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"

namespace e2ebench {

class CountingEnv : public seplsm::Env {
 public:
  enum Op : size_t {
    kCreate,      ///< NewWritableFile (creates or truncates)
    kOpenAppend,  ///< NewAppendableFile
    kOpenRead,    ///< NewRandomAccessFile
    kAppend,      ///< WritableFile::Append (bytes = data written)
    kFlush,
    kSync,        ///< WritableFile::Sync (fdatasync under PosixEnv)
    kClose,
    kRead,        ///< RandomAccessFile::Read (bytes = data returned)
    kDirSync,     ///< SyncDir
    kRemove,
    kRename,
    kOther,       ///< FileExists, GetFileSize, CreateDir, ListDir
    kNumOps
  };

  struct Tally {
    uint64_t calls = 0;
    uint64_t bytes = 0;
    uint64_t ns = 0;
  };

  /// `base` is not owned and must outlive this env and its files.
  explicit CountingEnv(seplsm::Env* base) : base_(base) {}

  static const char* OpName(Op op);

  Tally Get(Op op) const;
  /// Reads and opens issued by a thread inside a QueryScope.
  Tally GetQuery(Op op) const;
  /// Every Sync latency since the last Reset, in nanoseconds.
  std::vector<double> SyncLatenciesNs() const;
  void Reset();

  /// Marks the calling thread as serving a query, so its reads and opens
  /// are attributed to the query path rather than to compaction.
  class QueryScope {
   public:
    QueryScope();
    ~QueryScope();
  };

  seplsm::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<seplsm::WritableFile>* file) override;
  seplsm::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<seplsm::RandomAccessFile>* file) override;
  seplsm::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<seplsm::WritableFile>* file) override;
  seplsm::Status SyncDir(const std::string& dirname) override;
  bool FileExists(const std::string& fname) override;
  seplsm::Status GetFileSize(const std::string& fname,
                             uint64_t* size) override;
  seplsm::Status RemoveFile(const std::string& fname) override;
  seplsm::Status RenameFile(const std::string& src,
                            const std::string& dst) override;
  seplsm::Status CreateDirIfMissing(const std::string& dirname) override;
  seplsm::Status ListDir(const std::string& dirname,
                         std::vector<std::string>* children) override;

  /// Adds one call to the tallies (used by the file wrappers).
  void Record(Op op, uint64_t bytes, uint64_t ns);

 private:
  struct AtomicTally {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> ns{0};
  };

  seplsm::Env* base_;
  std::array<AtomicTally, kNumOps> tallies_;
  std::array<AtomicTally, kNumOps> query_tallies_;
  mutable std::mutex sync_mutex_;
  std::vector<double> sync_ns_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_COUNTING_ENV_H_
