#ifndef E2EBENCH_RAM_ENV_H_
#define E2EBENCH_RAM_ENV_H_

// An in-memory file system with tmpfs semantics, on which every workload
// runs. Appends cost O(bytes appended) and Sync returns once the bytes
// are in memory, as on tmpfs; unlinked files stay readable through handles
// opened before the unlink; positioned reads are safe from many threads.
// (MemEnv, the repository's test env, republishes a whole file on every
// Sync, which turns a growing WAL quadratic.)

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "env/env.h"

namespace e2ebench {

class RamEnv : public seplsm::Env {
 public:
  RamEnv() = default;
  RamEnv(const RamEnv&) = delete;
  RamEnv& operator=(const RamEnv&) = delete;

  /// One file's bytes; shared by the directory entry and open handles.
  struct Contents {
    std::mutex mutex;
    std::string bytes;
  };

  seplsm::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<seplsm::WritableFile>* file) override;
  seplsm::Status NewAppendableFile(
      const std::string& fname,
      std::unique_ptr<seplsm::WritableFile>* file) override;
  seplsm::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<seplsm::RandomAccessFile>* file) override;
  bool FileExists(const std::string& fname) override;
  seplsm::Status GetFileSize(const std::string& fname,
                             uint64_t* size) override;
  seplsm::Status RemoveFile(const std::string& fname) override;
  seplsm::Status RenameFile(const std::string& src,
                            const std::string& dst) override;
  seplsm::Status CreateDirIfMissing(const std::string& dirname) override;
  seplsm::Status ListDir(const std::string& dirname,
                         std::vector<std::string>* children) override;

 private:
  /// Opens (creating when absent) `fname`; truncates when `truncate`.
  seplsm::Status OpenForWrite(const std::string& fname, bool truncate,
                              std::unique_ptr<seplsm::WritableFile>* file);

  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Contents>> files_;
  std::set<std::string> dirs_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_RAM_ENV_H_
