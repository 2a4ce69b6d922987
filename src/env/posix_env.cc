#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "env/env.h"

namespace seplsm {

namespace {

namespace fs = std::filesystem;

Status ErrnoStatus(const std::string& context) {
  return Status::IOError(context + ": " + std::strerror(errno));
}

/// fd-based writable file: a user-space buffer in front of write(2), with
/// Sync() = flush + fdatasync so acknowledged-durable bytes really reach
/// the device. The previous FILE*-based implementation's Sync was fflush
/// only — nothing ever hit the platter, and wal_sync_every_append was a
/// silent no-op.
class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      // Best effort: callers that care about the result use Close().
      (void)FlushBuffered();
      ::close(fd_);
    }
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::IOError(fname_ + ": closed");
    buffer_.append(data.data(), data.size());
    if (buffer_.size() >= kBufferBytes) return FlushBuffered();
    return Status::OK();
  }

  Status Flush() override {
    if (fd_ < 0) return Status::IOError(fname_ + ": closed");
    return FlushBuffered();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError(fname_ + ": closed");
    SEPLSM_RETURN_IF_ERROR(FlushBuffered());
    // fdatasync: file contents durable; size-change metadata is included,
    // timestamps are not (we never rely on them).
    if (::fdatasync(fd_) != 0) return ErrnoStatus(fname_ + " fdatasync");
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status st = FlushBuffered();
    if (::close(fd_) != 0 && st.ok()) st = ErrnoStatus(fname_ + " close");
    fd_ = -1;
    return st;
  }

 private:
  static constexpr size_t kBufferBytes = 64 * 1024;

  Status FlushBuffered() {
    const char* p = buffer_.data();
    size_t left = buffer_.size();
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus(fname_ + " write");
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    buffer_.clear();
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  std::string buffer_;
};

/// fd-based random-access file. Read is a pread loop, so it keeps no file
/// position: the table cache hands one reader to queries and background
/// compaction at once, and concurrent reads of distinct offsets must not
/// interfere (a shared FILE* with fseek+fread did).
class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t size)
      : fname_(std::move(fname)), fd_(fd), size_(size) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->resize(n);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, out->data() + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus(fname_ + " read");
      }
      if (r == 0) break;  // end of file: the read comes back short
      got += static_cast<size_t>(r);
    }
    out->resize(got);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string fname_;
  int fd_;
  uint64_t size_;
};

class PosixEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    return OpenWritable(fname, O_CREAT | O_TRUNC | O_WRONLY, file);
  }

  Status NewAppendableFile(const std::string& fname,
                           std::unique_ptr<WritableFile>* file) override {
    return OpenWritable(fname, O_CREAT | O_APPEND | O_WRONLY, file);
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* file) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus(fname + " open for read");
    std::error_code ec;
    uint64_t size = fs::file_size(fname, ec);
    if (ec) {
      ::close(fd);
      return Status::IOError(fname + " size: " + ec.message());
    }
    *file = std::make_unique<PosixRandomAccessFile>(fname, fd, size);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    std::error_code ec;
    return fs::exists(fname, ec);
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    std::error_code ec;
    uint64_t s = fs::file_size(fname, ec);
    if (ec) return Status::IOError(fname + " size: " + ec.message());
    *size = s;
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    std::error_code ec;
    if (!fs::remove(fname, ec) || ec) {
      return Status::IOError(fname + " remove: " +
                             (ec ? ec.message() : "not found"));
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& src, const std::string& dst) override {
    std::error_code ec;
    fs::rename(src, dst, ec);
    if (ec) return Status::IOError(src + " -> " + dst + ": " + ec.message());
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dirname) override {
    std::error_code ec;
    fs::create_directories(dirname, ec);
    if (ec) return Status::IOError(dirname + " mkdir: " + ec.message());
    return Status::OK();
  }

  Status ListDir(const std::string& dirname,
                 std::vector<std::string>* children) override {
    children->clear();
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dirname, ec)) {
      children->push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError(dirname + " list: " + ec.message());
    return Status::OK();
  }

  Status SyncDir(const std::string& dirname) override {
    int fd = ::open(dirname.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return ErrnoStatus(dirname + " open dir");
    Status st;
    if (::fsync(fd) != 0) st = ErrnoStatus(dirname + " fsync dir");
    ::close(fd);
    return st;
  }

 private:
  Status OpenWritable(const std::string& fname, int flags,
                      std::unique_ptr<WritableFile>* file) {
    int fd = ::open(fname.c_str(), flags | O_CLOEXEC, 0644);
    if (fd < 0) return ErrnoStatus(fname + " open for write");
    *file = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static Env* env = new PosixEnv();
  return env;
}

}  // namespace seplsm
