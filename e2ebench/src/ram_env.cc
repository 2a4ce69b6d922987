#include "ram_env.h"

#include <algorithm>
#include <utility>

namespace e2ebench {

using seplsm::Status;

namespace {

std::string Parent(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string StripTrailingSlash(std::string path) {
  while (path.size() > 1 && path.back() == '/') path.pop_back();
  return path;
}

class RamWritableFile : public seplsm::WritableFile {
 public:
  explicit RamWritableFile(std::shared_ptr<RamEnv::Contents> contents)
      : contents_(std::move(contents)) {}

  Status Append(std::string_view data) override {
    if (contents_ == nullptr) return Status::IOError("append after close");
    std::lock_guard<std::mutex> lock(contents_->mutex);
    contents_->bytes.append(data.data(), data.size());
    return Status::OK();
  }
  Status Flush() override { return Open(); }
  Status Sync() override { return Open(); }
  Status Close() override {
    contents_.reset();
    return Status::OK();
  }

 private:
  Status Open() const {
    return contents_ == nullptr ? Status::IOError("file closed") : Status::OK();
  }

  std::shared_ptr<RamEnv::Contents> contents_;
};

class RamRandomAccessFile : public seplsm::RandomAccessFile {
 public:
  RamRandomAccessFile(std::shared_ptr<RamEnv::Contents> contents, uint64_t size)
      : contents_(std::move(contents)), size_(size) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    std::lock_guard<std::mutex> lock(contents_->mutex);
    const std::string& bytes = contents_->bytes;
    if (offset >= bytes.size()) {
      out->clear();
    } else {
      out->assign(bytes, static_cast<size_t>(offset),
                  std::min<uint64_t>(n, bytes.size() - offset));
    }
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::shared_ptr<RamEnv::Contents> contents_;
  uint64_t size_;  ///< at open, like a stat before the first read
};

}  // namespace

Status RamEnv::OpenForWrite(const std::string& fname, bool truncate,
                            std::unique_ptr<seplsm::WritableFile>* file) {
  std::shared_ptr<Contents> contents;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = files_[fname];
    if (slot == nullptr) slot = std::make_shared<Contents>();
    contents = slot;
  }
  if (truncate) {
    std::lock_guard<std::mutex> lock(contents->mutex);
    contents->bytes.clear();
  }
  *file = std::make_unique<RamWritableFile>(std::move(contents));
  return Status::OK();
}

Status RamEnv::NewWritableFile(const std::string& fname,
                               std::unique_ptr<seplsm::WritableFile>* file) {
  return OpenForWrite(fname, /*truncate=*/true, file);
}

Status RamEnv::NewAppendableFile(const std::string& fname,
                                 std::unique_ptr<seplsm::WritableFile>* file) {
  return OpenForWrite(fname, /*truncate=*/false, file);
}

Status RamEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<seplsm::RandomAccessFile>* file) {
  std::shared_ptr<Contents> contents;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::IOError(fname + ": not found");
    contents = it->second;
  }
  uint64_t size;
  {
    std::lock_guard<std::mutex> lock(contents->mutex);
    size = contents->bytes.size();
  }
  *file = std::make_unique<RamRandomAccessFile>(std::move(contents), size);
  return Status::OK();
}

bool RamEnv::FileExists(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(fname) > 0 || dirs_.count(StripTrailingSlash(fname)) > 0;
}

Status RamEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  std::shared_ptr<Contents> contents;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = files_.find(fname);
    if (it == files_.end()) return Status::IOError(fname + ": not found");
    contents = it->second;
  }
  std::lock_guard<std::mutex> lock(contents->mutex);
  *size = contents->bytes.size();
  return Status::OK();
}

Status RamEnv::RemoveFile(const std::string& fname) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(fname) == 0) return Status::IOError(fname + ": not found");
  return Status::OK();
}

Status RamEnv::RenameFile(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(src);
  if (it == files_.end()) return Status::IOError(src + ": not found");
  std::shared_ptr<Contents> contents = std::move(it->second);
  files_.erase(it);
  files_[dst] = std::move(contents);
  return Status::OK();
}

Status RamEnv::CreateDirIfMissing(const std::string& dirname) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::string dir = StripTrailingSlash(dirname); !dir.empty();
       dir = Parent(dir)) {
    if (!dirs_.insert(dir).second) break;  // the rest of the chain exists
  }
  return Status::OK();
}

Status RamEnv::ListDir(const std::string& dirname,
                       std::vector<std::string>* children) {
  const std::string dir = StripTrailingSlash(dirname);
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirs_.count(dir) == 0) return Status::IOError(dir + ": no such directory");
  children->clear();
  const std::string prefix = dir + "/";
  auto add_if_child = [&](const std::string& path) {
    if (path.find('/', prefix.size()) == std::string::npos) {
      children->push_back(path.substr(prefix.size()));
    }
  };
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.starts_with(prefix); ++it) {
    add_if_child(it->first);
  }
  for (auto it = dirs_.lower_bound(prefix);
       it != dirs_.end() && it->starts_with(prefix); ++it) {
    add_if_child(*it);
  }
  return Status::OK();
}

}  // namespace e2ebench
