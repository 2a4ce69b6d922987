#include "counting_env.h"

#include <utility>

#include "trace.h"

namespace e2ebench {

using seplsm::Status;

namespace {

thread_local int query_depth = 0;

/// Times one forwarded call as a trace span and a tally entry.
class Timed {
 public:
  Timed(CountingEnv* env, CountingEnv::Op op)
      : env_(env), op_(op), span_(CountingEnv::OpName(op)), start_(NowNs()) {}
  ~Timed() {
    env_->Record(op_, bytes_, static_cast<uint64_t>(NowNs() - start_));
  }
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  CountingEnv* env_;
  CountingEnv::Op op_;
  ScopedSpan span_;
  int64_t start_;
  uint64_t bytes_ = 0;
};

class CountingWritableFile : public seplsm::WritableFile {
 public:
  CountingWritableFile(CountingEnv* env,
                       std::unique_ptr<seplsm::WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    Timed timed(env_, CountingEnv::kAppend);
    timed.set_bytes(data.size());
    return base_->Append(data);
  }
  Status Flush() override {
    Timed timed(env_, CountingEnv::kFlush);
    return base_->Flush();
  }
  Status Sync() override {
    Timed timed(env_, CountingEnv::kSync);
    return base_->Sync();
  }
  Status Close() override {
    Timed timed(env_, CountingEnv::kClose);
    return base_->Close();
  }

 private:
  CountingEnv* env_;
  std::unique_ptr<seplsm::WritableFile> base_;
};

class CountingRandomAccessFile : public seplsm::RandomAccessFile {
 public:
  CountingRandomAccessFile(CountingEnv* env,
                           std::unique_ptr<seplsm::RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    Timed timed(env_, CountingEnv::kRead);
    Status st = base_->Read(offset, n, out);
    timed.set_bytes(out->size());
    return st;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<seplsm::RandomAccessFile> base_;
};

}  // namespace

const char* CountingEnv::OpName(Op op) {
  switch (op) {
    case kCreate: return "env.create";
    case kOpenAppend: return "env.open_append";
    case kOpenRead: return "env.open_read";
    case kAppend: return "env.append";
    case kFlush: return "env.flush";
    case kSync: return "env.sync";
    case kClose: return "env.close";
    case kRead: return "env.read";
    case kDirSync: return "env.dir_sync";
    case kRemove: return "env.remove";
    case kRename: return "env.rename";
    case kOther: return "env.other";
    case kNumOps: break;
  }
  return "env.unknown";
}

CountingEnv::QueryScope::QueryScope() { ++query_depth; }
CountingEnv::QueryScope::~QueryScope() { --query_depth; }

void CountingEnv::Record(Op op, uint64_t bytes, uint64_t ns) {
  auto add = [&](AtomicTally& t) {
    t.calls.fetch_add(1, std::memory_order_relaxed);
    t.bytes.fetch_add(bytes, std::memory_order_relaxed);
    t.ns.fetch_add(ns, std::memory_order_relaxed);
  };
  add(tallies_[op]);
  if (query_depth > 0) add(query_tallies_[op]);
  if (op == kSync) {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    sync_ns_.push_back(static_cast<double>(ns));
  }
}

CountingEnv::Tally CountingEnv::Get(Op op) const {
  const AtomicTally& t = tallies_[op];
  return {t.calls.load(), t.bytes.load(), t.ns.load()};
}

CountingEnv::Tally CountingEnv::GetQuery(Op op) const {
  const AtomicTally& t = query_tallies_[op];
  return {t.calls.load(), t.bytes.load(), t.ns.load()};
}

std::vector<double> CountingEnv::SyncLatenciesNs() const {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  return sync_ns_;
}

void CountingEnv::Reset() {
  for (auto* tallies : {&tallies_, &query_tallies_}) {
    for (AtomicTally& t : *tallies) {
      t.calls.store(0);
      t.bytes.store(0);
      t.ns.store(0);
    }
  }
  std::lock_guard<std::mutex> lock(sync_mutex_);
  sync_ns_.clear();
}

Status CountingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<seplsm::WritableFile>* file) {
  Timed timed(this, kCreate);
  std::unique_ptr<seplsm::WritableFile> base;
  Status st = base_->NewWritableFile(fname, &base);
  if (st.ok()) *file = std::make_unique<CountingWritableFile>(this, std::move(base));
  return st;
}

Status CountingEnv::NewAppendableFile(
    const std::string& fname, std::unique_ptr<seplsm::WritableFile>* file) {
  Timed timed(this, kOpenAppend);
  std::unique_ptr<seplsm::WritableFile> base;
  Status st = base_->NewAppendableFile(fname, &base);
  if (st.ok()) *file = std::make_unique<CountingWritableFile>(this, std::move(base));
  return st;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<seplsm::RandomAccessFile>* file) {
  Timed timed(this, kOpenRead);
  std::unique_ptr<seplsm::RandomAccessFile> base;
  Status st = base_->NewRandomAccessFile(fname, &base);
  if (st.ok()) {
    *file = std::make_unique<CountingRandomAccessFile>(this, std::move(base));
  }
  return st;
}

Status CountingEnv::SyncDir(const std::string& dirname) {
  Timed timed(this, kDirSync);
  return base_->SyncDir(dirname);
}

bool CountingEnv::FileExists(const std::string& fname) {
  Timed timed(this, kOther);
  return base_->FileExists(fname);
}

Status CountingEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  Timed timed(this, kOther);
  return base_->GetFileSize(fname, size);
}

Status CountingEnv::RemoveFile(const std::string& fname) {
  Timed timed(this, kRemove);
  return base_->RemoveFile(fname);
}

Status CountingEnv::RenameFile(const std::string& src, const std::string& dst) {
  Timed timed(this, kRename);
  return base_->RenameFile(src, dst);
}

Status CountingEnv::CreateDirIfMissing(const std::string& dirname) {
  Timed timed(this, kOther);
  return base_->CreateDirIfMissing(dirname);
}

Status CountingEnv::ListDir(const std::string& dirname,
                            std::vector<std::string>* children) {
  Timed timed(this, kOther);
  return base_->ListDir(dirname, children);
}

}  // namespace e2ebench
