#include "trace.h"

#include <chrono>
#include <cstdio>

namespace e2ebench {

namespace {
// Bounds the memory a runaway traced run can take (32 B x 1M per thread).
constexpr size_t kMaxSpansPerThread = 1u << 20;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (enabled) {
    for (auto& buffer : buffers_) {
      buffer->spans.clear();
      buffer->stack.clear();
      buffer->root_ns = 0;
      buffer->dropped = 0;
    }
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->spans.reserve(1024);
  }
  return buffer;
}

int32_t Tracer::Begin(const char* name) {
  ThreadBuffer* buffer = Buffer();
  if (buffer->spans.size() >= kMaxSpansPerThread) {
    ++buffer->dropped;
    return -1;
  }
  const int32_t parent = buffer->stack.empty() ? -1 : buffer->stack.back();
  const int32_t index = static_cast<int32_t>(buffer->spans.size());
  buffer->spans.push_back(Span{name, NowNs(), 0, parent});
  buffer->stack.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  ThreadBuffer* buffer = Buffer();
  // A span begun before a SetEnabled(true) reset is gone; drop its end.
  if (static_cast<size_t>(index) >= buffer->spans.size() ||
      buffer->stack.empty() || buffer->stack.back() != index) {
    return;
  }
  Span& span = buffer->spans[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  buffer->stack.pop_back();
  if (span.parent < 0) buffer->root_ns += span.end_ns - span.start_ns;
}

int64_t Tracer::CurrentThreadRootNs() { return Buffer()->root_ns; }

std::map<std::string, LayerTotals> Tracer::Ledger() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, LayerTotals> ledger;
  for (const auto& buffer : buffers_) {
    std::vector<int64_t> child_ns(buffer->spans.size(), 0);
    for (const Span& span : buffer->spans) {
      if (span.end_ns == 0 || span.parent < 0) continue;
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      if (span.end_ns == 0) continue;
      LayerTotals& totals = ledger[span.name];
      const int64_t duration = span.end_ns - span.start_ns;
      ++totals.count;
      totals.total_ns += duration;
      totals.self_ns += duration - child_ns[i];
    }
  }
  return ledger;
}

uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->dropped;
  return n;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,name,start_ns,end_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%zu,%zu,%d,%s,%lld,%lld\n", t, i, spans[i].parent,
                   spans[i].name, static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
