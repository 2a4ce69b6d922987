#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// In-memory span recorder for the traced run. Every thread that records a
// span gets its own buffer, so recording takes no lock; spans nest through a
// per-thread stack (a span's parent is the span open on the same thread when
// it started). Nothing is written while the run measures: the buffers are
// read, summarized into a per-layer ledger and dumped to a file only after
// every recording thread has finished.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  const char* name;  ///< static string, one per layer/call site
  int64_t start_ns;
  int64_t end_ns;    ///< 0 while the span is open
  int32_t parent;    ///< index in the same thread's buffer, -1 for a root
};

/// Per-layer totals derived from the spans.
struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  ///< total minus the time of child spans
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Starts or stops recording. Enabling clears every buffer.
  void SetEnabled(bool enabled);

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// recording is off or the thread's buffer is full).
  int32_t Begin(const char* name);
  void End(int32_t index);

  /// Time covered by root spans closed on the calling thread since the last
  /// SetEnabled(true) — what the thread spent inside instrumented calls.
  int64_t CurrentThreadRootNs();

  /// Summaries by span name. Call only after recording threads finished.
  std::map<std::string, LayerTotals> Ledger() const;
  uint64_t span_count() const;
  uint64_t dropped() const;

  /// Writes every span as `thread,index,parent,name,start_ns,end_ns` lines.
  bool WriteCsv(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<int32_t> stack;
    int64_t root_ns = 0;
    uint64_t dropped = 0;
  };
  ThreadBuffer* Buffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a no-op when recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
