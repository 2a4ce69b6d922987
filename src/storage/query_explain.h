#ifndef SEPLSM_STORAGE_QUERY_EXPLAIN_H_
#define SEPLSM_STORAGE_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace seplsm::storage {

/// Per-query decision trace (DESIGN.md §15): every pruning choice the read
/// path makes — files excluded by time-range metadata, blocks bypassed via
/// index ranges or zone maps, series Bloom rejections, aggregation windows
/// served from summaries, and the reason any window fell back to point
/// reads — recorded as a bounded event list plus aggregate counters.
///
/// The aggregates mirror `engine::PruningStats` field-for-field, so a test
/// (tests/explain_test.cc) can prove the explain trace is complete: the
/// counts recorded here must equal the PruningStats deltas of the same
/// query. Events past `max_events` are dropped (counted in
/// `dropped_events`) — the aggregates keep counting, so truncation loses
/// detail, never totals.
///
/// NOT thread-safe: one QueryExplain belongs to one query invocation.
/// Attach via `engine::QueryStats::explain` (the engine threads it into
/// `storage::ReadOptions::explain` for per-block outcomes).
class QueryExplain {
 public:
  enum class EventKind : uint8_t {
    kFilesSkippedTimeRange,  ///< files pruned before any I/O (count = files)
    kFileOpened,             ///< an SSTable consulted for this query
    kBlockSkippedIndex,      ///< block bypassed via index time range
    kBlockSkippedZoneMap,    ///< block bypassed via value zone map
    kBlockRead,              ///< block decoded (device read or cache hit)
    kBloomNegative,          ///< series Bloom filter answered "absent"
    kSummaryWindowServed,    ///< window answered purely from summaries
    kWindowFallback,         ///< window fell back to point reads (detail=why)
    kMemtableScan,           ///< buffered points merged (count = points)
  };
  static const char* KindName(EventKind kind);

  struct Event {
    EventKind kind = EventKind::kFileOpened;
    int32_t level = -1;        ///< tree level; -1 when not applicable
    uint64_t file_number = 0;  ///< 0 when not applicable
    int64_t lo = 0;            ///< the time range the event covers
    int64_t hi = 0;
    uint64_t count = 0;        ///< files/blocks/points/summaries involved
    std::string detail;        ///< fallback reason, series id, ...
  };

  explicit QueryExplain(size_t max_events = 4096)
      : max_events_(max_events) {}

  // --- Recording (engine + storage read paths) ---
  void RecordFilesSkipped(int32_t level, uint64_t count, int64_t lo,
                          int64_t hi);
  void RecordFileOpened(uint64_t file_number, int32_t level, int64_t lo,
                        int64_t hi);
  /// Block events name their file and level: a merge reads several files.
  void RecordBlockSkippedIndex(uint64_t file_number, int32_t level,
                               uint64_t count = 1);
  void RecordBlockSkippedZoneMap(uint64_t file_number, int32_t level,
                                 uint64_t count = 1);
  void RecordBlockRead(uint64_t file_number, int32_t level,
                       uint64_t count = 1);
  void RecordBloomNegative(const std::string& series);
  void RecordSummaryWindowServed(int64_t ws, int64_t we,
                                 uint64_t summary_count);
  void RecordWindowFallback(int64_t ws, int64_t we, const char* reason);
  void RecordMemtableScan(uint64_t points);

  // --- Inspection ---
  const std::vector<Event>& events() const { return events_; }
  uint64_t dropped_events() const { return dropped_; }

  /// Aggregates, maintained even past the event bound. The first four
  /// mirror engine::PruningStats (the explain-completeness invariant).
  uint64_t files_skipped() const { return files_skipped_; }
  uint64_t blocks_skipped() const { return blocks_skipped_; }
  uint64_t blooms_negative() const { return blooms_negative_; }
  uint64_t summary_hits() const { return summary_hits_; }
  uint64_t files_opened() const { return files_opened_; }
  uint64_t blocks_read() const { return blocks_read_; }
  uint64_t windows_fallback() const { return windows_fallback_; }

  /// `{"events":[{...}],"dropped":N,"totals":{...}}`.
  std::string ToJson() const;
  /// Human-readable rendering, one event per line (the CLI `explain`
  /// output).
  std::string ToText() const;

  void Clear();

 private:
  void Push(Event event);
  void PushBlockEvent(EventKind kind, uint64_t file_number, int32_t level,
                      uint64_t count);

  size_t max_events_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;

  uint64_t files_skipped_ = 0;
  uint64_t blocks_skipped_ = 0;
  uint64_t blooms_negative_ = 0;
  uint64_t summary_hits_ = 0;
  uint64_t files_opened_ = 0;
  uint64_t blocks_read_ = 0;
  uint64_t windows_fallback_ = 0;
};

}  // namespace seplsm::storage

#endif  // SEPLSM_STORAGE_QUERY_EXPLAIN_H_
