#include "storage/query_explain.h"

#include <cstdio>
#include <sstream>

namespace seplsm::storage {

namespace {

/// JSON string escaping for the free-form `detail` field.
std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* QueryExplain::KindName(EventKind kind) {
  switch (kind) {
    case EventKind::kFilesSkippedTimeRange: return "files_skipped_time_range";
    case EventKind::kFileOpened: return "file_opened";
    case EventKind::kBlockSkippedIndex: return "block_skipped_index";
    case EventKind::kBlockSkippedZoneMap: return "block_skipped_zone_map";
    case EventKind::kBlockRead: return "block_read";
    case EventKind::kBloomNegative: return "bloom_negative";
    case EventKind::kSummaryWindowServed: return "summary_window_served";
    case EventKind::kWindowFallback: return "window_fallback";
    case EventKind::kMemtableScan: return "memtable_scan";
  }
  return "unknown";
}

void QueryExplain::Push(Event event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void QueryExplain::RecordFilesSkipped(int32_t level, uint64_t count,
                                      int64_t lo, int64_t hi) {
  if (count == 0) return;
  files_skipped_ += count;
  Event e;
  e.kind = EventKind::kFilesSkippedTimeRange;
  e.level = level;
  e.lo = lo;
  e.hi = hi;
  e.count = count;
  Push(std::move(e));
}

void QueryExplain::RecordFileOpened(uint64_t file_number, int32_t level,
                                    int64_t lo, int64_t hi) {
  ++files_opened_;
  Event e;
  e.kind = EventKind::kFileOpened;
  e.level = level;
  e.file_number = file_number;
  e.lo = lo;
  e.hi = hi;
  e.count = 1;
  Push(std::move(e));
}

void QueryExplain::PushBlockEvent(EventKind kind, uint64_t file_number,
                                  int32_t level, uint64_t count) {
  Event e;
  e.kind = kind;
  e.level = level;
  e.file_number = file_number;
  e.count = count;
  Push(std::move(e));
}

void QueryExplain::RecordBlockSkippedIndex(uint64_t file_number,
                                           int32_t level, uint64_t count) {
  blocks_skipped_ += count;
  PushBlockEvent(EventKind::kBlockSkippedIndex, file_number, level, count);
}

void QueryExplain::RecordBlockSkippedZoneMap(uint64_t file_number,
                                             int32_t level, uint64_t count) {
  blocks_skipped_ += count;
  PushBlockEvent(EventKind::kBlockSkippedZoneMap, file_number, level, count);
}

void QueryExplain::RecordBlockRead(uint64_t file_number, int32_t level,
                                   uint64_t count) {
  blocks_read_ += count;
  PushBlockEvent(EventKind::kBlockRead, file_number, level, count);
}

void QueryExplain::RecordBloomNegative(const std::string& series) {
  ++blooms_negative_;
  Event e;
  e.kind = EventKind::kBloomNegative;
  e.count = 1;
  e.detail = series;
  Push(std::move(e));
}

void QueryExplain::RecordSummaryWindowServed(int64_t ws, int64_t we,
                                             uint64_t summary_count) {
  summary_hits_ += summary_count;
  Event e;
  e.kind = EventKind::kSummaryWindowServed;
  e.lo = ws;
  e.hi = we;
  e.count = summary_count;
  Push(std::move(e));
}

void QueryExplain::RecordWindowFallback(int64_t ws, int64_t we,
                                        const char* reason) {
  ++windows_fallback_;
  Event e;
  e.kind = EventKind::kWindowFallback;
  e.lo = ws;
  e.hi = we;
  e.count = 1;
  e.detail = reason;
  Push(std::move(e));
}

void QueryExplain::RecordMemtableScan(uint64_t points) {
  Event e;
  e.kind = EventKind::kMemtableScan;
  e.count = points;
  Push(std::move(e));
}

std::string QueryExplain::ToJson() const {
  std::ostringstream out;
  out << "{\"events\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i > 0) out << ",";
    out << "{\"kind\":\"" << KindName(e.kind) << "\"";
    if (e.level >= 0) out << ",\"level\":" << e.level;
    if (e.file_number != 0) out << ",\"file\":" << e.file_number;
    if (e.lo != 0 || e.hi != 0) {
      out << ",\"lo\":" << e.lo << ",\"hi\":" << e.hi;
    }
    out << ",\"count\":" << e.count;
    if (!e.detail.empty()) {
      out << ",\"detail\":\"" << EscapeJson(e.detail) << "\"";
    }
    out << "}";
  }
  out << "],\"dropped\":" << dropped_ << ",\"totals\":{"
      << "\"files_skipped\":" << files_skipped_
      << ",\"blocks_skipped\":" << blocks_skipped_
      << ",\"blooms_negative\":" << blooms_negative_
      << ",\"summary_hits\":" << summary_hits_
      << ",\"files_opened\":" << files_opened_
      << ",\"blocks_read\":" << blocks_read_
      << ",\"windows_fallback\":" << windows_fallback_ << "}}";
  return out.str();
}

std::string QueryExplain::ToText() const {
  std::ostringstream out;
  for (const Event& e : events_) {
    out << KindName(e.kind);
    if (e.level >= 0) out << " level=" << e.level;
    if (e.file_number != 0) out << " file=" << e.file_number;
    if (e.lo != 0 || e.hi != 0) out << " range=[" << e.lo << "," << e.hi
                                    << "]";
    out << " count=" << e.count;
    if (!e.detail.empty()) out << " (" << e.detail << ")";
    out << "\n";
  }
  if (dropped_ > 0) out << "... " << dropped_ << " events dropped\n";
  out << "totals: files_skipped=" << files_skipped_
      << " blocks_skipped=" << blocks_skipped_
      << " blooms_negative=" << blooms_negative_
      << " summary_hits=" << summary_hits_
      << " files_opened=" << files_opened_
      << " blocks_read=" << blocks_read_
      << " windows_fallback=" << windows_fallback_ << "\n";
  return out.str();
}

void QueryExplain::Clear() {
  events_.clear();
  dropped_ = 0;
  files_skipped_ = blocks_skipped_ = blooms_negative_ = summary_hits_ = 0;
  files_opened_ = blocks_read_ = windows_fallback_ = 0;
}

}  // namespace seplsm::storage
