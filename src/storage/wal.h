#ifndef SEPLSM_STORAGE_WAL_H_
#define SEPLSM_STORAGE_WAL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/point.h"
#include "common/result.h"
#include "common/status.h"
#include "env/env.h"

namespace seplsm::storage {

/// Write-ahead log for MemTable durability (an engine extension; Apache
/// IoTDB ships one too — without it, points still buffered in C0/C_seq/
/// C_nonseq are lost on crash).
///
/// Record layout: fixed32 payload length | fixed32 masked CRC-32C of the
/// payload | payload of one or more point encodings back to back (each:
/// zigzag-varint generation_time, zigzag-varint arrival_time delta from
/// generation_time, fixed64 value bits). A single-point record is the N=1
/// case, so logs written before batch records existed replay unchanged;
/// group commit writes one N-point record per fsync. Replay stops cleanly
/// at the first torn or corrupt record (a crashed writer can only damage
/// the tail).
///
/// Because generation time uniquely keys a point and writes are upserts,
/// replaying a WAL that also covers already-persisted points is idempotent;
/// the engine therefore retires the log only at explicit checkpoints (after
/// draining every MemTable) — and never by truncating in place: a new log
/// is written beside the old one, synced, and renamed over it (see
/// TsEngine::RotateWalLocked).
class WalWriter {
 public:
  /// Creates/overwrites the log at `path`.
  static Result<std::unique_ptr<WalWriter>> Open(Env* env,
                                                 const std::string& path);

  /// Opens an existing log (or creates it) and appends after its current
  /// contents; `bytes_written()` starts at the existing size so checkpoint
  /// policies see the true log length.
  static Result<std::unique_ptr<WalWriter>> OpenAppend(
      Env* env, const std::string& path);

  ~WalWriter();

  /// Appends one single-point record (buffered; call Sync to force it to
  /// the device).
  Status Append(const DataPoint& point);

  /// Appends `count` points starting at `points` as ONE record — one CRC,
  /// one length prefix, and (after the caller's Sync) one fsync covering
  /// the whole batch. No-op for count == 0.
  Status AppendBatch(const DataPoint* points, size_t count);
  Status AppendBatch(const std::vector<DataPoint>& points) {
    return AppendBatch(points.data(), points.size());
  }

  /// Flush + fsync: everything appended so far is crash-durable on success.
  Status Sync();

  /// Flushes and closes the file, surfacing the error a buffered write can
  /// defer to close time. Idempotent; the destructor closes best-effort for
  /// writers abandoned on error paths.
  Status Close();

  /// Bytes appended so far (for checkpoint-size policies). Atomic so a
  /// group-commit round can append while the engine reads the size.
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter(std::unique_ptr<WritableFile> file, uint64_t existing_bytes)
      : file_(std::move(file)), bytes_written_(existing_bytes) {}

  std::unique_ptr<WritableFile> file_;
  std::atomic<uint64_t> bytes_written_;
};

/// Reads every intact record of a WAL file, decoding all points of each
/// record. A missing file yields an empty vector (fresh database); a corrupt
/// tail is truncated silently, matching crash semantics. `tail_truncated`
/// (optional) reports whether that happened.
Result<std::vector<DataPoint>> ReadWal(Env* env, const std::string& path,
                                       bool* tail_truncated = nullptr);

}  // namespace seplsm::storage

#endif  // SEPLSM_STORAGE_WAL_H_
