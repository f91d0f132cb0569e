#ifndef SATO_SERVE_CORRECTION_WAL_H_
#define SATO_SERVE_CORRECTION_WAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fault_injector.h"
#include "serve/model_registry.h"

namespace sato::serve {

/// Fsync discipline for CorrectionWal::Append.
enum class WalFsync : uint8_t {
  /// Best-effort: records reach the kernel page cache on Append and
  /// survive a process crash, but a power loss / kernel panic before
  /// writeback can lose the tail. Documented trade-off for callers who
  /// prefer append latency over power-failure durability.
  kNone = 0,
  /// fsync after every record: an acknowledged Append is on stable
  /// storage before the caller (and therefore the client) sees success.
  kAlways = 1,
};

struct CorrectionWalOptions {
  WalFsync fsync = WalFsync::kAlways;
  /// Optional fault injection on the append path (kWalAppendFail), so the
  /// chaos battery can prove a failed append is never acknowledged.
  /// Borrowed; nullptr disables.
  FaultInjector* fault_injector = nullptr;
};

/// Outcome of CorrectionWal::Replay.
struct WalReplayResult {
  std::vector<Correction> corrections;  ///< every intact record, in order
  uint64_t records = 0;                 ///< == corrections.size()
  /// True when a torn or corrupt tail was found (and truncated away).
  bool truncated = false;
  uint64_t truncated_bytes = 0;  ///< bytes dropped from the tail
  /// False when the file did not exist (fresh start, not an error).
  bool existed = false;
};

/// Append-only write-ahead log for user corrections -- the durable
/// substrate behind ModelRegistry::SubmitCorrection (and the AdaTyper
/// learner the ROADMAP plans on top of it).
///
/// Record format (little-endian, length-prefixed, CRC-checksummed):
///
///   u32 payload_len
///   payload:
///     u32 column_name_len + bytes
///     u32 corrected_type (two's-complement i32)
///     u64 model_version
///   u32 crc32(payload)   IEEE CRC-32, the torn/corrupt-tail detector
///
/// Truncation rule: Replay scans records in order and stops at the FIRST
/// record that is torn (length runs past EOF), oversized (length field
/// exceeds kMaxRecordBytes -- a corrupt length must not drive a huge
/// allocation), or corrupt (CRC mismatch / malformed payload). Everything
/// before it is returned; everything from it onward is dropped and the
/// file is truncated in place to the last good record, with a loud log
/// line -- never a crash, never a silent skip-and-continue (bytes after a
/// bad length prefix have no trustworthy framing to resync on).
///
/// At-least-once, not exactly-once: a client that retries a correction
/// whose ack was lost in transit may append a duplicate record. The
/// guarantee that matters is the converse -- an ACKNOWLEDGED correction
/// is always in the log (append happens strictly before the ack, and
/// with fsync kAlways, before the ack durably).
///
/// Usage: call Replay(path) FIRST (it truncates any torn tail and returns
/// every durable correction), then construct the appender on the same
/// path and attach it via ModelRegistry::AttachCorrectionWal.
/// Thread-safe appends (one internal mutex).
class CorrectionWal {
 public:
  /// Bound on one record's payload length; a corrupt length prefix can
  /// therefore never look like a plausible allocation (same discipline as
  /// wire::kMaxPayloadBytes).
  static constexpr uint32_t kMaxRecordBytes = 1u << 20;

  /// Opens (creating if absent) the log for appending. Throws
  /// std::runtime_error when the path cannot be opened.
  explicit CorrectionWal(std::string path, CorrectionWalOptions options = {});
  ~CorrectionWal();

  CorrectionWal(const CorrectionWal&) = delete;
  CorrectionWal& operator=(const CorrectionWal&) = delete;

  /// Appends one record. True only when the record is fully written (and
  /// synced, under fsync kAlways) -- the caller must not acknowledge the
  /// correction otherwise. A payload over kMaxRecordBytes is refused
  /// before any byte is written (Replay could not read it back). On a
  /// short write the file is truncated back to the last good record so a
  /// failed append can never leave a torn middle for later appends to
  /// bury.
  bool Append(const Correction& correction);

  /// Replays `path`, truncating any torn/corrupt tail in place (loud log
  /// line, never fatal). A missing file yields an empty result with
  /// existed == false.
  static WalReplayResult Replay(const std::string& path);

  const std::string& path() const { return path_; }
  uint64_t appended() const;
  uint64_t append_failures() const;

 private:
  const std::string path_;
  const CorrectionWalOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  uint64_t good_size_ = 0;  // file size after the last intact record
  uint64_t appended_ = 0;
  uint64_t failures_ = 0;
};

/// IEEE CRC-32 over `data` (the checksum Replay verifies); exposed so
/// tests can forge and corrupt records byte-exactly.
uint32_t WalCrc32(std::string_view data);

}  // namespace sato::serve

#endif  // SATO_SERVE_CORRECTION_WAL_H_
