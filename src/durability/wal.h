#ifndef HYPER_DURABILITY_WAL_H_
#define HYPER_DURABILITY_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hyper::durability {

/// Append-only, checksummed write-ahead log, stored as a directory of
/// segments `wal-<%016x first_lsn>.log`. Every record is framed as
///
///   u32 crc32c   over the 16 header bytes that follow + the payload
///   u64 lsn      0 for segment headers, strictly increasing otherwise
///   u32 type     WalRecordType
///   u32 len      payload byte count
///   payload[len]
///
/// so a reader can detect exactly where a log stops being trustworthy. The
/// recovery contract (enforced by ReadLog + tests/durability_test.cc):
///
///   - A torn tail — fewer bytes than a frame header, or a payload running
///     past end-of-file, or a checksum mismatch on the very last frame of
///     the last segment — is the signature of a crash mid-append. It is
///     truncated back to the last valid record and recovery proceeds; the
///     mutation it carried was never acknowledged, so dropping it is
///     correct.
///   - A checksum mismatch anywhere else (a flipped byte with valid data
///     after it, corruption in a non-final segment) is silent-data-loss
///     territory: ReadLog fails with Status::DataLoss naming the segment
///     and byte offset, and the service refuses to serve rather than serve
///     wrong state.
///   - Record lsns must be strictly increasing; a frame whose lsn is <= the
///     highest already seen is a duplicated append (e.g. a replayed write)
///     and is skipped idempotently, counted in ReadLogResult::skipped.

enum class WalRecordType : uint32_t {
  kHeader = 1,    // first frame of each segment: format/base fp/generation
  kCreate = 2,    // scenario branch created
  kApply = 3,     // hypothetical applied: physical override cells
  kDrop = 4,      // branch drop tombstone
  kReload = 5,    // dataset reload: generation bump + new base fingerprint
};

constexpr uint32_t kWalFormatVersion = 1;
/// Frame header: crc (4) + lsn (8) + type (4) + len (4).
constexpr size_t kWalFrameHeaderBytes = 20;
/// Sanity cap on a single payload; a len beyond this is treated like any
/// other unreadable frame (torn tail or corruption by position).
constexpr uint32_t kWalMaxPayloadBytes = 256u << 20;

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kHeader;
  std::string payload;
};

/// Decoded kHeader payload.
struct WalSegmentHeader {
  uint32_t format_version = kWalFormatVersion;
  uint64_t base_fingerprint = 0;
  uint64_t generation = 1;
  uint64_t first_lsn = 1;  // lsn the first journaled record will carry
};

std::string EncodeSegmentHeader(const WalSegmentHeader& header);
Result<WalSegmentHeader> DecodeSegmentHeader(const std::string& payload);

/// One full scan of a WAL directory.
struct ReadLogResult {
  /// Journaled records (headers excluded), lsn strictly ascending.
  std::vector<WalRecord> records;
  /// Header of the FIRST segment — the base the log was started against
  /// (later reloads appear as kReload records in `records`).
  WalSegmentHeader first_header;
  bool has_segments = false;
  /// Duplicated frames skipped (lsn <= a previously seen lsn).
  uint64_t skipped = 0;
  /// Torn-tail truncation performed (always in the final segment).
  bool tail_truncated = false;
  std::string truncated_segment;
  uint64_t truncated_at_offset = 0;
  uint64_t truncated_bytes = 0;
};

/// Reads and validates every segment under `wal_dir` (created if absent).
/// Physically truncates a torn tail in the final segment so subsequent
/// appends continue from the last valid frame. Fails with DataLoss on
/// mid-log corruption, naming segment and offset.
Result<ReadLogResult> ReadLog(const std::string& wal_dir);

enum class FsyncPolicy {
  kAlways,    // fdatasync after every append — survives machine power loss
  kInterval,  // fdatasync when the configured interval has elapsed
  kOff,       // never fsync — survives process death (page cache), not power
};

const char* FsyncPolicyName(FsyncPolicy policy);
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name);

/// Appends frames to the current segment of a WAL directory. Not
/// thread-safe — the owner (durability::Manager) serializes access.
class WalWriter {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kInterval;
    double fsync_interval_seconds = 0.05;
    /// Rotate to a fresh segment once the current one exceeds this.
    uint64_t segment_max_bytes = 64ull << 20;
  };

  WalWriter(std::string wal_dir, Options options);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens the newest existing segment for append (or creates the first
  /// one). `header` stamps any segment this writer creates; first_lsn is
  /// overwritten per segment.
  Status Open(const WalSegmentHeader& header, uint64_t next_lsn);

  /// Frames, checksums and appends one record; assigns and returns its lsn
  /// via `lsn_out`. The frame is written (and fsynced per policy) before
  /// this returns OK — the caller makes the mutation visible only after.
  Status Append(WalRecordType type, const std::string& payload,
                uint64_t* lsn_out);

  /// Closes the current segment and starts a new one (first frame: header
  /// with the given identity and first_lsn = next lsn). Used after a
  /// snapshot so older segments become prunable.
  Status Rotate(const WalSegmentHeader& header);

  /// Deletes segments whose every frame has lsn < `keep_from_lsn`. Never
  /// touches the segment currently open for append.
  Status PruneSegmentsBelow(uint64_t keep_from_lsn);

  /// Forces an fdatasync of the current segment (drain/final snapshot).
  Status Sync();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t last_lsn() const { return next_lsn_ == 0 ? 0 : next_lsn_ - 1; }
  uint64_t appended_frames() const { return appended_frames_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t fsyncs() const { return fsyncs_; }
  double last_fsync_seconds() const { return last_fsync_seconds_; }
  /// Bytes in the open segment; durability_test finds frame offsets by it.
  uint64_t current_segment_bytes() const { return current_segment_bytes_; }
  size_t segment_count() const;
  const std::string& wal_dir() const { return wal_dir_; }

 private:
  Status OpenSegment(const std::string& path, bool create,
                     const WalSegmentHeader& header);
  Status WriteFrame(uint64_t lsn, WalRecordType type,
                    const std::string& payload);
  Status MaybeFsync(bool force);

  std::string wal_dir_;
  Options options_;
  WalSegmentHeader identity_;  // stamped on rotated segments
  int fd_ = -1;
  std::string current_path_;
  uint64_t next_lsn_ = 1;
  uint64_t current_segment_bytes_ = 0;
  uint64_t appended_frames_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t fsyncs_ = 0;
  double last_fsync_seconds_ = 0.0;
  double seconds_since_fsync_ = 0.0;  // accumulated via a monotonic clock
  long long last_fsync_tick_ns_ = 0;
};

/// Segment filename for a first lsn ("wal-%016llx.log").
std::string WalSegmentName(uint64_t first_lsn);

}  // namespace hyper::durability

#endif  // HYPER_DURABILITY_WAL_H_
