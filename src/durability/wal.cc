#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "durability/codec.h"

namespace hyper::durability {

namespace {

namespace fs = std::filesystem;

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

long long NowTickNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Lists wal-*.log under `dir`, sorted ascending by first lsn (the hex in
/// the name sorts lexicographically, but parse it anyway so a stray file
/// with a malformed name is rejected loudly instead of reordered quietly).
Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0) continue;
    if (name.size() != 4 + 16 + 4 || name.substr(20) != ".log") {
      return Status::DataLoss("unrecognized file in WAL directory: " + name);
    }
    uint64_t first_lsn = 0;
    for (char c : name.substr(4, 16)) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else return Status::DataLoss("malformed WAL segment name: " + name);
      first_lsn = (first_lsn << 4) | static_cast<uint64_t>(digit);
    }
    segments.emplace_back(first_lsn, entry.path().string());
  }
  if (ec) {
    return Status::Internal("listing WAL directory " + dir + ": " +
                            ec.message());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Outcome of parsing one segment's byte image.
struct SegmentScan {
  std::vector<WalRecord> frames;  // headers included (lsn 0)
  /// Byte offset of the first frame that failed to parse; == size when the
  /// whole segment parsed cleanly.
  uint64_t valid_bytes = 0;
  /// Why parsing stopped, empty if it reached end-of-file cleanly.
  std::string stop_reason;
};

SegmentScan ScanSegment(const std::string& bytes) {
  SegmentScan scan;
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kWalFrameHeaderBytes) {
      scan.stop_reason = "partial frame header (" +
                         std::to_string(bytes.size() - pos) + " bytes)";
      break;
    }
    ByteReader header(std::string_view(bytes).substr(pos, kWalFrameHeaderBytes));
    const uint32_t stored_crc = *header.U32();
    const uint64_t lsn = *header.U64();
    const uint32_t type = *header.U32();
    const uint32_t len = *header.U32();
    if (len > kWalMaxPayloadBytes) {
      scan.stop_reason =
          "implausible payload length " + std::to_string(len);
      break;
    }
    if (bytes.size() - pos - kWalFrameHeaderBytes < len) {
      scan.stop_reason = "payload runs past end of segment (want " +
                         std::to_string(len) + " bytes, have " +
                         std::to_string(bytes.size() - pos -
                                        kWalFrameHeaderBytes) +
                         ")";
      break;
    }
    const uint32_t actual_crc =
        Crc32c(bytes.data() + pos + 4, kWalFrameHeaderBytes - 4 + len);
    if (actual_crc != stored_crc) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "checksum mismatch (stored %08x, computed %08x)",
                    stored_crc, actual_crc);
      scan.stop_reason = buf;
      break;
    }
    if (type < static_cast<uint32_t>(WalRecordType::kHeader) ||
        type > static_cast<uint32_t>(WalRecordType::kReload)) {
      // The checksum passed, so this is a format from the future (or a bug),
      // not bit rot — still not safe to interpret.
      scan.stop_reason = "unknown record type " + std::to_string(type);
      break;
    }
    WalRecord record;
    record.lsn = lsn;
    record.type = static_cast<WalRecordType>(type);
    record.payload = bytes.substr(pos + kWalFrameHeaderBytes, len);
    scan.frames.push_back(std::move(record));
    pos += kWalFrameHeaderBytes + len;
    scan.valid_bytes = pos;
  }
  if (scan.stop_reason.empty()) scan.valid_bytes = bytes.size();
  return scan;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Internal("cannot open WAL segment " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("error reading WAL segment " + path);
  *out = std::move(bytes);
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal(Errno("open dir", dir));
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(Errno("fsync dir", dir));
  return Status::OK();
}

std::string FrameBytes(uint64_t lsn, WalRecordType type,
                       const std::string& payload) {
  ByteWriter body;
  body.U64(lsn);
  body.U32(static_cast<uint32_t>(type));
  body.U32(static_cast<uint32_t>(payload.size()));
  std::string frame = body.Take();
  frame.append(payload);
  ByteWriter crc;
  crc.U32(Crc32c(frame.data(), frame.size()));
  std::string out = crc.Take();
  out.append(frame);
  return out;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kOff: return "off";
  }
  return "unknown";
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "off") return FsyncPolicy::kOff;
  return Status::InvalidArgument("unknown fsync policy '" + name +
                                 "' (want always|interval|off)");
}

std::string WalSegmentName(uint64_t first_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

std::string EncodeSegmentHeader(const WalSegmentHeader& header) {
  ByteWriter w;
  w.U32(header.format_version);
  w.U64(header.base_fingerprint);
  w.U64(header.generation);
  w.U64(header.first_lsn);
  return w.Take();
}

Result<WalSegmentHeader> DecodeSegmentHeader(const std::string& payload) {
  ByteReader r(payload);
  WalSegmentHeader header;
  HYPER_ASSIGN_OR_RETURN(header.format_version, r.U32());
  if (header.format_version != kWalFormatVersion) {
    return Status::DataLoss("unsupported WAL format version " +
                            std::to_string(header.format_version));
  }
  HYPER_ASSIGN_OR_RETURN(header.base_fingerprint, r.U64());
  HYPER_ASSIGN_OR_RETURN(header.generation, r.U64());
  HYPER_ASSIGN_OR_RETURN(header.first_lsn, r.U64());
  return header;
}

Result<ReadLogResult> ReadLog(const std::string& wal_dir) {
  std::error_code ec;
  fs::create_directories(wal_dir, ec);
  if (ec) {
    return Status::Internal("cannot create WAL directory " + wal_dir + ": " +
                            ec.message());
  }
  HYPER_ASSIGN_OR_RETURN(auto segments, ListSegments(wal_dir));

  ReadLogResult result;
  if (segments.empty()) return result;
  result.has_segments = true;

  uint64_t max_lsn = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].second;
    const bool is_last_segment = (i + 1 == segments.size());
    std::string bytes;
    HYPER_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
    SegmentScan scan = ScanSegment(bytes);

    if (!scan.stop_reason.empty()) {
      // Only a damaged tail of the FINAL segment can be a torn append; a
      // damaged frame anywhere else means acknowledged history is gone.
      if (!is_last_segment) {
        return Status::DataLoss("WAL corruption in non-final segment " + path +
                                " at offset " +
                                std::to_string(scan.valid_bytes) + ": " +
                                scan.stop_reason);
      }
      // A parse failure with more parseable data after it is bit rot, not a
      // torn append: probe whether any later offset begins a valid frame.
      const size_t resync_from = scan.valid_bytes + 1;
      for (size_t probe = resync_from; probe + kWalFrameHeaderBytes <= bytes.size();
           ++probe) {
        SegmentScan rest = ScanSegment(bytes.substr(probe));
        if (!rest.frames.empty()) {
          return Status::DataLoss(
              "WAL corruption mid-segment in " + path + " at offset " +
              std::to_string(scan.valid_bytes) + " (" + scan.stop_reason +
              "; valid frame follows at offset " + std::to_string(probe) +
              ") — refusing to recover past a hole");
        }
      }
      // Nothing valid after the damage: torn tail. Truncate to the last
      // fully-validated frame so future appends continue cleanly.
      if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) != 0) {
        return Status::Internal(Errno("truncate torn WAL tail", path));
      }
      result.tail_truncated = true;
      result.truncated_segment = path;
      result.truncated_at_offset = scan.valid_bytes;
      result.truncated_bytes = bytes.size() - scan.valid_bytes;
    }

    bool saw_header = false;
    for (auto& frame : scan.frames) {
      if (frame.type == WalRecordType::kHeader) {
        HYPER_ASSIGN_OR_RETURN(WalSegmentHeader header,
                               DecodeSegmentHeader(frame.payload));
        if (i == 0 && !saw_header) result.first_header = header;
        saw_header = true;
        continue;
      }
      if (!saw_header) {
        return Status::DataLoss("WAL segment " + path +
                                " does not begin with a header record");
      }
      if (frame.lsn <= max_lsn) {
        ++result.skipped;  // duplicated append; replay is idempotent
        continue;
      }
      max_lsn = frame.lsn;
      result.records.push_back(std::move(frame));
    }
  }
  return result;
}

WalWriter::WalWriter(std::string wal_dir, Options options)
    : wal_dir_(std::move(wal_dir)), options_(options) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (options_.fsync != FsyncPolicy::kOff) ::fdatasync(fd_);
    ::close(fd_);
  }
}

Status WalWriter::Open(const WalSegmentHeader& header, uint64_t next_lsn) {
  identity_ = header;
  next_lsn_ = next_lsn;
  last_fsync_tick_ns_ = NowTickNs();
  std::error_code ec;
  fs::create_directories(wal_dir_, ec);
  if (ec) {
    return Status::Internal("cannot create WAL directory " + wal_dir_ + ": " +
                            ec.message());
  }
  HYPER_ASSIGN_OR_RETURN(auto segments, ListSegments(wal_dir_));
  if (segments.empty()) {
    WalSegmentHeader first = identity_;
    first.first_lsn = next_lsn_;
    return OpenSegment(wal_dir_ + "/" + WalSegmentName(next_lsn_),
                       /*create=*/true, first);
  }
  return OpenSegment(segments.back().second, /*create=*/false, identity_);
}

Status WalWriter::OpenSegment(const std::string& path, bool create,
                              const WalSegmentHeader& header) {
  if (fd_ >= 0) {
    if (options_.fsync != FsyncPolicy::kOff) {
      if (::fdatasync(fd_) != 0) {
        return Status::Internal(Errno("fdatasync", current_path_));
      }
    }
    ::close(fd_);
    fd_ = -1;
  }
  int flags = O_WRONLY | O_APPEND | O_CLOEXEC;
  if (create) flags |= O_CREAT | O_EXCL;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Status::Internal(Errno("open WAL segment", path));
  fd_ = fd;
  current_path_ = path;
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::Internal(Errno("fstat WAL segment", path));
  }
  current_segment_bytes_ = static_cast<uint64_t>(st.st_size);
  if (create) {
    HYPER_RETURN_NOT_OK(
        WriteFrame(0, WalRecordType::kHeader, EncodeSegmentHeader(header)));
    HYPER_RETURN_NOT_OK(MaybeFsync(/*force=*/true));
    // Make the new directory entry itself durable before frames pile in.
    HYPER_RETURN_NOT_OK(FsyncDir(wal_dir_));
  }
  return Status::OK();
}

Status WalWriter::WriteFrame(uint64_t lsn, WalRecordType type,
                             const std::string& payload) {
  const std::string frame = FrameBytes(lsn, type, payload);
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write WAL frame", current_path_));
    }
    written += static_cast<size_t>(n);
  }
  current_segment_bytes_ += frame.size();
  appended_bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::MaybeFsync(bool force) {
  bool should = force;
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      should = true;
      break;
    case FsyncPolicy::kInterval: {
      const long long now = NowTickNs();
      seconds_since_fsync_ =
          static_cast<double>(now - last_fsync_tick_ns_) * 1e-9;
      if (seconds_since_fsync_ >= options_.fsync_interval_seconds) {
        should = true;
      }
      break;
    }
    case FsyncPolicy::kOff:
      break;
  }
  if (!should) return Status::OK();
  const long long start = NowTickNs();
  if (::fdatasync(fd_) != 0) {
    return Status::Internal(Errno("fdatasync", current_path_));
  }
  const long long end = NowTickNs();
  ++fsyncs_;
  last_fsync_seconds_ = static_cast<double>(end - start) * 1e-9;
  last_fsync_tick_ns_ = end;
  return Status::OK();
}

Status WalWriter::Append(WalRecordType type, const std::string& payload,
                         uint64_t* lsn_out) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is not open");
  if (current_segment_bytes_ >= options_.segment_max_bytes) {
    HYPER_RETURN_NOT_OK(Rotate(identity_));
  }
  const uint64_t lsn = next_lsn_;
  HYPER_RETURN_NOT_OK(WriteFrame(lsn, type, payload));
  HYPER_RETURN_NOT_OK(MaybeFsync(/*force=*/false));
  next_lsn_ = lsn + 1;
  ++appended_frames_;
  if (lsn_out != nullptr) *lsn_out = lsn;
  return Status::OK();
}

Status WalWriter::Rotate(const WalSegmentHeader& header) {
  identity_ = header;
  WalSegmentHeader stamped = identity_;
  stamped.first_lsn = next_lsn_;
  return OpenSegment(wal_dir_ + "/" + WalSegmentName(next_lsn_),
                     /*create=*/true, stamped);
}

Status WalWriter::PruneSegmentsBelow(uint64_t keep_from_lsn) {
  HYPER_ASSIGN_OR_RETURN(auto segments, ListSegments(wal_dir_));
  // A segment is prunable when the NEXT segment starts at or below the keep
  // point (then every frame here is < keep_from_lsn) and it is not open.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first > keep_from_lsn) break;
    if (segments[i].second == current_path_) break;
    std::error_code ec;
    fs::remove(segments[i].second, ec);
    if (ec) {
      return Status::Internal("cannot prune WAL segment " +
                              segments[i].second + ": " + ec.message());
    }
  }
  return FsyncDir(wal_dir_);
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::OK();
  return MaybeFsync(/*force=*/true);
}

size_t WalWriter::segment_count() const {
  auto segments = ListSegments(wal_dir_);
  return segments.ok() ? segments->size() : 0;
}

}  // namespace hyper::durability
