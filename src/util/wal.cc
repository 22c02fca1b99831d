#include "util/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {

namespace {

constexpr char kWalMagic[8] = {'L', 'D', 'B', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderBytes = sizeof(kWalMagic);
constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc.
// Control-plane records are tiny (tens of bytes); anything this large is a
// corrupt length field, not a real record.
constexpr uint32_t kMaxRecordBytes = 1u << 24;

std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

uint32_t LoadU32Le(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

void StoreU32Le(uint32_t v, char* p) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

Status WriteAll(int fd, const char* data, size_t n, const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("wal %s: write failed: %s",
                                       path.c_str(), std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Result<std::string> ReadAll(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(StrFormat("wal %s: open failed: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IoError(StrFormat("wal %s: read failed: %s", path.c_str(),
                                       std::strerror(err)));
    }
    if (r == 0) break;
    out.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return out;
}

/// Parses `data` (full file contents) per the recovery rules in wal.h.
Result<WalReadResult> ParseWalBytes(const std::string& data,
                                    const std::string& path) {
  WalReadResult result;
  if (data.size() < kHeaderBytes) {
    // A crash before the header sync can leave any prefix of the magic
    // (including an empty file): an empty log. Anything else is foreign.
    if (std::memcmp(data.data(), kWalMagic, data.size()) != 0) {
      return Status::IoError(
          StrFormat("wal %s: not a WAL file (bad header)", path.c_str()));
    }
    result.torn_tail = !data.empty();
    result.valid_bytes = 0;
    return result;
  }
  if (std::memcmp(data.data(), kWalMagic, kHeaderBytes) != 0) {
    return Status::IoError(StrFormat(
        "wal %s: bad magic (not a WAL file or unsupported version)",
        path.c_str()));
  }
  size_t pos = kHeaderBytes;
  result.valid_bytes = static_cast<int64_t>(pos);
  while (pos < data.size()) {
    const size_t remaining = data.size() - pos;
    if (remaining < kFrameHeaderBytes) {
      result.torn_tail = true;  // Partial frame header at EOF.
      return result;
    }
    const uint32_t length = LoadU32Le(data.data() + pos);
    const uint32_t stored_crc = LoadU32Le(data.data() + pos + 4);
    if (length > kMaxRecordBytes) {
      // An absurd length with nothing after the frame header could be a
      // torn header write; with more bytes it is interior corruption.
      if (remaining == kFrameHeaderBytes) {
        result.torn_tail = true;
        return result;
      }
      return Status::IoError(StrFormat(
          "wal %s: corrupt record at offset %zu (implausible length %u)",
          path.c_str(), pos, length));
    }
    if (remaining < kFrameHeaderBytes + length) {
      result.torn_tail = true;  // Payload runs past EOF.
      return result;
    }
    const char* payload = data.data() + pos + kFrameHeaderBytes;
    const uint32_t actual_crc = Crc32c(payload, length);
    if (actual_crc != stored_crc) {
      if (remaining == kFrameHeaderBytes + length) {
        // Final record, bit-flipped or half-written in place: torn tail.
        result.torn_tail = true;
        return result;
      }
      return Status::IoError(StrFormat(
          "wal %s: corrupt record at offset %zu (CRC mismatch)", path.c_str(),
          pos));
    }
    result.records.emplace_back(payload, length);
    pos += kFrameHeaderBytes + length;
    result.valid_bytes = static_cast<int64_t>(pos);
  }
  return result;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeCrc32cTable();
  uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

Result<WalCrashPolicy> ParseWalCrashPolicy(const std::string& text) {
  auto clauses = SplitSpecClauses("journal-crash", text);
  if (!clauses.ok()) return clauses.status();
  WalCrashPolicy policy;
  for (const SpecClause& clause : *clauses) {
    for (const SpecItem& item : clause.items) {
      int64_t* field = item.key == "after"   ? &policy.fail_after_appends
                       : item.key == "torn"  ? &policy.torn_bytes
                       : item.key == "syncs" ? &policy.drop_syncs_after
                                             : nullptr;
      if (field == nullptr) {
        return clause.Error(StrFormat("unknown key '%s'", item.key.c_str()));
      }
      LDB_RETURN_IF_ERROR(clause.Integer(item, field));
      if (*field < 0) {
        return clause.Error(StrFormat("%s must be >= 0", item.key.c_str()));
      }
    }
  }
  if (policy.torn_bytes >= 0 && policy.fail_after_appends < 0) {
    return ClauseError("journal-crash", 1,
                       "torn requires after=N (the crashing append)");
  }
  return policy;
}

Result<WalReadResult> ReadWalRecords(const std::string& path) {
  auto data = ReadAll(path);
  if (!data.ok()) return data.status();
  return ParseWalBytes(*data, path);
}

WalWriter::WalWriter(std::string path, int fd, WalCrashPolicy policy)
    : path_(std::move(path)), fd_(fd), policy_(policy) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (!crashed_) (void)Flush();  // Best effort; barriers already synced.
    ::close(fd_);
  }
}

Status WalWriter::Flush() {
  if (buffer_.empty()) return Status::Ok();
  const Status s = WriteAll(fd_, buffer_.data(), buffer_.size(), path_);
  if (s.ok()) buffer_.clear();
  return s;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   WalCrashPolicy policy) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError(StrFormat("wal %s: open failed: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  auto data = ReadAll(path);
  if (!data.ok()) {
    ::close(fd);
    return data.status();
  }
  auto parsed = ParseWalBytes(*data, path);
  if (!parsed.ok()) {
    ::close(fd);
    return parsed.status();
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd, policy));
  writer->recovered_ = static_cast<int64_t>(parsed->records.size());
  if (data->empty()) {
    // Fresh log: write and sync the header so a later torn tail can never
    // be confused with a foreign file.
    Status s = WriteAll(fd, kWalMagic, kHeaderBytes, path);
    if (s.ok() && ::fsync(fd) != 0) {
      s = Status::IoError(StrFormat("wal %s: fsync failed: %s", path.c_str(),
                                    std::strerror(errno)));
    }
    if (!s.ok()) return s;
    writer->file_bytes_ = static_cast<int64_t>(kHeaderBytes);
  } else {
    // Drop any torn tail so appends start at the last intact record. A
    // header-only torn prefix (valid_bytes == 0) is rewritten from scratch.
    int64_t valid = parsed->valid_bytes;
    if (valid < static_cast<int64_t>(kHeaderBytes)) {
      if (::ftruncate(fd, 0) != 0) {
        return Status::IoError(StrFormat("wal %s: ftruncate failed: %s",
                                         path.c_str(), std::strerror(errno)));
      }
      LDB_RETURN_IF_ERROR(WriteAll(fd, kWalMagic, kHeaderBytes, path));
      valid = static_cast<int64_t>(kHeaderBytes);
    } else if (valid < static_cast<int64_t>(data->size())) {
      if (::ftruncate(fd, valid) != 0) {
        return Status::IoError(StrFormat("wal %s: ftruncate failed: %s",
                                         path.c_str(), std::strerror(errno)));
      }
    }
    if (::fsync(fd) != 0) {
      return Status::IoError(StrFormat("wal %s: fsync failed: %s",
                                       path.c_str(), std::strerror(errno)));
    }
    if (::lseek(fd, valid, SEEK_SET) < 0) {
      return Status::IoError(StrFormat("wal %s: lseek failed: %s",
                                       path.c_str(), std::strerror(errno)));
    }
    writer->file_bytes_ = valid;
  }
  writer->synced_bytes_ = writer->file_bytes_;
  return writer;
}

Status WalWriter::Crash() {
  // Process death keeps OS-buffered bytes, so the batch reaches the fd
  // first; only the power-loss model below rolls any of it back.
  (void)Flush();
  crashed_ = true;
  if (policy_.drop_syncs_after >= 0 && synced_bytes_ < file_bytes_) {
    // Power-loss model: bytes buffered past the last effective fsync are
    // gone. Roll the file back so recovery sees what media would hold.
    if (::ftruncate(fd_, synced_bytes_) == 0) {
      file_bytes_ = synced_bytes_;
    }
  }
  return Status::IoError("wal: simulated crash");
}

Status WalWriter::Append(std::string_view payload) {
  if (crashed_) return Status::IoError("wal: simulated crash");
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument(
        StrFormat("wal %s: record of %zu bytes exceeds max %u", path_.c_str(),
                  payload.size(), kMaxRecordBytes));
  }
  std::string frame(kFrameHeaderBytes + payload.size(), '\0');
  StoreU32Le(static_cast<uint32_t>(payload.size()), frame.data());
  StoreU32Le(Crc32c(payload.data(), payload.size()), frame.data() + 4);
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
              payload.size());
  if (policy_.fail_after_appends >= 0 &&
      appended_ >= policy_.fail_after_appends) {
    // This is the crashing append. A torn policy writes a prefix of the
    // frame first — the partial record recovery must drop.
    if (policy_.torn_bytes > 0) {
      const size_t torn =
          std::min(static_cast<size_t>(policy_.torn_bytes), frame.size());
      if (Flush().ok()) {
        const Status s = WriteAll(fd_, frame.data(), torn, path_);
        if (s.ok()) file_bytes_ += static_cast<int64_t>(torn);
      }
    }
    return Crash();
  }
  buffer_ += frame;
  file_bytes_ += static_cast<int64_t>(frame.size());
  ++appended_;
  // Cap the batch so a barrier-less writer cannot grow it without bound.
  if (buffer_.size() >= (size_t{1} << 20)) return Flush();
  return Status::Ok();
}

Status WalWriter::Sync() {
  if (crashed_) return Status::IoError("wal: simulated crash");
  // The batch always reaches the OS; a dropped sync only skips the fsync
  // (data written, never made durable) — exactly the power-loss window.
  LDB_RETURN_IF_ERROR(Flush());
  ++syncs_;
  if (policy_.drop_syncs_after >= 0 && syncs_ > policy_.drop_syncs_after) {
    return Status::Ok();  // Silently dropped; synced_bytes_ stays behind.
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError(StrFormat("wal %s: fsync failed: %s", path_.c_str(),
                                     std::strerror(errno)));
  }
  synced_bytes_ = file_bytes_;
  return Status::Ok();
}

Status SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(StrFormat("sync %s: open failed: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  Status status;
  if (::fsync(fd) != 0) {
    status = Status::IoError(StrFormat("sync %s: fsync failed: %s",
                                       path.c_str(), std::strerror(errno)));
  }
  ::close(fd);
  return status;
}

Status WriteFileDurable(const std::string& path, std::string_view contents) {
  static std::atomic<uint64_t> counter{0};
  const std::filesystem::path target(path);
  const std::filesystem::path dir =
      target.has_parent_path() ? target.parent_path()
                               : std::filesystem::path(".");
  const std::string tmp =
      (dir / StrFormat(".%s.tmp.%d.%llu", target.filename().c_str(),
                       static_cast<int>(::getpid()),
                       static_cast<unsigned long long>(
                           counter.fetch_add(1, std::memory_order_relaxed))))
          .string();
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError(StrFormat("durable write %s: open failed: %s",
                                     tmp.c_str(), std::strerror(errno)));
  }
  Status status = WriteAll(fd, contents.data(), contents.size(), tmp);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError(StrFormat("durable write %s: fsync failed: %s",
                                       tmp.c_str(), std::strerror(errno)));
  }
  ::close(fd);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IoError(StrFormat("durable write %s: rename failed: %s",
                                       path.c_str(), std::strerror(errno)));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename itself must survive a crash: sync the parent directory.
  return SyncPath(dir.string());
}

}  // namespace ldb
