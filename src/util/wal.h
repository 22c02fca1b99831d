#ifndef LAYOUTDB_UTIL_WAL_H_
#define LAYOUTDB_UTIL_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ldb {

/// CRC32C (Castagnoli) checksum. `seed` chains partial checksums.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// Deterministic crash injection for WalWriter, mirroring FaultPlan: a test
/// (or `layout_advisor --journal-crash=`) arms a policy and the writer dies
/// at an exact, reproducible point instead of a random one.
///
/// Crash model:
///  - `fail_after_appends = N`: the first N appends succeed; append N+1
///    triggers the crash. With `torn_bytes = K >= 0` the crashing append
///    writes the first K bytes of its frame before dying (a torn write);
///    otherwise nothing of that record reaches the file.
///  - `drop_syncs_after = S`: Sync() calls after the S-th silently no-op
///    (an fsync that never made it to media). On crash the file is rolled
///    back to its size at the last *effective* sync, modeling a power loss
///    rather than a mere process death.
///
/// After the crash fires, every Append/Sync on the writer returns
/// kIoError and crashed() is true — the process is "dead"; callers treat
/// this as a stop-the-world signal (see MigrationExecutor freeze).
struct WalCrashPolicy {
  int64_t fail_after_appends = -1;  ///< Crash on append #(this+1); <0 = never.
  int64_t torn_bytes = -1;  ///< Frame bytes written by the crashing append.
  int64_t drop_syncs_after = -1;  ///< Syncs after this count no-op; <0 = none.

  bool enabled() const {
    return fail_after_appends >= 0 || drop_syncs_after >= 0;
  }
};

/// Parses a crash-policy spec in the util/spec_text.h grammar:
/// comma-separated `key=value` items, with `;`-separated clauses for error
/// indexing (normally one clause). Keys, all integers >= 0: `after`
/// (fail_after_appends), `torn` (torn_bytes), `syncs` (drop_syncs_after).
/// Example: "after=12,torn=5".
Result<WalCrashPolicy> ParseWalCrashPolicy(const std::string& text);

/// Parsed contents of a WAL file.
struct WalReadResult {
  std::vector<std::string> records;  ///< Payloads of all intact records.
  bool torn_tail = false;   ///< A partial final record was dropped.
  int64_t valid_bytes = 0;  ///< File offset just past the last intact record.
};

/// Reads all records from the WAL at `path`.
///
/// Recovery rules (the contract wal_test's fuzzers pin down):
///  - A frame that runs past EOF, or whose CRC mismatches with *no* bytes
///    after it, is a torn tail: dropped silently, `torn_tail` set.
///  - A CRC mismatch or malformed length with more data after it is interior
///    corruption: hard kIoError (never a silently wrong record list).
///  - A file shorter than the header that is a prefix of the magic is an
///    empty log (crash before the header sync); any other header is a hard
///    error.
Result<WalReadResult> ReadWalRecords(const std::string& path);

/// Append-only durable record log.
///
/// File layout: 8-byte magic/version header ("LDBWAL01"), then frames of
/// u32-LE payload length + u32-LE CRC32C(payload) + payload. Append()
/// buffers into the OS (no fsync); Sync() is the durability barrier.
/// Open() validates existing content, truncates a torn tail, and positions
/// for append, so crash → reopen → append is the normal lifecycle.
class WalWriter {
 public:
  /// Opens (creating if absent) the WAL at `path`. Fails on interior
  /// corruption or a foreign header. `policy` arms simulated crashes.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 WalCrashPolicy policy = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record. Returns kIoError after a (simulated or real) crash.
  Status Append(std::string_view payload);
  /// Durability barrier: fsyncs all appended records.
  Status Sync();

  /// True once a simulated crash has fired; all further ops fail.
  bool crashed() const { return crashed_; }
  /// Records appended in this session (not counting recovered ones).
  int64_t appended() const { return appended_; }
  /// Records already present when the file was opened.
  int64_t recovered() const { return recovered_; }
  /// Current file size in bytes.
  int64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, WalCrashPolicy policy);
  Status Crash();  // Simulated death: rolls back unsynced bytes if armed.
  Status Flush();  // Drains the append buffer into the fd.

  std::string path_;
  int fd_ = -1;
  WalCrashPolicy policy_;
  bool crashed_ = false;
  int64_t appended_ = 0;
  int64_t recovered_ = 0;
  int64_t syncs_ = 0;
  int64_t file_bytes_ = 0;
  int64_t synced_bytes_ = 0;  // File size as of the last effective fsync.
  // Frames batched between barriers: one write() per Sync() instead of one
  // per Append() — the group commit that keeps journal overhead in the
  // noise. Drained by Sync(), a simulated Crash() (so the injected crash
  // leaves exactly the appended records on disk), and the destructor.
  std::string buffer_;
};

/// fsyncs the file or directory at `path`. Directory sync makes a preceding
/// rename durable.
Status SyncPath(const std::string& path);

/// Atomically and durably replaces `path` with `contents`: unique tmp file
/// in the same directory, write, fsync, rename, fsync parent directory.
/// A crash at any point leaves either the old file or the complete new one,
/// never a truncated hybrid.
Status WriteFileDurable(const std::string& path, std::string_view contents);

}  // namespace ldb

#endif  // LAYOUTDB_UTIL_WAL_H_
