// Durable WAL layer: record framing, torn-tail recovery, interior
// corruption detection, deterministic crash injection, and the durable
// file-replace helper. The load-bearing properties are the fuzz sweeps:
// truncating the log at *every* byte offset, and flipping random bits,
// must always yield a clean prefix of the written records or a hard
// error — never a silently wrong record list.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "util/random.h"
#include "util/status.h"
#include "util/wal.h"

namespace ldb {
namespace {

// Per-process names: ctest runs each case alone and the whole binary as
// wal_suite, possibly at the same time in the same temp directory.
// Each file is removed when its TmpFile goes out of scope, so a run leaves
// nothing behind.
class TmpFile {
 public:
  explicit TmpFile(const std::string& name)
      : path_(testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
              name) {}
  TmpFile(const TmpFile&) = delete;
  TmpFile& operator=(const TmpFile&) = delete;
  ~TmpFile() { std::remove(path_.c_str()); }

  operator const std::string&() const { return path_; }
  const char* c_str() const { return path_.c_str(); }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Writes `records` through a fresh WalWriter and returns the file bytes.
std::string BuildLog(const std::string& path,
                     const std::vector<std::string>& records) {
  std::remove(path.c_str());
  auto w = WalWriter::Open(path);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  for (const std::string& r : records) {
    EXPECT_TRUE((*w)->Append(r).ok());
  }
  EXPECT_TRUE((*w)->Sync().ok());
  return ReadFileBytes(path);
}

// ---------------------------------------------------------------- framing

TEST(WalTest, Crc32cKnownVector) {
  // The canonical CRC32C check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // Chained partial checksums equal the one-shot checksum.
  const uint32_t head = Crc32c("12345", 5);
  EXPECT_EQ(Crc32c("6789", 4, head), 0xE3069283u);
}

TEST(WalTest, RoundTripsRecordsIncludingEmptyAndBinary)
{
  const TmpFile path("wal_roundtrip.wal");
  std::vector<std::string> records{"hello", "", std::string("\x00\xff\n", 3),
                                   std::string(100000, 'x')};
  BuildLog(path, records);

  auto read = ReadWalRecords(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(read->records[i], records[i]) << "record " << i;
  }
}

TEST(WalTest, ReopenAppendsAfterExistingRecords) {
  const TmpFile path("wal_reopen.wal");
  BuildLog(path, {"a", "b"});
  {
    auto w = WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ((*w)->recovered(), 2);
    EXPECT_TRUE((*w)->Append("c").ok());
    EXPECT_TRUE((*w)->Sync().ok());
    EXPECT_EQ((*w)->appended(), 1);
  }
  auto read = ReadWalRecords(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(WalTest, MissingFileReadsAsError) {
  auto read = ReadWalRecords(TmpFile("wal_nonexistent.wal"));
  EXPECT_FALSE(read.ok());
}

TEST(WalTest, ForeignHeaderIsHardError) {
  const TmpFile path("wal_foreign.wal");
  WriteFileBytes(path, "NOTAWAL0 some junk");
  EXPECT_FALSE(ReadWalRecords(path).ok());
  EXPECT_FALSE(WalWriter::Open(path).ok());
}

TEST(WalTest, OversizedLengthWithDataAfterIsHardError) {
  const TmpFile path("wal_oversize.wal");
  std::string bytes = BuildLog(path, {"abc", "def"});
  // Claim an implausible payload length in the first frame; the second
  // frame's bytes follow, so this is interior corruption.
  bytes[8] = '\xff';
  bytes[9] = '\xff';
  bytes[10] = '\xff';
  bytes[11] = '\x7f';
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(ReadWalRecords(path).ok());
}

// ------------------------------------------------------- torn-tail sweeps

// Truncation at every byte offset: a crash can cut the file anywhere, and
// recovery must always produce an exact prefix of the appended records.
TEST(WalTest, TruncationAtEveryByteRecoversExactPrefix) {
  const TmpFile path("wal_trunc.wal");
  const std::vector<std::string> records{"first", "", "third-record",
                                         std::string(3000, 'z'), "tail"};
  const std::string bytes = BuildLog(path, records);

  const TmpFile cut("wal_trunc_cut.wal");
  for (size_t len = 0; len <= bytes.size(); ++len) {
    WriteFileBytes(cut, bytes.substr(0, len));
    auto read = ReadWalRecords(cut);
    ASSERT_TRUE(read.ok()) << "len=" << len << ": "
                           << read.status().ToString();
    ASSERT_LE(read->records.size(), records.size()) << "len=" << len;
    for (size_t i = 0; i < read->records.size(); ++i) {
      EXPECT_EQ(read->records[i], records[i]) << "len=" << len;
    }
    if (len < bytes.size()) {
      EXPECT_LT(read->records.size(), records.size()) << "len=" << len;
    }
    // Reopening for append must land the writer on the same prefix.
    auto w = WalWriter::Open(cut);
    ASSERT_TRUE(w.ok()) << "len=" << len;
    EXPECT_EQ((*w)->recovered(),
              static_cast<int64_t>(read->records.size()))
        << "len=" << len;
  }
}

TEST(WalTest, TailCorruptionDropsOnlyTheLastRecord) {
  const TmpFile path("wal_tailflip.wal");
  const std::vector<std::string> records{"aaaa", "bbbb", "cccc"};
  std::string bytes = BuildLog(path, records);
  // Flip a bit inside the last record's payload: nothing follows it, so
  // this must read as a torn tail, not corruption.
  bytes[bytes.size() - 2] ^= 0x01;
  WriteFileBytes(path, bytes);
  auto read = ReadWalRecords(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->records, (std::vector<std::string>{"aaaa", "bbbb"}));
}

TEST(WalTest, InteriorCorruptionIsAHardError) {
  const TmpFile path("wal_interior.wal");
  const std::vector<std::string> records{"aaaa", "bbbb", "cccc"};
  std::string bytes = BuildLog(path, records);
  // Flip a payload bit in the *first* record; intact frames follow, so a
  // silent drop would lose committed history — must be a hard error.
  bytes[16] ^= 0x10;
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(ReadWalRecords(path).ok());
  EXPECT_FALSE(WalWriter::Open(path).ok());
}

// Seeded fuzz: random records, then a random truncation and/or single-bit
// flip. Every outcome must be a clean prefix or a hard error — the reader
// may never invent or alter a record.
TEST(WalTest, FuzzedDamageYieldsPrefixOrError) {
  const TmpFile path("wal_fuzz.wal");
  const TmpFile hurt("wal_fuzz_hurt.wal");
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int count = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    std::vector<std::string> records;
    for (int i = 0; i < count; ++i) {
      std::string r(rng.UniformInt(uint64_t{400}), '\0');
      for (char& c : r) c = static_cast<char>(rng.UniformInt(uint64_t{256}));
      records.push_back(std::move(r));
    }
    std::string bytes = BuildLog(path, records);

    const bool truncate = rng.Bernoulli(0.5);
    if (truncate) {
      bytes.resize(rng.UniformInt(static_cast<uint64_t>(bytes.size() + 1)));
    }
    const bool flip = !truncate || rng.Bernoulli(0.3);
    if (flip && !bytes.empty()) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(static_cast<uint64_t>(bytes.size())));
      bytes[pos] ^= static_cast<char>(1u << rng.UniformInt(uint64_t{8}));
    }
    WriteFileBytes(hurt, bytes);

    auto read = ReadWalRecords(hurt);
    if (!read.ok()) continue;  // hard corruption error: acceptable
    ASSERT_LE(read->records.size(), records.size()) << "trial " << trial;
    for (size_t i = 0; i < read->records.size(); ++i) {
      // A flipped bit could land in an already-read record only if the CRC
      // collides; with CRC32C a single-bit flip never does.
      EXPECT_EQ(read->records[i], records[i]) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------- crash injection

TEST(WalTest, ParseWalCrashPolicyGrammar) {
  auto p = ParseWalCrashPolicy("after=12,torn=5");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->fail_after_appends, 12);
  EXPECT_EQ(p->torn_bytes, 5);
  EXPECT_TRUE(p->enabled());

  auto s = ParseWalCrashPolicy("syncs=3");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->drop_syncs_after, 3);

  // An empty spec is a disabled policy, mirroring ParseFaultPlan.
  auto none = ParseWalCrashPolicy("");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->enabled());

  auto bad_key = ParseWalCrashPolicy("bogus=1");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().ToString().find("clause 1"), std::string::npos);
  // `seed` is not a key (no crash mode draws randomness): unknown, with
  // its clause number.
  auto seed = ParseWalCrashPolicy("after=1;seed=7");
  ASSERT_FALSE(seed.ok());
  EXPECT_NE(seed.status().message().find(
                "journal-crash clause 2: unknown key 'seed'"),
            std::string::npos)
      << seed.status().ToString();
  // torn without after has no crashing append to tear.
  EXPECT_FALSE(ParseWalCrashPolicy("torn=3").ok());
  EXPECT_FALSE(ParseWalCrashPolicy("after=").ok());
  EXPECT_FALSE(ParseWalCrashPolicy("after=-2").ok());
  // A count past INT64_MAX is rejected, not clamped, with the clause
  // index.
  for (const char* spec : {"after=99999999999999999999",
                           "after=1.5", "syncs=+3"}) {
    auto bad = ParseWalCrashPolicy(spec);
    ASSERT_FALSE(bad.ok()) << spec;
    EXPECT_NE(bad.status().message().find("journal-crash clause 1"),
              std::string::npos)
        << bad.status().ToString();
  }
}

TEST(WalTest, FailAfterAppendsCrashesExactlyThere) {
  const TmpFile path("wal_crash_after.wal");
  std::remove(path.c_str());
  WalCrashPolicy policy;
  policy.fail_after_appends = 3;
  auto w = WalWriter::Open(path, policy);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE((*w)->Append("r0").ok());
  EXPECT_TRUE((*w)->Append("r1").ok());
  EXPECT_TRUE((*w)->Append("r2").ok());
  EXPECT_FALSE((*w)->crashed());
  const Status dead = (*w)->Append("r3");
  EXPECT_EQ(dead.code(), StatusCode::kIoError);
  EXPECT_TRUE((*w)->crashed());
  // The dead writer stays dead.
  EXPECT_FALSE((*w)->Append("r4").ok());
  EXPECT_FALSE((*w)->Sync().ok());

  auto read = ReadWalRecords(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records, (std::vector<std::string>{"r0", "r1", "r2"}));
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, TornCrashLeavesAPrefixTheReopenTruncates) {
  const TmpFile path("wal_crash_torn.wal");
  for (int64_t torn : {int64_t{1}, int64_t{4}, int64_t{9}, int64_t{11}}) {
    std::remove(path.c_str());
    WalCrashPolicy policy;
    policy.fail_after_appends = 2;
    policy.torn_bytes = torn;
    auto w = WalWriter::Open(path, policy);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE((*w)->Append("alpha").ok());
    EXPECT_TRUE((*w)->Append("beta").ok());
    EXPECT_FALSE((*w)->Append("gamma").ok());

    auto read = ReadWalRecords(path);
    ASSERT_TRUE(read.ok()) << "torn=" << torn;
    EXPECT_EQ(read->records, (std::vector<std::string>{"alpha", "beta"}))
        << "torn=" << torn;
    EXPECT_TRUE(read->torn_tail) << "torn=" << torn;

    // Reopen truncates the torn bytes and appends cleanly after them.
    auto w2 = WalWriter::Open(path);
    ASSERT_TRUE(w2.ok()) << "torn=" << torn;
    EXPECT_EQ((*w2)->recovered(), 2) << "torn=" << torn;
    EXPECT_TRUE((*w2)->Append("delta").ok());
    EXPECT_TRUE((*w2)->Sync().ok());
    auto again = ReadWalRecords(path);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->records,
              (std::vector<std::string>{"alpha", "beta", "delta"}));
  }
}

TEST(WalTest, DroppedSyncsRollBackToLastEffectiveSyncOnCrash) {
  const TmpFile path("wal_crash_syncs.wal");
  std::remove(path.c_str());
  WalCrashPolicy policy;
  policy.fail_after_appends = 4;
  policy.drop_syncs_after = 1;
  auto w = WalWriter::Open(path, policy);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE((*w)->Append("synced-0").ok());
  EXPECT_TRUE((*w)->Append("synced-1").ok());
  EXPECT_TRUE((*w)->Sync().ok());  // effective sync #1
  EXPECT_TRUE((*w)->Append("lost-2").ok());
  EXPECT_TRUE((*w)->Sync().ok());  // dropped: never reached media
  EXPECT_TRUE((*w)->Append("lost-3").ok());
  EXPECT_FALSE((*w)->Append("crash").ok());  // power loss

  auto read = ReadWalRecords(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records,
            (std::vector<std::string>{"synced-0", "synced-1"}));
}

// -------------------------------------------------------- durable helpers

TEST(WalTest, WriteFileDurableCreatesAndReplaces) {
  const TmpFile path("durable.txt");
  ASSERT_TRUE(WriteFileDurable(path, "first contents").ok());
  EXPECT_EQ(ReadFileBytes(path), "first contents");
  ASSERT_TRUE(WriteFileDurable(path, "second").ok());
  EXPECT_EQ(ReadFileBytes(path), "second");
}

TEST(WalTest, WriteFileDurableFailsInMissingDirectory) {
  EXPECT_FALSE(
      WriteFileDurable(TmpFile("no_such_dir/child.txt"), "x").ok());
}

TEST(WalTest, SyncPathOnMissingFileFails) {
  EXPECT_FALSE(SyncPath(TmpFile("wal_sync_missing")).ok());
}

}  // namespace
}  // namespace ldb
