// The file backend must move real bytes: probe validation, alignment
// accounting, timing-only and out-of-range requests, the dual-epoch data
// plane, window transfers (coalesced runs against per-chunk reads, with
// and without O_DIRECT), the word-wise pattern kernels against a
// byte-at-a-time oracle, and a full in-process migration whose every byte
// verifies against the deterministic pattern afterward.

#include <unistd.h>

#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/migrate.h"
#include "io/file_backend.h"
#include "io/pattern.h"
#include "storage/disk.h"
#include "storage/fault.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/check.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/query.h"
#include "workload/spec.h"

namespace ldb {
namespace {

std::unique_ptr<StorageSystem> MakeSystem3(const DiskModel& proto) {
  std::vector<TargetSpec> specs{
      {"d0", &proto, 1, 64 * kKiB},
      {"d1", &proto, 1, 64 * kKiB},
      {"d2", &proto, 1, 64 * kKiB},
  };
  return std::make_unique<StorageSystem>(specs);
}

StripedVolumeManager MakeVolumes(std::vector<int64_t> sizes,
                                 std::vector<std::vector<int>> placements,
                                 std::vector<int64_t> capacities) {
  auto v = StripedVolumeManager::Create(std::move(sizes),
                                        std::move(placements),
                                        std::move(capacities), 64 * kKiB);
  LDB_CHECK(v.ok());
  return std::move(v).value();
}

/// Fresh per-test scratch directory under the gtest temp root, removed
/// with its backing files when the test program exits.
std::string FreshDir(const std::string& name) {
  struct Made {
    std::vector<std::string> dirs;
    ~Made() {
      std::error_code ec;
      for (const std::string& d : dirs) std::filesystem::remove_all(d, ec);
    }
  };
  static Made made;
  std::string dir = testing::TempDir() + "/io_backend_" + name +
                    StrFormat("_%d_%zu", static_cast<int>(::getpid()),
                              made.dirs.size());
  ::mkdir(dir.c_str(), 0755);
  made.dirs.push_back(dir);
  return dir;
}

FileBackendOptions SmallFileOptions(const std::string& dir, int targets,
                                    int64_t capacity) {
  FileBackendOptions o;
  o.dir = dir;
  o.capacity_bytes.assign(static_cast<size_t>(targets), capacity);
  o.quiet = true;  // tmpfs build dirs reject O_DIRECT; that's fine here
  return o;
}

// ------------------------------------------------------------ FileBackend

TEST(FileBackendTest, ProbeRejectsSizeNotMultipleOfBlock) {
  const std::string dir = FreshDir("badsize");
  // Pre-create target 0 with a torn 1000-byte size.
  const std::string path = dir + "/target-000.dat";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::vector<char> junk(1000, 'x');
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);

  auto opened = FileBackend::Open(SmallFileOptions(dir, 2, 64 * kKiB));
  ASSERT_FALSE(opened.ok());
  const std::string msg = opened.status().message();
  EXPECT_NE(msg.find("backend target clause 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("not a multiple"), std::string::npos) << msg;
}

TEST(FileBackendTest, ProbeRejectsNonRegularTarget) {
  const std::string dir = FreshDir("nonreg");
  ASSERT_EQ(::mkdir((dir + "/target-000.dat").c_str(), 0755), 0);
  auto opened = FileBackend::Open(SmallFileOptions(dir, 1, 64 * kKiB));
  ASSERT_FALSE(opened.ok());
  const std::string msg = opened.status().message();
  EXPECT_NE(msg.find("backend target clause 1"), std::string::npos) << msg;
}

TEST(FileBackendTest, ProbeRejectsNonPositiveCapacity) {
  const std::string dir = FreshDir("zerocap");
  FileBackendOptions o = SmallFileOptions(dir, 2, 64 * kKiB);
  o.capacity_bytes[1] = 0;
  auto opened = FileBackend::Open(o);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("backend target clause 2"),
            std::string::npos)
      << opened.status().message();
}

TEST(FileBackendTest, SyncRoundtripAndAlignmentCounters) {
  const std::string dir = FreshDir("roundtrip");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 1, kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;
  ASSERT_EQ(b.geometry().num_targets, 1);
  EXPECT_EQ(b.geometry().capacity_bytes[0], kMiB);

  std::vector<char> out(8192), in(8192, 0);
  FillPattern(/*object=*/3, /*offset=*/0, 8192, out.data());
  ASSERT_TRUE(b.WriteSync(0, 4096, 8192, out.data()).ok());
  ASSERT_TRUE(b.Sync().ok());
  ASSERT_TRUE(b.ReadSync(0, 4096, 8192, in.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), in.data(), 8192), 0);

  // An unaligned request is served (buffered fallback) and counted.
  const uint64_t before = b.counters().unaligned_requests;
  ASSERT_TRUE(b.ReadSync(0, 100, 700, in.data()).ok());
  EXPECT_EQ(b.counters().unaligned_requests, before + 1);
  EXPECT_GE(b.counters().writes, 1u);
  EXPECT_GE(b.counters().reads, 2u);
  EXPECT_GE(b.counters().syncs, 1u);
  EXPECT_GE(b.counters().io_time_s, 0.0);
}

TEST(FileBackendTest, NullBufferIsTimingOnlyAndCounted) {
  const std::string dir = FreshDir("timing");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 2, kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;

  std::vector<char> data(64 * kKiB);
  FillPattern(/*object=*/1, /*offset=*/0, 64 * kKiB, data.data());
  ASSERT_TRUE(b.WriteSync(1, 128 * kKiB, 64 * kKiB, data.data()).ok());

  // Timing-only: null buffers move bytes through the backend's scratch
  // and count like any other request.
  const BackendCounters before = b.counters();
  const Status read = b.ReadSync(1, 128 * kKiB, 64 * kKiB, nullptr);
  ASSERT_TRUE(read.ok()) << read.ToString();
  const Status write = b.WriteSync(0, 0, 64 * kKiB, nullptr);
  ASSERT_TRUE(write.ok()) << write.ToString();
  const BackendCounters after = b.counters();
  EXPECT_EQ(after.reads, before.reads + 1);
  EXPECT_EQ(after.writes, before.writes + 1);
  EXPECT_EQ(after.bytes_read, before.bytes_read + 64 * kKiB);
  EXPECT_EQ(after.bytes_written, before.bytes_written + 64 * kKiB);
  EXPECT_EQ(after.errors, before.errors);
  EXPECT_GE(after.io_time_s, before.io_time_s);

  // The timing-only write went to target 0: target 1's bytes are intact.
  std::vector<char> back(64 * kKiB, 0);
  ASSERT_TRUE(b.ReadSync(1, 128 * kKiB, 64 * kKiB, back.data()).ok());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
}

TEST(FileBackendTest, OutOfRangeRejectedOnBothCalls) {
  const std::string dir = FreshDir("range");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 1, kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;
  std::vector<char> buf(8192);
  struct Case {
    const char* what;
    int target;
    int64_t offset;
    int64_t size;
  };
  const Case cases[] = {
      {"starts at capacity", 0, kMiB, 4096},
      {"straddles the end", 0, kMiB - 4096, 8192},
      {"negative offset", 0, -4096, 4096},
      {"offset + size overflows", 0,
       std::numeric_limits<int64_t>::max() - 4095, 8192},
      {"zero size", 0, 0, 0},
      {"bad target", 1, 0, 4096},
      {"negative target", -1, 0, 4096},
  };
  const BackendCounters before = b.counters();
  for (const Case& c : cases) {
    const Status read = b.ReadSync(c.target, c.offset, c.size, buf.data());
    EXPECT_EQ(read.code(), StatusCode::kInvalidArgument) << c.what;
    const Status write = b.WriteSync(c.target, c.offset, c.size, buf.data());
    EXPECT_EQ(write.code(), StatusCode::kInvalidArgument) << c.what;
  }
  const BackendCounters after = b.counters();
  EXPECT_EQ(after.reads, before.reads);
  EXPECT_EQ(after.writes, before.writes);
  EXPECT_EQ(after.bytes_read, before.bytes_read);
  EXPECT_EQ(after.bytes_written, before.bytes_written);
  EXPECT_EQ(after.errors, before.errors);
  EXPECT_EQ(after.unaligned_requests, before.unaligned_requests);
}

TEST(FileBackendTest, DualEpochHalvesAreDisjoint) {
  const std::string dir = FreshDir("epoch");
  FileBackendOptions o = SmallFileOptions(dir, 1, kMiB);
  o.dual_epoch = true;
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;
  // Provisioned at 2x; the stride is the single-epoch capacity.
  EXPECT_EQ(b.geometry().capacity_bytes[0], 2 * kMiB);
  ASSERT_EQ(b.geometry().epoch_stride.size(), 1u);
  EXPECT_EQ(b.geometry().epoch_stride[0], kMiB);

  // The same simulated chunk offset lands in different file halves per
  // epoch, so a destination write cannot clobber source bytes.
  const TargetChunk src{/*target=*/0, /*offset=*/0, /*size=*/4096,
                        /*epoch=*/0};
  TargetChunk dst = src;
  dst.epoch = 1;
  EXPECT_EQ(DataPlaneOffset(b.geometry(), src), 0);
  EXPECT_EQ(DataPlaneOffset(b.geometry(), dst), kMiB);

  std::vector<char> a(4096, 'a'), z(4096, 'z'), back(4096);
  ASSERT_TRUE(
      b.WriteSync(0, DataPlaneOffset(b.geometry(), src), 4096, a.data())
          .ok());
  ASSERT_TRUE(
      b.WriteSync(0, DataPlaneOffset(b.geometry(), dst), 4096, z.data())
          .ok());
  ASSERT_TRUE(
      b.ReadSync(0, DataPlaneOffset(b.geometry(), src), 4096, back.data())
          .ok());
  EXPECT_EQ(back[0], 'a');
  ASSERT_TRUE(
      b.ReadSync(0, DataPlaneOffset(b.geometry(), dst), 4096, back.data())
          .ok());
  EXPECT_EQ(back[0], 'z');
}

TEST(FileBackendTest, PatternPopulateThenVerify) {
  const std::string dir = FreshDir("pattern");
  auto opened = FileBackend::Open(SmallFileOptions(dir, 3, 8 * kMiB));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& b = **opened;

  const std::vector<int64_t> sizes{2 * kMiB, kMiB + 64 * kKiB, 512 * kKiB};
  StripedVolumeManager vol =
      MakeVolumes(sizes, {{0, 1}, {2}, {0, 2}}, {8 * kMiB, 8 * kMiB, 8 * kMiB});
  PassthroughRouter router(&vol);

  ASSERT_TRUE(PopulateBackendPattern(&b, &router).ok());
  auto verified = VerifyBackendPattern(&b, &router);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 2 * kMiB + kMiB + 64 * kKiB + 512 * kKiB);

  // Corrupt one block under object 0's first extent: verification must
  // name the mismatch instead of passing.
  std::vector<char> zeros(4096, 0);
  ASSERT_TRUE(b.WriteSync(0, 0, 4096, zeros.data()).ok());
  auto broken = VerifyBackendPattern(&b, &router);
  ASSERT_FALSE(broken.ok());
  EXPECT_NE(broken.status().message().find("pattern mismatch"),
            std::string::npos)
      << broken.status().message();
}

// ------------------------------------------------------ pattern kernels

/// Byte-at-a-time oracle of FillPattern: byte p is byte p % 8 of the
/// pattern word at p - p % 8.
char OracleByte(ObjectId object, int64_t p) {
  const uint64_t word = PatternWord(object, p - p % 8);
  return reinterpret_cast<const char*>(&word)[p % 8];
}

int64_t OracleMismatch(ObjectId object, int64_t offset, int64_t size,
                       const char* buf) {
  for (int64_t b = 0; b < size; ++b) {
    if (buf[b] != OracleByte(object, offset + b)) return offset + b;
  }
  return -1;
}

/// Object-relative start positions: every residue mod 8, at a small and at
/// a large word-aligned base.
std::vector<int64_t> StartOffsets() {
  std::vector<int64_t> starts;
  for (int64_t base : {int64_t{0}, int64_t{8}, int64_t{1} << 33}) {
    for (int64_t r = 0; r < 8; ++r) starts.push_back(base + r);
  }
  return starts;
}

TEST(PatternKernelTest, FillMatchesByteOracleAndStaysInBounds) {
  constexpr ObjectId kObject = 5;
  constexpr int64_t kGuard = 16;
  for (int64_t start : StartOffsets()) {
    std::vector<int64_t> sizes;
    for (int64_t n = 0; n <= 64; ++n) sizes.push_back(n);
    sizes.push_back(kMiB + 3);
    for (int64_t size : sizes) {
      std::vector<char> buf(static_cast<size_t>(size + kGuard), '\x5a');
      FillPattern(kObject, start, size, buf.data());
      for (int64_t b = 0; b < size; ++b) {
        ASSERT_EQ(buf[static_cast<size_t>(b)], OracleByte(kObject, start + b))
            << "start " << start << " size " << size << " byte " << b;
      }
      for (int64_t b = size; b < size + kGuard; ++b) {
        ASSERT_EQ(buf[static_cast<size_t>(b)], '\x5a')
            << "start " << start << " size " << size << " wrote past the end";
      }
      EXPECT_EQ(FindPatternMismatch(kObject, start, size, buf.data()), -1)
          << "start " << start << " size " << size;
    }
  }
}

TEST(PatternKernelTest, MismatchOffsetEqualsByteOracle) {
  constexpr ObjectId kObject = 9;
  for (int64_t start : StartOffsets()) {
    for (int64_t size : {int64_t{64}, kMiB + 3}) {
      std::vector<char> buf(static_cast<size_t>(size));
      FillPattern(kObject, start, size, buf.data());
      ASSERT_EQ(OracleMismatch(kObject, start, size, buf.data()), -1);
      // A flipped byte at each position of a 64-byte span at the front and
      // at the back of the buffer (the oracle scans only the span: the rest
      // matches, as just checked); then a second, later flip that must not
      // hide the first.
      for (int64_t span_base : {int64_t{0}, size - 64}) {
        for (int64_t p = span_base; p < span_base + 64; ++p) {
          char& b = buf[static_cast<size_t>(p)];
          b = static_cast<char>(b ^ 0x10);
          const int64_t want =
              OracleMismatch(kObject, start + span_base, 64,
                             buf.data() + span_base);
          ASSERT_EQ(want, start + p);
          ASSERT_EQ(FindPatternMismatch(kObject, start, size, buf.data()),
                    want)
              << "start " << start << " size " << size << " flip " << p;
          if (p + 9 < size) {
            char& later = buf[static_cast<size_t>(p + 9)];
            later = static_cast<char>(later ^ 0x01);
            ASSERT_EQ(FindPatternMismatch(kObject, start, size, buf.data()),
                      want);
            later = static_cast<char>(later ^ 0x01);
          }
          b = static_cast<char>(b ^ 0x10);
        }
      }
      // Every short size: flip each byte in turn.
      if (size == 64) {
        for (int64_t n = 1; n <= 64; ++n) {
          for (int64_t p = 0; p < n; ++p) {
            char& b = buf[static_cast<size_t>(p)];
            b = static_cast<char>(~b);
            ASSERT_EQ(FindPatternMismatch(kObject, start, n, buf.data()),
                      OracleMismatch(kObject, start, n, buf.data()))
                << "start " << start << " size " << n << " flip " << p;
            b = static_cast<char>(~b);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------ window transfers

/// Window transfers run once with O_DIRECT requested and once buffered.
class WindowTransferTest : public testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<FileBackend> Open(const std::string& name, int targets,
                                    int64_t capacity, bool dual_epoch) {
    FileBackendOptions o = SmallFileOptions(
        FreshDir(name + (GetParam() ? "_direct" : "_buffered")), targets,
        capacity);
    o.try_direct = GetParam();
    o.dual_epoch = dual_epoch;
    auto opened = FileBackend::Open(o);
    LDB_CHECK(opened.ok());
    return std::move(opened).value();
  }
};

/// One SEE-like window: `pieces` 64 KiB stripe chunks dealt round-robin
/// over `targets` targets, each target's chunks contiguous from `base`.
std::vector<TargetChunk> SeeWindow(int targets, int pieces, int64_t base,
                                   int epoch) {
  std::vector<TargetChunk> window;
  for (int k = 0; k < pieces; ++k) {
    window.push_back(TargetChunk{k % targets,
                                 base + (k / targets) * 64 * kKiB, 64 * kKiB,
                                 epoch});
  }
  return window;
}

int64_t WindowBytes(const std::vector<TargetChunk>& window) {
  int64_t total = 0;
  for (const TargetChunk& c : window) total += c.size;
  return total;
}

/// Each chunk's bytes read back with its own ReadSync, back to back.
std::vector<char> ReadPerChunk(FileBackend* b,
                               const std::vector<TargetChunk>& window) {
  std::vector<char> out(static_cast<size_t>(WindowBytes(window)));
  int64_t at = 0;
  for (const TargetChunk& c : window) {
    const Status s = b->ReadSync(c.target, DataPlaneOffset(b->geometry(), c),
                                 c.size, out.data() + at);
    LDB_CHECK(s.ok());
    at += c.size;
  }
  return out;
}

/// Fills an aligned staging buffer with object 7's pattern of bytes
/// [salt, salt + bytes).
void FillPatternBuffer(AlignedBuffer* buf, int64_t bytes, int64_t salt = 0) {
  LDB_CHECK(buf->Reserve(bytes, 4096).ok());
  FillPattern(/*object=*/7, salt, bytes, buf->data());
}

TEST_P(WindowTransferTest, SeeWindowIsOneSyscallPerTargetAndMatchesChunks) {
  auto b = Open("see", 4, 2 * kMiB, /*dual_epoch=*/true);
  // Source in epoch 0, a two-target destination in epoch 1.
  const std::vector<TargetChunk> source = SeeWindow(4, 16, 256 * kKiB, 0);
  const std::vector<TargetChunk> destination =
      SeeWindow(2, 16, 512 * kKiB, 1);
  AlignedBuffer out;
  FillPatternBuffer(&out, kMiB);

  BackendCounters before = b->counters();
  ASSERT_TRUE(b->TransferChunks(source, /*is_write=*/true, out.data()).ok());
  BackendCounters after = b->counters();
  EXPECT_EQ(after.syscalls - before.syscalls, 4u);
  EXPECT_EQ(after.writes - before.writes, 16u);
  EXPECT_EQ(after.bytes_written - before.bytes_written, kMiB);
  EXPECT_EQ(after.unaligned_requests, before.unaligned_requests);
  std::vector<char> back = ReadPerChunk(b.get(), source);
  EXPECT_EQ(std::memcmp(back.data(), out.data(), kMiB), 0);

  // The migration's copy: read the source window, write the destination.
  AlignedBuffer copy;
  ASSERT_TRUE(copy.Reserve(kMiB, 4096).ok());
  before = b->counters();
  ASSERT_TRUE(b->TransferChunks(source, /*is_write=*/false, copy.data()).ok());
  ASSERT_TRUE(
      b->TransferChunks(destination, /*is_write=*/true, copy.data()).ok());
  after = b->counters();
  EXPECT_EQ(after.syscalls - before.syscalls, 4u + 2u);
  EXPECT_EQ(after.reads - before.reads, 16u);
  EXPECT_EQ(after.bytes_read - before.bytes_read, kMiB);
  back = ReadPerChunk(b.get(), destination);
  EXPECT_EQ(std::memcmp(back.data(), out.data(), kMiB), 0);
  // Epoch 1 landed in the upper half: the source bytes are intact.
  back = ReadPerChunk(b.get(), source);
  EXPECT_EQ(std::memcmp(back.data(), out.data(), kMiB), 0);
}

TEST_P(WindowTransferTest, GapsAndTargetBoundariesSplitRuns) {
  auto b = Open("gaps", 3, kMiB, /*dual_epoch=*/false);
  // In list order: t0 [0, 64K); t1 [256K, 320K) (starts where t0's last
  // run ends, on another target); t0 [128K, 192K) (a 64 KiB gap after
  // t0's first chunk); t0 [192K, 256K) (contiguous with the previous one);
  // t2 [0, 4K).
  const std::vector<TargetChunk> window{
      {0, 0, 64 * kKiB, 0},          {1, 256 * kKiB, 64 * kKiB, 0},
      {0, 128 * kKiB, 64 * kKiB, 0}, {0, 192 * kKiB, 64 * kKiB, 0},
      {2, 0, 4 * kKiB, 0},
  };
  const int64_t bytes = WindowBytes(window);
  AlignedBuffer out;
  FillPatternBuffer(&out, bytes, /*salt=*/3);
  const BackendCounters before = b->counters();
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/true, out.data()).ok());
  // Runs: t0 {0}, t0 {128K, 192K}, t1, t2.
  EXPECT_EQ(b->counters().syscalls - before.syscalls, 4u);
  std::vector<char> back = ReadPerChunk(b.get(), window);
  EXPECT_EQ(std::memcmp(back.data(), out.data(), static_cast<size_t>(bytes)),
            0);
  // The gap stays unwritten (a zero-filled new file).
  std::vector<char> gap(64 * kKiB, 1);
  ASSERT_TRUE(b->ReadSync(0, 64 * kKiB, 64 * kKiB, gap.data()).ok());
  EXPECT_EQ(gap, std::vector<char>(64 * kKiB, 0));

  // Reading the window back in one call gives the same bytes.
  AlignedBuffer in;
  ASSERT_TRUE(in.Reserve(bytes, 4096).ok());
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/false, in.data()).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), static_cast<size_t>(bytes)),
            0);
}

TEST_P(WindowTransferTest, UnalignedTailGoesAloneAndCountsOnce) {
  auto b = Open("tail", 2, kMiB, /*dual_epoch=*/false);
  // An object whose size ends 700 bytes into a block: the tail chunk
  // cannot join a run.
  const std::vector<TargetChunk> window{
      {0, 0, 64 * kKiB, 0},
      {1, 0, 64 * kKiB, 0},
      {0, 64 * kKiB, 4096 + 700, 0},
  };
  const int64_t bytes = WindowBytes(window);
  AlignedBuffer out;
  FillPatternBuffer(&out, bytes);
  BackendCounters before = b->counters();
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/true, out.data()).ok());
  BackendCounters after = b->counters();
  EXPECT_EQ(after.unaligned_requests - before.unaligned_requests, 1u);
  EXPECT_EQ(after.writes - before.writes, 3u);
  EXPECT_EQ(after.bytes_written - before.bytes_written, bytes);
  std::vector<char> back = ReadPerChunk(b.get(), window);
  EXPECT_EQ(std::memcmp(back.data(), out.data(), static_cast<size_t>(bytes)),
            0);

  before = b->counters();
  AlignedBuffer in;
  ASSERT_TRUE(in.Reserve(bytes, 4096).ok());
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/false, in.data()).ok());
  after = b->counters();
  EXPECT_EQ(after.unaligned_requests - before.unaligned_requests, 1u);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), static_cast<size_t>(bytes)),
            0);
}

TEST_P(WindowTransferTest, UnalignedCallerBufferStillMovesTheRightBytes) {
  auto b = Open("membuf", 2, kMiB, /*dual_epoch=*/false);
  const std::vector<TargetChunk> window = SeeWindow(2, 4, 0, 0);
  const int64_t bytes = WindowBytes(window);
  // One byte into an aligned block: O_DIRECT cannot take it in place.
  AlignedBuffer raw;
  ASSERT_TRUE(raw.Reserve(bytes + 4096, 4096).ok());
  char* odd = raw.data() + 1;
  FillPattern(/*object=*/2, 0, bytes, odd);
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/true, odd).ok());
  EXPECT_EQ(b->counters().unaligned_requests, 0u);
  std::vector<char> back = ReadPerChunk(b.get(), window);
  EXPECT_EQ(std::memcmp(back.data(), odd, static_cast<size_t>(bytes)), 0);
  std::memset(odd, 0, static_cast<size_t>(bytes));
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/false, odd).ok());
  EXPECT_EQ(FindPatternMismatch(/*object=*/2, 0, bytes, odd), -1);
}

TEST_P(WindowTransferTest, RunLongerThanIovMaxIsSplit) {
  constexpr int kPieces = IOV_MAX + 76;
  auto b = Open("iovmax", 1, int64_t{kPieces} * 4096, /*dual_epoch=*/false);
  std::vector<TargetChunk> window;
  for (int k = 0; k < kPieces; ++k) {
    window.push_back(TargetChunk{0, int64_t{k} * 4096, 4096, 0});
  }
  const int64_t bytes = WindowBytes(window);
  AlignedBuffer out;
  FillPatternBuffer(&out, bytes);
  const BackendCounters before = b->counters();
  ASSERT_TRUE(b->TransferChunks(window, /*is_write=*/true, out.data()).ok());
  EXPECT_EQ(b->counters().syscalls - before.syscalls, 2u);
  std::vector<char> back(static_cast<size_t>(bytes));
  ASSERT_TRUE(b->ReadSync(0, 0, bytes, back.data()).ok());
  EXPECT_EQ(std::memcmp(back.data(), out.data(), static_cast<size_t>(bytes)),
            0);
}

TEST_P(WindowTransferTest, OutOfRangePieceMovesNoByte) {
  auto b = Open("range", 2, kMiB, /*dual_epoch=*/true);
  const std::vector<TargetChunk> good = SeeWindow(2, 4, 0, 0);
  const int64_t bytes = WindowBytes(good);
  AlignedBuffer original;
  FillPatternBuffer(&original, bytes + 4096, /*salt=*/0);
  ASSERT_TRUE(
      b->TransferChunks(good, /*is_write=*/true, original.data()).ok());

  struct Case {
    const char* what;
    TargetChunk bad;
  };
  const Case cases[] = {
      {"past the upper epoch", {1, kMiB - 4096, 8192, 1}},
      {"starts at the file end", {0, 2 * kMiB, 4096, 0}},
      {"negative offset", {0, -4096, 4096, 0}},
      {"zero size", {0, 0, 0, 0}},
      {"bad target", {2, 0, 4096, 0}},
      {"negative target", {-1, 0, 4096, 0}},
  };
  AlignedBuffer other;
  FillPatternBuffer(&other, bytes + 4096, /*salt=*/8);
  for (const Case& c : cases) {
    std::vector<TargetChunk> window = good;
    window.push_back(c.bad);  // checked after good chunks that could move
    const BackendCounters before = b->counters();
    const Status write =
        b->TransferChunks(window, /*is_write=*/true, other.data());
    EXPECT_EQ(write.code(), StatusCode::kInvalidArgument) << c.what;
    const Status read =
        b->TransferChunks(window, /*is_write=*/false, other.data());
    EXPECT_EQ(read.code(), StatusCode::kInvalidArgument) << c.what;
    const BackendCounters after = b->counters();
    EXPECT_EQ(after.reads, before.reads) << c.what;
    EXPECT_EQ(after.writes, before.writes) << c.what;
    EXPECT_EQ(after.bytes_read, before.bytes_read) << c.what;
    EXPECT_EQ(after.bytes_written, before.bytes_written) << c.what;
    EXPECT_EQ(after.syscalls, before.syscalls) << c.what;
    EXPECT_EQ(after.errors, before.errors) << c.what;
    EXPECT_EQ(after.unaligned_requests, before.unaligned_requests) << c.what;
  }
  // Neither the write nor the read moved a byte.
  std::vector<char> back = ReadPerChunk(b.get(), good);
  EXPECT_EQ(std::memcmp(back.data(), original.data(),
                        static_cast<size_t>(bytes)),
            0);
  EXPECT_EQ(FindPatternMismatch(/*object=*/7, 8, bytes, other.data()), -1);
}

TEST_P(WindowTransferTest, VerifyNamesACorruptByteInsideACoalescedRun) {
  auto b = Open("corrupt", 4, 8 * kMiB, /*dual_epoch=*/false);
  // SEE over four targets (64 KiB stripes): every 1 MiB window is four
  // 256 KiB runs. Object 1 is the one that is checked.
  const std::vector<int64_t> sizes{kMiB, 3 * kMiB + 700};
  StripedVolumeManager vol = MakeVolumes(
      sizes, {{0, 1, 2, 3}, {0, 1, 2, 3}}, {8 * kMiB, 8 * kMiB, 8 * kMiB,
                                            8 * kMiB});
  PassthroughRouter router(&vol);
  ASSERT_TRUE(PopulateBackendPattern(b.get(), &router).ok());
  auto clean = VerifyBackendPattern(b.get(), &router);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(*clean, kMiB + 3 * kMiB + 700);

  // Logical byte 1 MiB + 9 stripes + 4000 of object 1: the third chunk of
  // target 1's run in the second window.
  const int64_t logical = kMiB + 9 * 64 * kKiB + 4000;
  std::vector<TargetChunk> where;
  vol.Map(1, logical, 1, &where);
  ASSERT_EQ(where.size(), 1u);
  const TargetChunk at = where[0];
  ASSERT_EQ(at.target, 1);
  char byte = 0;
  ASSERT_TRUE(b->ReadSync(at.target, at.offset, 1, &byte).ok());
  byte = static_cast<char>(byte ^ 0x40);
  ASSERT_TRUE(b->WriteSync(at.target, at.offset, 1, &byte).ok());

  auto broken = VerifyBackendPattern(b.get(), &router);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().message(),
            StrFormat("pattern mismatch: object 1 logical offset %lld "
                      "(target 1 @%lld)",
                      (long long)logical, (long long)at.offset));
}

INSTANTIATE_TEST_SUITE_P(Modes, WindowTransferTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Direct" : "Buffered";
                         });

// ------------------------------------------------- real-migration e2e

TEST(RealMigrationTest, MigrationCopiesEveryByteThroughFileBackend) {
  const std::string dir = FreshDir("migrate");
  FileBackendOptions o = SmallFileOptions(dir, 3, 32 * kMiB);
  o.dual_epoch = true;
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{2 * kMiB, kMiB + 64 * kKiB, 512 * kKiB};

  // A small closed-loop OLTP foreground (with writes) runs while the
  // migration copies real bytes underneath it; sim writes are
  // location-independent pattern-keyed traffic, so the real bytes still
  // verify afterward.
  OltpSpec oltp;
  oltp.name = "tiny";
  QueryStep step;
  step.streams.push_back(
      {/*object=*/0, /*bytes=*/256 * kKiB, /*request_bytes=*/64 * kKiB,
       AccessPattern::kRandom, /*write_fraction=*/0.25});
  step.streams.push_back(
      {/*object=*/2, /*bytes=*/128 * kKiB, /*request_bytes=*/64 * kKiB,
       AccessPattern::kSequential, /*write_fraction=*/0.0});
  oltp.transaction.name = "txn";
  oltp.transaction.steps.push_back(step);
  oltp.terminals = 2;
  oltp.txn_overhead_s = 0.1;

  MigrateOptions mopts;
  mopts.chunk_bytes = kMiB;
  mopts.data_backend = opened->get();
  auto report = RunMigrationSim(sys.get(), sizes,
                                {{0}, {0, 1}, {1}}, {{1, 2}, {2}, {0, 2}},
                                64 * kKiB, /*olap=*/nullptr, &oltp,
                                /*oltp_duration_s=*/10.0, FaultPlan{}, mopts,
                                /*seed=*/42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, MigrationOutcome::kCompleted);
  EXPECT_TRUE(report->readable.ok()) << report->readable.ToString();
  ASSERT_TRUE(report->real_backend);
  EXPECT_TRUE(report->real_readable.ok()) << report->real_readable.ToString();
  EXPECT_EQ(report->real_bytes_verified, 2 * kMiB + kMiB + 64 * kKiB +
                                             512 * kKiB);
  // Every chunk's bytes crossed the backend: at least one read and one
  // write per copied chunk, plus the populate/verify passes.
  const BackendCounters c = opened->get()->counters();
  EXPECT_GE(c.bytes_written, report->stats.bytes_written);
  EXPECT_GE(c.syncs, 1u);
}

/// Chunks of `vol` that miss the 4 KiB block, over `window`-sized logical
/// windows of every object: what one pass through the volume adds to
/// `unaligned_requests`.
uint64_t UnalignedChunks(const StripedVolumeManager& vol, int64_t window) {
  uint64_t n = 0;
  std::vector<TargetChunk> chunks;
  for (ObjectId i = 0; i < vol.num_objects(); ++i) {
    for (int64_t off = 0; off < vol.object_size(i); off += window) {
      chunks.clear();
      vol.Map(i, off, std::min(window, vol.object_size(i) - off), &chunks);
      for (const TargetChunk& c : chunks) {
        n += (c.offset % 4096 != 0 || c.size % 4096 != 0) ? 1 : 0;
      }
    }
  }
  return n;
}

class RealMigrationModesTest : public testing::TestWithParam<bool> {};

TEST_P(RealMigrationModesTest, EveryByteCrossesOnceAndVerifies) {
  const std::string dir =
      FreshDir(GetParam() ? "modes_direct" : "modes_buffered");
  FileBackendOptions o = SmallFileOptions(dir, 3, 32 * kMiB);
  o.dual_epoch = true;
  o.try_direct = GetParam();
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  // Object 2 ends 700 bytes into a block on every layout.
  const std::vector<int64_t> sizes{2 * kMiB, kMiB + 64 * kKiB,
                                   512 * kKiB + 700};
  const std::vector<std::vector<int>> from{{0}, {0, 1}, {1}};
  const std::vector<std::vector<int>> to{{1, 2}, {2}, {0, 2}};
  const StripedVolumeManager src = MakeVolumes(sizes, from, sys->capacities());
  const StripedVolumeManager dst = MakeVolumes(sizes, to, sys->capacities());

  OltpSpec oltp;
  oltp.name = "tiny";
  QueryStep step;
  step.streams.push_back({/*object=*/0, /*bytes=*/256 * kKiB,
                          /*request_bytes=*/64 * kKiB, AccessPattern::kRandom,
                          /*write_fraction=*/0.25});
  oltp.transaction.name = "txn";
  oltp.transaction.steps.push_back(step);
  oltp.terminals = 2;
  oltp.txn_overhead_s = 0.1;

  MigrateOptions mopts;
  mopts.chunk_bytes = kMiB;
  mopts.data_backend = opened->get();
  auto report = RunMigrationSim(sys.get(), sizes, from, to, 64 * kKiB,
                                /*olap=*/nullptr, &oltp,
                                /*oltp_duration_s=*/10.0, FaultPlan{}, mopts,
                                /*seed=*/42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->outcome, MigrationOutcome::kCompleted);
  EXPECT_TRUE(report->real_readable.ok()) << report->real_readable.ToString();
  const int64_t total = 2 * kMiB + kMiB + 64 * kKiB + 512 * kKiB + 700;
  EXPECT_EQ(report->real_bytes_verified, total);
  // Populate writes and the copy reads every byte once; the copy writes
  // and the verify reads every byte once more. Re-copied chunks move real
  // bytes only at their final commit.
  const BackendCounters c = opened->get()->counters();
  EXPECT_EQ(c.bytes_written, 2 * total);
  EXPECT_EQ(c.bytes_read, 2 * total);
  EXPECT_EQ(c.syncs, 2u);
  EXPECT_EQ(c.errors, 0u);
  // Each unaligned chunk is one request on each of the four passes.
  EXPECT_EQ(c.unaligned_requests,
            2 * UnalignedChunks(src, kMiB) + 2 * UnalignedChunks(dst, kMiB));
  EXPECT_GT(c.unaligned_requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, RealMigrationModesTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Direct" : "Buffered";
                         });

TEST(RealMigrationTest, RealCopyFailureRollsBack) {
  // Undersized backend files: the first destination write past the file
  // end fails, and the executor must roll back rather than report success.
  const std::string dir = FreshDir("rollback");
  FileBackendOptions o = SmallFileOptions(dir, 3, kMiB);
  o.capacity_bytes[0] = 4 * kMiB;  // source fits; destination (t1) does not
  auto opened = FileBackend::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{2 * kMiB};

  OltpSpec oltp;
  oltp.name = "tiny";
  QueryStep step;
  step.streams.push_back({/*object=*/0, /*bytes=*/64 * kKiB,
                          /*request_bytes=*/64 * kKiB,
                          AccessPattern::kSequential,
                          /*write_fraction=*/0.0});
  oltp.transaction.name = "txn";
  oltp.transaction.steps.push_back(step);
  oltp.terminals = 1;
  oltp.txn_overhead_s = 0.1;

  MigrateOptions mopts;
  mopts.chunk_bytes = kMiB;
  mopts.data_backend = opened->get();
  auto report = RunMigrationSim(sys.get(), sizes, {{0}}, {{1}}, 64 * kKiB,
                                /*olap=*/nullptr, &oltp,
                                /*oltp_duration_s=*/6.0, FaultPlan{}, mopts,
                                /*seed=*/42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, MigrationOutcome::kRolledBack);
  // Rollback keeps the source authoritative: bytes still verify there.
  ASSERT_TRUE(report->real_backend);
  EXPECT_TRUE(report->real_readable.ok()) << report->real_readable.ToString();
}

}  // namespace
}  // namespace ldb
