// The file backend must move real bytes: probe validation, alignment
// accounting, timing-only and out-of-range requests, the dual-epoch data
// plane, and a full in-process migration whose every byte verifies against
// the deterministic pattern afterward.

#include <unistd.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
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

/// Fresh per-test scratch directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  static int counter = 0;
  std::string dir = testing::TempDir() + "/io_backend_" + name +
                    StrFormat("_%d_%d", static_cast<int>(::getpid()),
                              counter++);
  ::mkdir(dir.c_str(), 0755);
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
