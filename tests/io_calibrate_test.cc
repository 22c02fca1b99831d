// Real-measurement calibration on a small file backend: the grid fills
// with usable costs, the cache stores one file per (model, key) and a warm
// call is served from it without touching the backend, and the real key
// lives apart from the simulated one.

#include <unistd.h>

#include <sys/stat.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/calibrate.h"
#include "io/file_backend.h"
#include "model/calibration.h"
#include "storage/disk.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

/// Fresh per-test scratch directory under the gtest temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/io_calibrate_" + name +
                    StrFormat("_%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::unique_ptr<FileBackend> OpenBackend(const std::string& dir,
                                         bool try_direct = true) {
  FileBackendOptions o;
  o.dir = dir;
  o.capacity_bytes = {4 * kMiB};
  o.try_direct = try_direct;
  o.quiet = true;  // tmpfs rejects O_DIRECT; the buffered path is fine
  auto opened = FileBackend::Open(o);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

// A tiny grid: 2 sizes x 2 runs x 2 contentions, a few requests each.
CalibrationOptions TinyGrid() {
  CalibrationOptions options;
  options.size_axis = {static_cast<double>(4 * kKiB),
                       static_cast<double>(64 * kKiB)};
  options.run_axis = {1, 4};
  options.contention_axis = {0, 1};
  options.warmup_requests = 1;
  options.sample_requests = 4;
  return options;
}

TEST(BackendCalibrationTest, EveryCostIsFiniteAndPositive) {
  const std::string dir = FreshDir("costs");
  auto backend = OpenBackend(dir + "/files");
  ASSERT_NE(backend, nullptr);
  const CalibrationOptions options = TinyGrid();
  auto model = CalibrateBackendTarget(backend.get(), 0, "file", options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->device_model(), "file");
  for (double size : options.size_axis) {
    for (double run : options.run_axis) {
      for (double chi : options.contention_axis) {
        for (bool is_write : {false, true}) {
          const double cost = model->Cost(is_write, size, run, chi);
          EXPECT_TRUE(std::isfinite(cost) && cost > 0.0)
              << "size " << size << " run " << run << " chi " << chi
              << " write " << is_write << ": " << cost;
        }
      }
    }
  }
  EXPECT_GT(backend->counters().reads, 0u);
  EXPECT_GT(backend->counters().writes, 0u);
  EXPECT_EQ(backend->counters().errors, 0u);
}

TEST(BackendCalibrationTest, CacheWritesOneFileAndWarmCallReadsNothing) {
  const std::string dir = FreshDir("cache");
  auto backend = OpenBackend(dir + "/files");
  ASSERT_NE(backend, nullptr);
  CalibrationOptions options = TinyGrid();
  options.cache_dir = dir + "/cache";

  auto cold = CalibrateBackendTargetCached(backend.get(), 0, "file", options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.cache_dir)) {
    files.push_back(entry.path().filename().string());
  }
  const uint64_t key =
      BackendCalibrationKey(*backend, 0, "file", options);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], StrFormat("file-%016llx.costmodel",
                                static_cast<unsigned long long>(key)));

  const BackendCounters before = backend->counters();
  auto warm = CalibrateBackendTargetCached(backend.get(), 0, "file", options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->ToText(), cold->ToText());
  const BackendCounters after = backend->counters();
  EXPECT_EQ(after.reads, before.reads);
  EXPECT_EQ(after.writes, before.writes);
}

TEST(BackendCalibrationTest, BadTargetIsRejectedWithOrWithoutCache) {
  const std::string dir = FreshDir("badtarget");
  auto backend = OpenBackend(dir + "/files");
  ASSERT_NE(backend, nullptr);
  CalibrationOptions options = TinyGrid();
  EXPECT_EQ(CalibrateBackendTarget(backend.get(), 1, "file", options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.cache_dir = dir + "/cache";
  for (int target : {-1, 1}) {
    EXPECT_EQ(CalibrateBackendTargetCached(backend.get(), target, "file",
                                           options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "target " << target;
  }
  EXPECT_EQ(backend->counters().reads, 0u);
}

TEST(BackendCalibrationTest, KeyIsStableAndApartFromSimulatedKey) {
  const std::string dir = FreshDir("key");
  auto backend = OpenBackend(dir + "/files");
  ASSERT_NE(backend, nullptr);
  const CalibrationOptions options = TinyGrid();
  const uint64_t key = BackendCalibrationKey(*backend, 0, "file", options);
  EXPECT_EQ(BackendCalibrationKey(*backend, 0, "file", options), key);
  // Reopening the same files gives the same geometry, hence the same key.
  backend.reset();
  backend = OpenBackend(dir + "/files");
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(BackendCalibrationKey(*backend, 0, "file", options), key);
  EXPECT_NE(key, CalibrationCacheKey(DiskModel(Scsi15kParams()), options));
  CalibrationOptions reseeded = options;
  reseeded.seed += 1;
  EXPECT_NE(BackendCalibrationKey(*backend, 0, "file", reseeded), key);
}

// Cache file names hold this key, so its hashing must never change. The
// buffered backend makes the geometry (and so the key) host-independent.
TEST(BackendCalibrationTest, KeyIsPinned) {
  const std::string dir = FreshDir("pinned");
  auto backend = OpenBackend(dir + "/files", /*try_direct=*/false);
  ASSERT_NE(backend, nullptr);
  ASSERT_FALSE(backend->geometry().direct_io);
  EXPECT_EQ(BackendCalibrationKey(*backend, 0, "file", TinyGrid()),
            262742193806482087ULL);
}

}  // namespace
}  // namespace ldb
