// Tests for the on-disk cost-model cache: exact round-trips, stale-key
// detection when device parameters or calibration options change, graceful
// fallback on corrupt or missing files, and the warm-cache guarantee that
// no grid point is re-measured.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "model/calibration.h"
#include "storage/disk.h"
#include "storage/ssd.h"
#include "util/units.h"

namespace ldb {
namespace {

// A deliberately tiny grid so each calibration costs milliseconds.
CalibrationOptions SmallOptions() {
  CalibrationOptions options;
  options.size_axis = {static_cast<double>(8 * kKiB),
                       static_cast<double>(64 * kKiB)};
  options.run_axis = {1, 8};
  options.contention_axis = {0, 2};
  options.sample_requests = 24;
  return options;
}

/// A cache directory unique to the test case and process, removed with
/// everything in it when the case ends.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const char* name) {
    path_ = ::testing::TempDir();
    if (!path_.empty() && path_.back() != '/') path_ += '/';
    path_ += "ldb-calib-";
    path_ += name;
    path_ += "-";
    path_ += std::to_string(::testing::UnitTest::GetInstance()->random_seed());
    path_ += "-";
    path_ += std::to_string(getpid());
  }
  ScopedCacheDir(const ScopedCacheDir&) = delete;
  ScopedCacheDir& operator=(const ScopedCacheDir&) = delete;
  ~ScopedCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CalibrationCacheTest, SaveLoadRoundTripIsBitIdentical) {
  DiskModel disk(Scsi15kParams());
  const CalibrationOptions options = SmallOptions();
  auto model = CalibrateDevice(disk, options);
  ASSERT_TRUE(model.ok());

  const ScopedCacheDir dir("roundtrip");
  const std::string path = CalibrationCachePath(dir.path(), disk, options);
  const uint64_t key = CalibrationCacheKey(disk, options);
  std::filesystem::create_directories(dir.path());
  ASSERT_TRUE(SaveCostModelCache(path, key, *model).ok());

  auto loaded = LoadCostModelCache(path, key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ToText(), model->ToText());
}

TEST(CalibrationCacheTest, KeyChangesWithOptionsAndDeviceParams) {
  DiskModel disk(Scsi15kParams());
  const CalibrationOptions base = SmallOptions();
  const uint64_t key = CalibrationCacheKey(disk, base);

  CalibrationOptions seed_changed = base;
  seed_changed.seed = 99;
  EXPECT_NE(CalibrationCacheKey(disk, seed_changed), key);

  CalibrationOptions samples_changed = base;
  samples_changed.sample_requests += 1;
  EXPECT_NE(CalibrationCacheKey(disk, samples_changed), key);

  CalibrationOptions axis_changed = base;
  axis_changed.contention_axis.push_back(4);
  EXPECT_NE(CalibrationCacheKey(disk, axis_changed), key);

  DiskParams params = Scsi15kParams();
  params.capacity_bytes += kMiB;
  DiskModel resized(params);
  EXPECT_NE(CalibrationCacheKey(resized, base), key);

  SsdModel ssd(SsdParams{});
  EXPECT_NE(CalibrationCacheKey(ssd, base), key);

  // num_threads and cache_dir are execution details, not measurement
  // parameters: they must not invalidate the cache.
  CalibrationOptions threads_changed = base;
  threads_changed.num_threads = 7;
  threads_changed.cache_dir = "/somewhere/else";
  EXPECT_EQ(CalibrationCacheKey(disk, threads_changed), key);
}

TEST(CalibrationCacheTest, LoadRejectsStaleKey) {
  DiskModel disk(Scsi15kParams());
  const CalibrationOptions options = SmallOptions();
  auto model = CalibrateDevice(disk, options);
  ASSERT_TRUE(model.ok());

  const ScopedCacheDir dir("stalekey");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/model.costmodel";
  ASSERT_TRUE(
      SaveCostModelCache(path, CalibrationCacheKey(disk, options), *model)
          .ok());

  CalibrationOptions other = options;
  other.seed = 1234;
  EXPECT_FALSE(
      LoadCostModelCache(path, CalibrationCacheKey(disk, other)).ok());
}

TEST(CalibrationCacheTest, WarmCacheMeasuresNothing) {
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options = SmallOptions();
  const ScopedCacheDir dir("warm");
  options.cache_dir = dir.path();

  const uint64_t cold_before = CalibrationMeasurePoints();
  auto cold = CalibrateDeviceCached(disk, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(CalibrationMeasurePoints(), cold_before);

  const uint64_t warm_before = CalibrationMeasurePoints();
  auto warm = CalibrateDeviceCached(disk, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(CalibrationMeasurePoints(), warm_before);
  EXPECT_EQ(warm->ToText(), cold->ToText());
}

TEST(CalibrationCacheTest, CorruptFileFallsBackToCalibration) {
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options = SmallOptions();
  const ScopedCacheDir dir("corrupt");
  options.cache_dir = dir.path();

  auto cold = CalibrateDeviceCached(disk, options);
  ASSERT_TRUE(cold.ok());

  // Truncate the cache file mid-table.
  const std::string path = CalibrationCachePath(options.cache_dir, disk,
                                                options);
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << "calibcache v1 0000000000000000\ngarbage";
  }

  const uint64_t before = CalibrationMeasurePoints();
  auto recovered = CalibrateDeviceCached(disk, options);
  ASSERT_TRUE(recovered.ok());
  // Corrupt file -> full recalibration, then the cache is repaired.
  EXPECT_GT(CalibrationMeasurePoints(), before);
  EXPECT_EQ(recovered->ToText(), cold->ToText());

  const uint64_t after_repair = CalibrationMeasurePoints();
  auto warm = CalibrateDeviceCached(disk, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(CalibrationMeasurePoints(), after_repair);
}

TEST(CalibrationCacheTest, MissingDirectoryIsCreatedOnSave) {
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options = SmallOptions();
  const ScopedCacheDir dir("mkdir");
  options.cache_dir = dir.path() + "/nested/deeper";

  auto cold = CalibrateDeviceCached(disk, options);
  ASSERT_TRUE(cold.ok());
  const std::string path = CalibrationCachePath(options.cache_dir, disk,
                                                options);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
}

TEST(CalibrationCacheTest, RegistrySharesCacheAcrossDeviceTypes) {
  DiskModel disk(Scsi15kParams());
  SsdModel ssd(SsdParams{});
  CalibrationOptions options = SmallOptions();
  const ScopedCacheDir dir("registry");
  options.cache_dir = dir.path();

  auto cold = CostModelRegistry::ForDevices({&disk, &ssd}, options);
  ASSERT_TRUE(cold.ok());
  ASSERT_NE(cold->Find(disk.model_name()), nullptr);
  ASSERT_NE(cold->Find(ssd.model_name()), nullptr);

  const uint64_t before = CalibrationMeasurePoints();
  auto warm = CostModelRegistry::ForDevices({&disk, &ssd}, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(CalibrationMeasurePoints(), before);
  EXPECT_EQ(warm->Find(disk.model_name())->ToText(),
            cold->Find(disk.model_name())->ToText());
  EXPECT_EQ(warm->Find(ssd.model_name())->ToText(),
            cold->Find(ssd.model_name())->ToText());
}

}  // namespace
}  // namespace ldb
