// Pins the persisted hashes to fixed values. Calibration cache file names
// and journal records store these numbers, so a change to the hashing
// (its seed, byte order or field order) would orphan every cache file and
// make every journal on disk unresumable.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/journal.h"
#include "core/problem.h"
#include "core/sim_setup.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "storage/disk.h"
#include "util/units.h"

namespace ldb {
namespace {

TEST(PersistedDigestTest, ProblemStateDigestIsPinned) {
  auto cost = CostModel::Create("scsi-15k", {8192.0, 65536.0}, {1.0, 8.0},
                                {0.0, 2.0}, std::vector<double>(8, 1e-3),
                                std::vector<double>(8, 2e-3));
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  LayoutProblem problem;
  problem.object_sizes = {3 * kGiB, 512 * kMiB, 7 * kMiB};
  problem.lvm_stripe_bytes = kMiB;
  AdvisorTarget disk;
  disk.name = "disk0";
  disk.capacity_bytes = 18 * kGiB;
  disk.cost_model = &*cost;
  AdvisorTarget raid;
  raid.name = "raid5x4";
  raid.capacity_bytes = 54 * kGiB;
  raid.cost_model = &*cost;
  raid.num_members = 4;
  raid.stripe_bytes = 128 * kKiB;
  raid.raid_level = RaidLevel::kRaid5;
  AdvisorTarget bare;  // no cost model: hashed as an empty model name
  bare.name = "bare";
  bare.capacity_bytes = kGiB;
  problem.targets = {disk, raid, bare};
  EXPECT_EQ(ProblemStateDigest(problem), 13937158470431255880ULL);
}

TEST(PersistedDigestTest, MigrationPlanDigestIsPinned) {
  const std::vector<int64_t> sizes = {3 * kGiB, 512 * kMiB, 7 * kMiB};
  const std::vector<std::vector<int>> from = {{0, 1, 2}, {0}, {1, 2}};
  const std::vector<std::vector<int>> to = {{2}, {0, 1}, {0, 1, 2}};
  EXPECT_EQ(MigrationPlanDigest(sizes, from, to, 4 * kMiB),
            691534421348643504ULL);
}

TEST(PersistedDigestTest, CalibrationCacheKeyIsPinned) {
  CalibrationOptions options;
  options.size_axis = {static_cast<double>(8 * kKiB),
                       static_cast<double>(64 * kKiB)};
  options.run_axis = {1, 8};
  options.contention_axis = {0, 0.5, 2};
  options.sample_requests = 24;
  options.seed = 7;
  // The key text reads "|warmup 32" (the fixed warmup count).
  EXPECT_EQ(CalibrationCacheKey(DiskModel(Scsi15kParams()), options),
            17100753757866404759ULL);
}

}  // namespace
}  // namespace ldb
