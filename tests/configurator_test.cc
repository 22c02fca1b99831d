#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/configurator.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

// Synthetic cost models: a "disk" (sequential-friendly, slow random) and
// an "ssd" (flat). Both built on tiny grids.
const CostModel& DiskCost() {
  static const CostModel* model = [] {
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads, writes;
    for (double s : sizes) {
      for (double q : runs) {
        for (double c : chis) {
          const double v =
              0.005 * (0.5 + 0.5 * s / (8 * kKiB)) * (1 + c) / std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("disk", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

const CostModel& SsdCost() {
  static const CostModel* model = [] {
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads(12, 0.0003), writes(12, 0.0004);
    auto m = CostModel::Create("ssd", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

ConfiguratorInput MakeInput(int n) {
  ConfiguratorInput input;
  for (int i = 0; i < n; ++i) {
    input.object_names.push_back(StrFormat("obj%d", i));
    input.object_sizes.push_back(kGiB);
    input.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = 120.0 / (i + 1);
    w.read_size = 64 * kKiB;
    w.run_count = i == 0 ? 100.0 : 1.0;  // object 0 is a sequential scan
    w.overlap_index = {i};
    w.overlap_value = {0.0};
    input.workloads.push_back(std::move(w));
  }
  return input;
}

TEST(ConfiguratorTest, RejectsBadInputs) {
  ConfiguratorInput empty;
  EXPECT_FALSE(RecommendConfiguration(empty).ok());
  ConfiguratorInput input = MakeInput(2);
  input.pools.push_back(DevicePool{"disk", 0, 10 * kGiB, &DiskCost()});
  EXPECT_FALSE(RecommendConfiguration(input).ok());
  input.pools[0] = DevicePool{"disk", 2, 10 * kGiB, nullptr};
  EXPECT_FALSE(RecommendConfiguration(input).ok());
}

TEST(ConfiguratorTest, SingleDeviceHasOneConfiguration) {
  ConfiguratorInput input = MakeInput(2);
  input.pools.push_back(DevicePool{"disk", 1, 10 * kGiB, &DiskCost()});
  auto r = RecommendConfiguration(input);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->description, "disk x [1]");
  EXPECT_EQ(r->problem.num_targets(), 1);
  EXPECT_TRUE(r->advice.final_layout.IsValid(r->problem.object_sizes,
                                             r->problem.capacities()));
}

TEST(ConfiguratorTest, ExploresPartitionsAndPicksBest) {
  ConfiguratorInput input = MakeInput(4);
  input.pools.push_back(DevicePool{"disk", 3, 10 * kGiB, &DiskCost()});
  auto r = RecommendConfiguration(input);
  ASSERT_TRUE(r.ok());
  // With separate objects and interference-free workloads the advisor
  // should prefer independent targets or a split, and the result must be
  // one of the three partitions of 3.
  EXPECT_TRUE(r->description == "disk x [3]" ||
              r->description == "disk x [2,1]" ||
              r->description == "disk x [1,1,1]");
  EXPECT_GT(r->advice.max_utilization_final, 0.0);
}

TEST(ConfiguratorTest, UngroupablePoolStaysIndividual) {
  ConfiguratorInput input = MakeInput(3);
  DevicePool ssd{"ssd", 2, 4 * kGiB, &SsdCost()};
  ssd.allow_grouping = false;
  input.pools.push_back(ssd);
  auto r = RecommendConfiguration(input);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->description, "ssd x [1,1]");
  EXPECT_EQ(r->problem.num_targets(), 2);
}

TEST(ConfiguratorTest, MixedPoolsCombineDescriptions) {
  ConfiguratorInput input = MakeInput(4);
  input.pools.push_back(DevicePool{"disk", 2, 10 * kGiB, &DiskCost()});
  DevicePool ssd{"ssd", 1, 4 * kGiB, &SsdCost()};
  ssd.allow_grouping = false;
  input.pools.push_back(ssd);
  auto r = RecommendConfiguration(input);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->description.find("disk x ["), std::string::npos);
  EXPECT_NE(r->description.find("ssd x [1]"), std::string::npos);
  // Hot random objects should gravitate to the SSD target (last index).
  const int ssd_target = r->problem.num_targets() - 1;
  double ssd_rate = 0;
  for (int i = 0; i < 4; ++i) {
    ssd_rate += r->advice.final_layout.At(i, ssd_target) *
                input.workloads[static_cast<size_t>(i)].total_rate();
  }
  EXPECT_GT(ssd_rate, 0.0);
}

TEST(ConfiguratorTest, InfeasibleWhenNothingFits) {
  ConfiguratorInput input = MakeInput(2);  // 2 GiB of objects
  input.pools.push_back(DevicePool{"disk", 1, kGiB, &DiskCost()});
  auto r = RecommendConfiguration(input);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace ldb
