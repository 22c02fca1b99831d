#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/incremental.h"
#include "core/problem.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

const CostModel& TestCost() {
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
              0.004 * (0.5 + 0.5 * s / (8 * kKiB)) * (1 + c) / std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("tc", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

LayoutProblem MakeProblem(int n, int m, int64_t capacity = 100 * kGiB) {
  LayoutProblem p;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(kGiB);
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = 100.0 / (i + 1);
    w.read_size = 8 * kKiB;
    w.run_count = 1.0;
    w.overlap_index = {i};
    w.overlap_value = {0.0};
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < m; ++j) {
    p.targets.push_back(AdvisorTarget{StrFormat("t%d", j), capacity,
                                      &TestCost(), 1, 64 * kKiB});
  }
  return p;
}

TEST(IncrementalTest, PlacesNewObjectsWithoutMovingFrozenOnes) {
  LayoutProblem p = MakeProblem(4, 2);
  Layout current(4, 2);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  // Objects 2 and 3 are new (all-zero rows).
  auto result = PlaceIncrementally(p, current);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TargetsOf(0), (std::vector<int>{0}));
  EXPECT_EQ(result->TargetsOf(1), (std::vector<int>{1}));
  EXPECT_FALSE(result->TargetsOf(2).empty());
  EXPECT_FALSE(result->TargetsOf(3).empty());
  EXPECT_TRUE(result->IsRegular(1e-9));
  EXPECT_TRUE(result->IsValid(p.object_sizes, p.capacities()));
}

TEST(IncrementalTest, NewHotObjectGoesToLeastLoadedTarget) {
  LayoutProblem p = MakeProblem(3, 2);
  // Object 0 (hottest) frozen on target 0; object 2 is new and hot.
  p.workloads[2].read_rate = 90;
  Layout current(3, 2);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  auto result = PlaceIncrementally(p, current);
  ASSERT_TRUE(result.ok());
  // Target 1 carries only obj1 (50 req/s) vs target 0's 100 req/s, so the
  // new hot object should prefer target 1 (or spread, but favoring 1).
  EXPECT_GT(result->At(2, 1), 0.0);
}

TEST(IncrementalTest, NoNewObjectsIsANoOp) {
  LayoutProblem p = MakeProblem(2, 2);
  Layout current(2, 2);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  auto result = PlaceIncrementally(p, current);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, current);
}

TEST(IncrementalTest, RejectsPartiallyPlacedRows) {
  LayoutProblem p = MakeProblem(2, 2);
  Layout current(2, 2);
  current.Set(0, 0, 0.5);  // row sums to 0.5
  auto result = PlaceIncrementally(p, current);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, FailsWhenNewObjectFitsNowhere) {
  // Total capacity suffices (Validate passes) but no regular candidate
  // fits the new 3.5 GiB object: target 0 has 1 GiB free, target 1 has
  // 3 GiB free, and an even 2-way stripe needs 1.75 GiB on each.
  LayoutProblem p = MakeProblem(3, 2);
  p.object_sizes[2] = 3 * kGiB + 512 * kMiB;
  p.targets[0].capacity_bytes = 2 * kGiB;
  p.targets[1].capacity_bytes = 4 * kGiB;
  Layout current(3, 2);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  auto result = PlaceIncrementally(p, current);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(IncrementalTest, DetectsFrozenOverflowAfterGrowth) {
  LayoutProblem p = MakeProblem(2, 2, /*capacity=*/2 * kGiB);
  Layout current(2, 2);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  p.object_sizes[0] = 3 * kGiB;  // grew past its target
  auto result = PlaceIncrementally(p, current);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityExceeded);
}

TEST(IncrementalTest, RespectsPlacementConstraints) {
  LayoutProblem p = MakeProblem(3, 3);
  p.constraints.allowed_targets = {{}, {}, {2}};
  Layout current(3, 3);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  auto result = PlaceIncrementally(p, current);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->TargetsOf(2), (std::vector<int>{2}));
}

TEST(IncrementalTest, MatchesFullAdvisorQualityApproximately) {
  // Incremental placement of half the objects onto an advisor-placed base
  // should stay within a reasonable factor of the full advisor's quality.
  LayoutProblem base = MakeProblem(8, 4);
  LayoutProblem first_half = base;
  // Zero the workloads of the not-yet-created objects for the first run.
  for (int i = 4; i < 8; ++i) {
    first_half.workloads[static_cast<size_t>(i)] = WorkloadDesc{};
    first_half.workloads[static_cast<size_t>(i)].overlap_index = {i};
    first_half.workloads[static_cast<size_t>(i)].overlap_value = {0.0};
    first_half.workloads[static_cast<size_t>(i)].read_size = 0;
  }
  LayoutAdvisor advisor;
  auto first = advisor.Recommend(first_half);
  ASSERT_TRUE(first.ok());
  Layout current = first->final_layout;
  // "Create" objects 4..7: clear their rows, then place incrementally
  // with the real workloads.
  for (int i = 4; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) current.Set(i, j, 0.0);
  }
  auto incremental = PlaceIncrementally(base, current);
  ASSERT_TRUE(incremental.ok());
  auto full = advisor.Recommend(base);
  ASSERT_TRUE(full.ok());
  TargetModel model = base.MakeTargetModel();
  EXPECT_LE(model.MaxUtilization(base.workloads, *incremental),
            1.5 * model.MaxUtilization(base.workloads, full->final_layout));
}

}  // namespace
}  // namespace ldb
