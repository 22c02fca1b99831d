#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/initial.h"
#include "core/problem.h"
#include "model/constraints.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

// Synthetic cost model shared by the constraint tests.
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

LayoutProblem MakeProblem(int n, int m) {
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
    p.targets.push_back(AdvisorTarget{StrFormat("t%d", j), 100 * kGiB,
                                      &TestCost(), 1, 64 * kKiB});
  }
  return p;
}

// ------------------------------------------------------- PlacementConstraints

TEST(ConstraintsTest, ValidateChecksReferences) {
  PlacementConstraints c;
  EXPECT_TRUE(c.Validate(3, 2).ok());
  c.allowed_targets = {{0}, {}, {1}};
  EXPECT_TRUE(c.Validate(3, 2).ok());
  c.allowed_targets = {{0}, {}};
  EXPECT_FALSE(c.Validate(3, 2).ok());  // wrong outer size
  c.allowed_targets = {{0}, {}, {7}};
  EXPECT_FALSE(c.Validate(3, 2).ok());  // unknown target
  c.allowed_targets = {{0, 0}, {}, {1}};
  EXPECT_FALSE(c.Validate(3, 2).ok());  // duplicate
  c.allowed_targets.clear();
  c.separate = {{0, 0}};
  EXPECT_FALSE(c.Validate(3, 2).ok());  // self-pair
  c.separate = {{0, 5}};
  EXPECT_FALSE(c.Validate(3, 2).ok());  // unknown object
}

TEST(ConstraintsTest, SatisfiedByChecksAllowedTargets) {
  PlacementConstraints c;
  c.allowed_targets = {{0}, {}};
  Layout l(2, 2);
  l.SetRowRegular(0, {0});
  l.SetRowRegular(1, {0, 1});
  EXPECT_TRUE(c.SatisfiedBy(l));
  l.SetRowRegular(0, {0, 1});
  EXPECT_FALSE(c.SatisfiedBy(l));
}

TEST(ConstraintsTest, SatisfiedByChecksSeparation) {
  PlacementConstraints c;
  c.separate = {{0, 1}};
  Layout l(2, 2);
  l.SetRowRegular(0, {0});
  l.SetRowRegular(1, {1});
  EXPECT_TRUE(c.SatisfiedBy(l));
  l.SetRowRegular(1, {0, 1});
  EXPECT_FALSE(c.SatisfiedBy(l));
}

TEST(ConstraintsTest, AllowedForOutOfRangeIsUnrestricted) {
  PlacementConstraints c;
  EXPECT_TRUE(c.AllowedFor(5).empty());
  c.allowed_targets = {{1}};
  EXPECT_EQ(c.AllowedFor(0), (std::vector<int>{1}));
  EXPECT_TRUE(c.AllowedFor(3).empty());
}

// ---------------------------------------------------------- InitialLayout

TEST(ConstraintsTest, InitialLayoutHonorsPinning) {
  LayoutProblem p = MakeProblem(4, 3);
  p.constraints.allowed_targets = {{2}, {}, {}, {}};
  auto l = InitialLayout(p);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->TargetsOf(0), (std::vector<int>{2}));
  EXPECT_TRUE(p.constraints.SatisfiedBy(*l));
}

TEST(ConstraintsTest, InitialLayoutHonorsSeparation) {
  LayoutProblem p = MakeProblem(2, 2);
  // Make both objects want the same least-loaded target: equal rates.
  p.workloads[1].read_rate = p.workloads[0].read_rate;
  p.constraints.separate = {{0, 1}};
  auto l = InitialLayout(p);
  ASSERT_TRUE(l.ok());
  EXPECT_NE(l->TargetsOf(0)[0], l->TargetsOf(1)[0]);
}

TEST(ConstraintsTest, InitialLayoutInfeasiblePinningFails) {
  LayoutProblem p = MakeProblem(2, 2);
  p.targets[0].capacity_bytes = kGiB;  // fits exactly one object
  p.constraints.allowed_targets = {{0}, {0}};
  auto l = InitialLayout(p);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kInfeasible);
}

// --------------------------------------------------------------- Advisor

TEST(ConstraintsTest, AdvisorRespectsPinnedObject) {
  LayoutProblem p = MakeProblem(4, 3);
  p.constraints.allowed_targets = {{}, {1, 2}, {}, {0}};
  LayoutAdvisor advisor;
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(p.constraints.SatisfiedBy(r->final_layout));
  EXPECT_TRUE(r->final_layout.IsRegular(1e-9));
  // Object 3 only on target 0.
  EXPECT_EQ(r->final_layout.TargetsOf(3), (std::vector<int>{0}));
}

TEST(ConstraintsTest, AdvisorSeparatesConstrainedPair) {
  LayoutProblem p = MakeProblem(4, 3);
  // Objects 0 and 1 are the two hottest; force separation even though the
  // unconstrained optimum might co-stripe them.
  p.constraints.separate = {{0, 1}};
  LayoutAdvisor advisor;
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  const auto t0 = r->final_layout.TargetsOf(0);
  const auto t1 = r->final_layout.TargetsOf(1);
  for (int j : t0) EXPECT_EQ(std::count(t1.begin(), t1.end(), j), 0);
}

TEST(ConstraintsTest, AdvisorStillOptimizesUnderConstraints) {
  // Pinning one cold object must not stop the advisor from balancing the
  // rest: the result should beat the all-on-one-target seed clearly.
  LayoutProblem p = MakeProblem(6, 3);
  p.constraints.allowed_targets = {{}, {}, {}, {}, {}, {1}};
  LayoutAdvisor advisor;
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  TargetModel model = p.MakeTargetModel();
  Layout all_on_one(6, 3);
  for (int i = 0; i < 6; ++i) all_on_one.SetRowRegular(i, {1});
  EXPECT_LT(r->max_utilization_final,
            0.7 * model.MaxUtilization(p.workloads, all_on_one));
  EXPECT_TRUE(p.constraints.SatisfiedBy(r->final_layout));
}

TEST(ConstraintsTest, ProblemValidateRejectsBadConstraints) {
  LayoutProblem p = MakeProblem(2, 2);
  p.constraints.separate = {{0, 9}};
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ConstraintsTest, LayoutToPlacementsEnforcesConstraints) {
  LayoutProblem p = MakeProblem(2, 2);
  p.constraints.allowed_targets = {{0}, {}};
  Layout l(2, 2);
  l.SetRowRegular(0, {1});  // violates the pin
  l.SetRowRegular(1, {0});
  EXPECT_FALSE(LayoutToPlacements(p, l).ok());
  l.SetRowRegular(0, {0});
  EXPECT_TRUE(LayoutToPlacements(p, l).ok());
}

}  // namespace
}  // namespace ldb
