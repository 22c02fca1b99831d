#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/autoadmin.h"
#include "core/baselines.h"
#include "core/initial.h"
#include "core/problem.h"
#include "core/regularize.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace ldb {
namespace {

// A synthetic cost model: cost rises with contention, falls with run
// count. Shared by all unit tests (no calibration needed).
const CostModel& SyntheticCost() {
  static const CostModel* model = [] {
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads, writes;
    for (double s : sizes) {
      for (double q : runs) {
        for (double c : chis) {
          const double v = 0.004 * (0.5 + 0.5 * s / (8 * kKiB)) *
                           (1.0 + 1.5 * c) / std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("synthetic", sizes, runs, chis, reads,
                               writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

/// Builds a problem with `n` objects and `m` identical targets. Rates
/// descend with object index; overlap defaults to zero.
LayoutProblem MakeProblem(int n, int m, int64_t object_size = kGiB,
                          int64_t capacity = 100 * kGiB) {
  LayoutProblem p;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(object_size);
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
                                      &SyntheticCost(), 1, 64 * kKiB});
  }
  return p;
}

// ------------------------------------------------------------ LayoutProblem

TEST(LayoutProblemTest, ValidatesDimensions) {
  LayoutProblem p = MakeProblem(3, 2);
  EXPECT_TRUE(p.Validate().ok());
  p.object_names.pop_back();
  EXPECT_FALSE(p.Validate().ok());
}

TEST(LayoutProblemTest, DetectsInsufficientTotalCapacity) {
  LayoutProblem p = MakeProblem(4, 2, 10 * kGiB, 15 * kGiB);
  const Status s = p.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
}

TEST(LayoutProblemTest, NlpCallbackMatchesTargetModel) {
  LayoutProblem p = MakeProblem(3, 2);
  TargetModel model = p.MakeTargetModel();
  LayoutNlpProblem nlp = p.MakeNlp(&model);
  Layout l = Layout::StripeEverythingEverywhere(3, 2);
  EXPECT_DOUBLE_EQ(nlp.target_utilization(l, 0),
                   model.TargetUtilization(p.workloads, l, 0));
}

TEST(LayoutProblemTest, LayoutToPlacementsRequiresRegular) {
  LayoutProblem p = MakeProblem(2, 2);
  Layout bad(2, 2);
  bad.Set(0, 0, 0.3);
  bad.Set(0, 1, 0.7);
  bad.SetRowRegular(1, {0});
  EXPECT_FALSE(LayoutToPlacements(p, bad).ok());
  Layout good(2, 2);
  good.SetRowRegular(0, {0, 1});
  good.SetRowRegular(1, {1});
  auto placements = LayoutToPlacements(p, good);
  ASSERT_TRUE(placements.ok());
  EXPECT_EQ((*placements)[0], (std::vector<int>{0, 1}));
  EXPECT_EQ((*placements)[1], (std::vector<int>{1}));
}

// ------------------------------------------------------------ InitialLayout

TEST(InitialLayoutTest, AssignsEachObjectToOneTarget) {
  LayoutProblem p = MakeProblem(6, 3);
  auto l = InitialLayout(p);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(l->IsValid(p.object_sizes, p.capacities()));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(l->TargetsOf(i).size(), 1u);
}

TEST(InitialLayoutTest, BalancesRequestRates) {
  LayoutProblem p = MakeProblem(8, 2);
  auto l = InitialLayout(p);
  ASSERT_TRUE(l.ok());
  double rate[2] = {0, 0};
  for (int i = 0; i < 8; ++i) {
    const int j = l->TargetsOf(i)[0];
    rate[j] += p.workloads[static_cast<size_t>(i)].total_rate();
  }
  // Greedy balance: neither target gets more than ~65% of the total.
  const double total = rate[0] + rate[1];
  EXPECT_LT(std::max(rate[0], rate[1]) / total, 0.65);
}

TEST(InitialLayoutTest, RespectsCapacity) {
  // Target 0 can hold only one object.
  LayoutProblem p = MakeProblem(3, 2, 10 * kGiB, 30 * kGiB);
  p.targets[0].capacity_bytes = 10 * kGiB;
  auto l = InitialLayout(p);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(l->SatisfiesCapacity(p.object_sizes, p.capacities()));
}

TEST(InitialLayoutTest, FailsWhenNothingFits) {
  LayoutProblem p = MakeProblem(3, 2, 10 * kGiB, 14 * kGiB);
  // Total capacity 28 < 30 needed; Validate already rejects, and the
  // greedy layout must also fail cleanly.
  auto l = InitialLayout(p);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kInfeasible);
}

// ------------------------------------------------------------- Regularizer

TEST(RegularizerTest, OutputIsRegularAndValid) {
  LayoutProblem p = MakeProblem(5, 3);
  TargetModel model = p.MakeTargetModel();
  Regularizer reg(&p, &model);
  Layout solver_layout(5, 3);
  // Non-regular solver output.
  for (int i = 0; i < 5; ++i) {
    solver_layout.Set(i, 0, 0.47);
    solver_layout.Set(i, 1, 0.35);
    solver_layout.Set(i, 2, 0.18);
  }
  auto r = reg.Regularize(solver_layout);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsRegular(1e-9));
  EXPECT_TRUE(r->IsValid(p.object_sizes, p.capacities()));
}

TEST(RegularizerTest, PreservesAlreadyRegularBalancedLayout) {
  // Two equal-rate objects isolated on two targets is optimal; the
  // regularizer must not disturb it.
  LayoutProblem p = MakeProblem(2, 2);
  p.workloads[1].read_rate = p.workloads[0].read_rate;
  TargetModel model = p.MakeTargetModel();
  Regularizer reg(&p, &model);
  Layout l(2, 2);
  l.SetRowRegular(0, {0});
  l.SetRowRegular(1, {1});
  auto r = reg.Regularize(l);
  ASSERT_TRUE(r.ok());
  const double mu_before = model.MaxUtilization(p.workloads, l);
  const double mu_after = model.MaxUtilization(p.workloads, *r);
  EXPECT_LE(mu_after, mu_before + 1e-9);
}

TEST(RegularizerTest, NearRegularSolverLayoutStaysClose) {
  // The paper notes (Fig. 12 vs 14b) that an almost-regular solver layout
  // regularizes to nearly the same thing: max utilization should not jump.
  LayoutProblem p = MakeProblem(4, 2);
  TargetModel model = p.MakeTargetModel();
  Layout solver_layout(4, 2);
  solver_layout.Set(0, 0, 0.52);
  solver_layout.Set(0, 1, 0.48);
  solver_layout.SetRowRegular(1, {1});
  solver_layout.SetRowRegular(2, {0});
  solver_layout.Set(3, 0, 0.49);
  solver_layout.Set(3, 1, 0.51);
  Regularizer reg(&p, &model);
  auto r = reg.Regularize(solver_layout);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(model.MaxUtilization(p.workloads, *r),
            1.15 * model.MaxUtilization(p.workloads, solver_layout));
}

TEST(RegularizerTest, BalancingCandidatesFixImbalance) {
  // Solver layout crams everything on target 0; balancing candidates must
  // spread the load.
  LayoutProblem p = MakeProblem(6, 3);
  TargetModel model = p.MakeTargetModel();
  Layout l(6, 3);
  for (int i = 0; i < 6; ++i) l.SetRowRegular(i, {0});
  Regularizer reg(&p, &model);
  auto r = reg.Regularize(l);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(model.MaxUtilization(p.workloads, *r),
            0.7 * model.MaxUtilization(p.workloads, l));
}

TEST(RegularizerTest, FailsUnderImpossibleCapacity) {
  // Objects of 10 GiB; targets of 12 GiB each. Any single-target candidate
  // for the second object on a used target violates capacity, but
  // balancing candidates onto the other targets succeed — so build a case
  // where even that fails: 4 objects, 2 targets, each target fits one.
  LayoutProblem p = MakeProblem(4, 2, 10 * kGiB, 12 * kGiB);
  // Validate() fails (40 GiB into 24 GiB); Regularize must surface it.
  TargetModel model = p.MakeTargetModel();
  Regularizer reg(&p, &model);
  EXPECT_FALSE(reg.Regularize(Layout::StripeEverythingEverywhere(4, 2)).ok());
}

// ---------------------------------------------------------------- Advisor

TEST(AdvisorTest, BeatsSeeOnInterferingWorkload) {
  // Two heavy sequential objects that always overlap: SEE co-locates them
  // everywhere; the advisor should separate them.
  LayoutProblem p = MakeProblem(4, 2);
  for (int i : {0, 1}) {
    p.workloads[static_cast<size_t>(i)].read_rate = 80;
    p.workloads[static_cast<size_t>(i)].read_size = 256 * kKiB;
    p.workloads[static_cast<size_t>(i)].run_count = 64;
  }
  SetOverlapRow(&p.workloads[0], 0, {0.0, 1.0, 0.0, 0.0});
  SetOverlapRow(&p.workloads[1], 1, {1.0, 0.0, 0.0, 0.0});
  LayoutAdvisor advisor;
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  TargetModel model = p.MakeTargetModel();
  const double see_mu =
      model.MaxUtilization(p.workloads, SeeBaseline(p));
  EXPECT_LT(r->max_utilization_final, see_mu);
  EXPECT_TRUE(r->final_layout.IsRegular(1e-9));
  EXPECT_TRUE(r->final_layout.IsValid(p.object_sizes, p.capacities()));
  // The two hot objects end up disjoint.
  const auto t0 = r->final_layout.TargetsOf(0);
  const auto t1 = r->final_layout.TargetsOf(1);
  for (int j : t0) {
    EXPECT_EQ(std::count(t1.begin(), t1.end(), j), 0);
  }
}

TEST(AdvisorTest, ReportsAllStages) {
  LayoutProblem p = MakeProblem(5, 3);
  LayoutAdvisor advisor;
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->utilization_initial.size(), 3u);
  EXPECT_EQ(r->utilization_solver.size(), 3u);
  EXPECT_EQ(r->utilization_final.size(), 3u);
  EXPECT_GE(r->solver_seconds, 0.0);
  EXPECT_GE(r->regularization_seconds, 0.0);
  EXPECT_GT(r->solver_stats.gradient_evaluations, 0);
  // Solver should do no worse than its seed.
  const double init_max = *std::max_element(
      r->utilization_initial.begin(), r->utilization_initial.end());
  const double solver_max = *std::max_element(
      r->utilization_solver.begin(), r->utilization_solver.end());
  EXPECT_LE(solver_max, init_max + 1e-9);
}

TEST(AdvisorTest, NonRegularModeReturnsSolverLayout) {
  LayoutProblem p = MakeProblem(4, 2);
  AdvisorOptions opts;
  opts.regularize = false;
  LayoutAdvisor advisor(opts);
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->final_layout, r->solver_layout);
  EXPECT_DOUBLE_EQ(r->regularization_seconds, 0.0);
}

TEST(AdvisorTest, FavorsFasterTargetsUnderHeterogeneity) {
  // Target 0 is a 3-member group (3x the throughput): the hottest object
  // should land with more capacity share there.
  LayoutProblem p = MakeProblem(4, 2);
  p.targets[0].num_members = 3;
  p.targets[0].capacity_bytes *= 3;
  LayoutAdvisor advisor;
  auto r = advisor.Recommend(p);
  ASSERT_TRUE(r.ok());
  // Aggregate request rate assigned to the fast target exceeds the slow's.
  double fast = 0, slow = 0;
  for (int i = 0; i < 4; ++i) {
    fast += r->final_layout.At(i, 0) * p.workloads[static_cast<size_t>(i)].total_rate();
    slow += r->final_layout.At(i, 1) * p.workloads[static_cast<size_t>(i)].total_rate();
  }
  EXPECT_GT(fast, slow);
}

// --------------------------------------------------------------- Baselines

TEST(BaselinesTest, SeeStripesEverything) {
  LayoutProblem p = MakeProblem(3, 4);
  Layout l = SeeBaseline(p);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(l.TargetsOf(i).size(), 4u);
    EXPECT_DOUBLE_EQ(l.At(i, 0), 0.25);
  }
}

TEST(BaselinesTest, IsolateTablesSplitsByKind) {
  LayoutProblem p = MakeProblem(4, 3);
  p.object_kinds[2] = ObjectKind::kIndex;
  p.object_kinds[3] = ObjectKind::kTempSpace;
  auto l = IsolateTablesBaseline(p, 0);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->TargetsOf(0), (std::vector<int>{0}));
  EXPECT_EQ(l->TargetsOf(1), (std::vector<int>{0}));
  EXPECT_EQ(l->TargetsOf(2), (std::vector<int>{1, 2}));
  EXPECT_EQ(l->TargetsOf(3), (std::vector<int>{1, 2}));
}

TEST(BaselinesTest, IsolateTablesIndexesThreeWay) {
  LayoutProblem p = MakeProblem(4, 3);
  p.object_kinds[1] = ObjectKind::kIndex;
  p.object_kinds[2] = ObjectKind::kTempSpace;
  p.object_kinds[3] = ObjectKind::kLog;
  auto l = IsolateTablesIndexesBaseline(p, 0, 1, 2);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->TargetsOf(0), (std::vector<int>{0}));
  EXPECT_EQ(l->TargetsOf(1), (std::vector<int>{1}));
  EXPECT_EQ(l->TargetsOf(2), (std::vector<int>{2}));
  EXPECT_EQ(l->TargetsOf(3), (std::vector<int>{2}));
  EXPECT_FALSE(IsolateTablesIndexesBaseline(p, 0, 0, 2).ok());
}

TEST(BaselinesTest, AllOnOneTargetChecksCapacity) {
  LayoutProblem p = MakeProblem(3, 2, 10 * kGiB, 35 * kGiB);
  auto ok = AllOnOneTargetBaseline(p, 0);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->TargetsOf(1), (std::vector<int>{0}));
  p.targets[1].capacity_bytes = 25 * kGiB;
  EXPECT_FALSE(AllOnOneTargetBaseline(p, 1).ok());
}

// --------------------------------------------------------------- AutoAdmin

std::vector<QueryEstimate> TwoHotCoAccessedObjects() {
  // Queries access objects 0 and 1 together, heavily; 2 and 3 lightly.
  std::vector<QueryEstimate> queries;
  for (int q = 0; q < 10; ++q) {
    QueryEstimate est;
    est.accesses.push_back({0, 1e9});
    est.accesses.push_back({1, 8e8});
    if (q % 3 == 0) est.accesses.push_back({2, 1e7});
    if (q % 4 == 0) est.accesses.push_back({3, 1e7});
    queries.push_back(est);
  }
  return queries;
}

TEST(AutoAdminTest, SeparatesHeavilyCoAccessedObjects) {
  LayoutProblem p = MakeProblem(4, 3);
  AutoAdminAdvisor advisor;
  auto l = advisor.Recommend(p, TwoHotCoAccessedObjects());
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(l->IsRegular(1e-9));
  const auto t0 = l->TargetsOf(0);
  const auto t1 = l->TargetsOf(1);
  for (int j : t0) EXPECT_EQ(std::count(t1.begin(), t1.end(), j), 0);
}

TEST(AutoAdminTest, SpreadsHeavyObjectForParallelism) {
  // A single dominant object with no co-access should be striped widely.
  LayoutProblem p = MakeProblem(3, 4);
  std::vector<QueryEstimate> queries;
  QueryEstimate est;
  est.accesses.push_back({0, 1e9});
  queries.push_back(est);
  QueryEstimate est2;
  est2.accesses.push_back({1, 1e6});
  est2.accesses.push_back({2, 1e6});
  queries.push_back(est2);
  AutoAdminAdvisor advisor;
  auto l = advisor.Recommend(p, queries);
  ASSERT_TRUE(l.ok());
  EXPECT_GT(l->TargetsOf(0).size(), 1u);
}

TEST(AutoAdminTest, RejectsBadEstimates) {
  LayoutProblem p = MakeProblem(2, 2);
  AutoAdminAdvisor advisor;
  EXPECT_FALSE(advisor.Recommend(p, {}).ok());
  std::vector<QueryEstimate> bad{{{{77, 1.0}}}};
  EXPECT_FALSE(advisor.Recommend(p, bad).ok());
}

TEST(AutoAdminTest, EstimatesIgnoreConcurrencyAndInflateTemp) {
  Catalog cat = Catalog::TpcH(0.05);
  auto olap1 = MakeOlapSpec(cat, 1, 1, 7);
  auto olap8 = MakeOlapSpec(cat, 1, 8, 7);
  ASSERT_TRUE(olap1.ok());
  LayoutProblem p = MakeProblem(cat.num_objects(), 4);
  p.object_sizes = cat.sizes();
  for (int i = 0; i < cat.num_objects(); ++i) {
    p.object_kinds[static_cast<size_t>(i)] = cat.object(i).kind;
    p.object_names[static_cast<size_t>(i)] = cat.object(i).name;
  }
  auto e1 = EstimateQueriesFromSpec(*olap1, p, 8.0);
  auto e8 = EstimateQueriesFromSpec(*olap8, p, 8.0);
  ASSERT_EQ(e1.size(), e8.size());
  for (size_t q = 0; q < e1.size(); ++q) {
    ASSERT_EQ(e1[q].accesses.size(), e8[q].accesses.size());
    for (size_t a = 0; a < e1[q].accesses.size(); ++a) {
      EXPECT_EQ(e1[q].accesses[a].object, e8[q].accesses[a].object);
      EXPECT_DOUBLE_EQ(e1[q].accesses[a].estimated_bytes,
                       e8[q].accesses[a].estimated_bytes);
    }
  }
  // Temp volume estimates are inflated 8x relative to the true profile.
  auto no_error = EstimateQueriesFromSpec(*olap1, p, 1.0);
  const ObjectId temp = *cat.Find("TEMP SPACE");
  for (size_t q = 0; q < e1.size(); ++q) {
    for (size_t a = 0; a < e1[q].accesses.size(); ++a) {
      if (e1[q].accesses[a].object == temp) {
        EXPECT_DOUBLE_EQ(e1[q].accesses[a].estimated_bytes,
                         8.0 * no_error[q].accesses[a].estimated_bytes);
      }
    }
  }
}

}  // namespace
}  // namespace ldb
