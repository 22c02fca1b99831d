// End-to-end reproduction tests: the full paper pipeline (simulate under
// SEE -> trace -> fit workloads -> advise -> re-execute) with assertions on
// the headline shapes of the evaluation section. These are the most
// important tests in the suite: they fail if any model/solver/simulator
// change breaks a paper result.
//
// A reduced scale (0.03) keeps each case in the hundreds of milliseconds;
// the shapes are scale-robust.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/autoadmin.h"
#include "core/baselines.h"
#include "core/harness.h"
#include "workload/catalog.h"
#include "workload/spec.h"

namespace ldb {
namespace {

constexpr double kScale = 0.03;
constexpr uint64_t kSeed = 7;

struct Advised {
  LayoutProblem problem;
  AdvisorResult result;
};

Advised Advise(const ExperimentRig& rig, const OlapSpec* olap,
               const OltpSpec* oltp) {
  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), rig.num_targets());
  auto ws = rig.FitWorkloads(see, olap, oltp);
  LDB_CHECK(ws.ok());
  auto problem = rig.MakeProblem(std::move(ws).value());
  LDB_CHECK(problem.ok());
  LayoutAdvisor advisor;
  auto rec = advisor.Recommend(*problem);
  LDB_CHECK(rec.ok());
  return Advised{std::move(problem).value(), std::move(rec).value()};
}

// Shared fixtures (built once: rig construction calibrates cost models).
const ExperimentRig& TpchRig() {
  static const ExperimentRig* rig = [] {
    auto r = ExperimentRig::Create(
        Catalog::TpcH(kScale), {{"d0"}, {"d1"}, {"d2"}, {"d3"}}, kScale,
        kSeed);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();
  return *rig;
}

TEST(PipelineTest, Olap1OptimizedBeatsSeeEndToEnd) {
  // The paper's headline (Fig. 11): 1.28x on OLAP1-63 over SEE.
  const ExperimentRig& rig = TpchRig();
  auto olap = MakeOlapSpec(rig.catalog(), 3, 1, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(rig, &*olap, nullptr);
  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), rig.num_targets());

  auto see_run = rig.Execute(see, &*olap, nullptr);
  auto opt_run = rig.Execute(advised.result.final_layout, &*olap, nullptr);
  ASSERT_TRUE(see_run.ok());
  ASSERT_TRUE(opt_run.ok());
  const double speedup =
      see_run->elapsed_seconds / opt_run->elapsed_seconds;
  EXPECT_GT(speedup, 1.10) << "paper reports 1.28x";

  // Estimated utilizations drop too (Fig. 13).
  const TargetModel model = advised.problem.MakeTargetModel();
  EXPECT_LT(advised.result.max_utilization_final,
            model.MaxUtilization(advised.problem.workloads, see));
}

TEST(PipelineTest, Olap1LayoutHasPaperStructure) {
  // Fig. 1: LINEITEM and ORDERS end up on disjoint targets.
  const ExperimentRig& rig = TpchRig();
  auto olap = MakeOlapSpec(rig.catalog(), 3, 1, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(rig, &*olap, nullptr);
  const auto li =
      advised.result.final_layout.TargetsOf(*rig.catalog().Find("LINEITEM"));
  const auto ord =
      advised.result.final_layout.TargetsOf(*rig.catalog().Find("ORDERS"));
  for (int a : li) {
    EXPECT_EQ(std::count(ord.begin(), ord.end(), a), 0)
        << "LINEITEM and ORDERS share target " << a;
  }
  EXPECT_TRUE(advised.result.final_layout.IsRegular(1e-9));
  EXPECT_TRUE(advised.result.final_layout.IsValid(
      advised.problem.object_sizes, advised.problem.capacities()));
}

TEST(PipelineTest, ConcurrencyReducesFittedSequentiality) {
  // Section 6.2: LINEITEM's workload is less sequential under OLAP8-63.
  const ExperimentRig& rig = TpchRig();
  auto olap1 = MakeOlapSpec(rig.catalog(), 3, 1, kSeed);
  auto olap8 = MakeOlapSpec(rig.catalog(), 3, 8, kSeed);
  ASSERT_TRUE(olap1.ok());
  ASSERT_TRUE(olap8.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), rig.num_targets());
  auto ws1 = rig.FitWorkloads(see, &*olap1, nullptr);
  auto ws8 = rig.FitWorkloads(see, &*olap8, nullptr);
  ASSERT_TRUE(ws1.ok());
  ASSERT_TRUE(ws8.ok());
  const ObjectId li = *rig.catalog().Find("LINEITEM");
  EXPECT_LT((*ws8)[static_cast<size_t>(li)].run_count,
            (*ws1)[static_cast<size_t>(li)].run_count);
  // ... and its concurrent streams overlap themselves.
  EXPECT_GT(
      (*ws8)[static_cast<size_t>(li)].overlap_with(static_cast<size_t>(li)),
      1.0);
  EXPECT_LT(
      (*ws1)[static_cast<size_t>(li)].overlap_with(static_cast<size_t>(li)),
      0.5);
}

TEST(PipelineTest, Olap8AdvisorDoesNotRegress) {
  // Under OLAP8-63 (saturated, symmetric) SEE is near-optimal in this
  // simulator; the advisor must stay within noise of it (the paper reports
  // a 1.19x gain on its testbed).
  const ExperimentRig& rig = TpchRig();
  auto olap = MakeOlapSpec(rig.catalog(), 3, 8, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(rig, &*olap, nullptr);
  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), rig.num_targets());
  auto see_run = rig.Execute(see, &*olap, nullptr);
  auto opt_run = rig.Execute(advised.result.final_layout, &*olap, nullptr);
  ASSERT_TRUE(see_run.ok());
  ASSERT_TRUE(opt_run.ok());
  EXPECT_GT(see_run->elapsed_seconds / opt_run->elapsed_seconds, 0.93);
}

TEST(PipelineTest, HeterogeneousTargetsAmplifyGains) {
  // Fig. 17: the optimizer's advantage over SEE is larger on the "3-1"
  // configuration than on homogeneous disks.
  auto rig31 = ExperimentRig::Create(Catalog::TpcH(kScale),
                                     {{"raid0x3", 3}, {"disk", 1}}, kScale,
                                     kSeed);
  ASSERT_TRUE(rig31.ok());
  auto olap = MakeOlapSpec(rig31->catalog(), 3, 8, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(*rig31, &*olap, nullptr);
  const Layout see = Layout::StripeEverythingEverywhere(
      rig31->catalog().num_objects(), 2);
  auto see_run = rig31->Execute(see, &*olap, nullptr);
  auto opt_run = rig31->Execute(advised.result.final_layout, &*olap, nullptr);
  ASSERT_TRUE(see_run.ok());
  ASSERT_TRUE(opt_run.ok());
  EXPECT_GT(see_run->elapsed_seconds / opt_run->elapsed_seconds, 1.3);
}

TEST(PipelineTest, SsdExploitedAndBeatsSsdOnly) {
  // Fig. 18 (32 GB SSD): optimized layout uses disks + SSD and beats both
  // SEE and the all-on-SSD baseline.
  std::vector<RigTargetDef> targets{{"d0"}, {"d1"}, {"d2"}, {"d3"}};
  targets.push_back(RigTargetDef{"ssd", 1, true, 32 * kGiB});
  auto rig = ExperimentRig::Create(Catalog::TpcH(kScale), targets, kScale,
                                   kSeed);
  ASSERT_TRUE(rig.ok());
  auto olap = MakeOlapSpec(rig->catalog(), 3, 8, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(*rig, &*olap, nullptr);
  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), 5);
  auto see_run = rig->Execute(see, &*olap, nullptr);
  auto opt_run = rig->Execute(advised.result.final_layout, &*olap, nullptr);
  auto ssd_only = AllOnOneTargetBaseline(advised.problem, 4);
  ASSERT_TRUE(ssd_only.ok());
  auto ssd_run = rig->Execute(*ssd_only, &*olap, nullptr);
  ASSERT_TRUE(see_run.ok());
  ASSERT_TRUE(opt_run.ok());
  ASSERT_TRUE(ssd_run.ok());
  EXPECT_GT(see_run->elapsed_seconds / opt_run->elapsed_seconds, 1.5)
      << "paper reports 1.96x";
  EXPECT_LT(opt_run->elapsed_seconds, ssd_run->elapsed_seconds)
      << "paper: optimized beats SSD-only by ~10%";
}

TEST(PipelineTest, SmallSsdStillHelps) {
  // Fig. 18 (4 GB SSD): too small for SEE or SSD-only, but the advisor
  // exploits it and beats the disk-only SEE substantially.
  std::vector<RigTargetDef> targets{{"d0"}, {"d1"}, {"d2"}, {"d3"}};
  targets.push_back(RigTargetDef{"ssd", 1, true, 4 * kGiB});
  auto rig = ExperimentRig::Create(Catalog::TpcH(kScale), targets, kScale,
                                   kSeed);
  ASSERT_TRUE(rig.ok());
  auto olap = MakeOlapSpec(rig->catalog(), 3, 8, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(*rig, &*olap, nullptr);
  // The SSD is too small to hold all objects (paper: SSD-only is n/a
  // below 10 GB).
  EXPECT_FALSE(AllOnOneTargetBaseline(advised.problem, 4).ok());

  // Compare against disk-only SEE.
  const ExperimentRig& disk_rig = TpchRig();
  const Layout see4 = Layout::StripeEverythingEverywhere(
      disk_rig.catalog().num_objects(), 4);
  auto disk_run = disk_rig.Execute(see4, &*olap, nullptr);
  auto opt_run = rig->Execute(advised.result.final_layout, &*olap, nullptr);
  ASSERT_TRUE(disk_run.ok());
  ASSERT_TRUE(opt_run.ok());
  EXPECT_GT(disk_run->elapsed_seconds / opt_run->elapsed_seconds, 1.2)
      << "paper: 16201s disk-only SEE vs 8529s with a 4GB SSD";
}

TEST(PipelineTest, ConsolidationImprovesOlapWithoutTankingOltp) {
  // Fig. 15: optimized layout speeds up OLAP1-21 sharing disks with OLTP.
  Catalog merged = Catalog::Merge(Catalog::TpcH(kScale),
                                  Catalog::TpcC(kScale), "", "C_");
  auto rig = ExperimentRig::Create(
      merged, {{"d0"}, {"d1"}, {"d2"}, {"d3"}}, kScale, kSeed);
  ASSERT_TRUE(rig.ok());
  auto olap = MakeOlapSpec(rig->catalog(), 1, 1, kSeed);
  auto oltp = MakeOltpSpec(rig->catalog(), "C_", 9, 2.0);
  ASSERT_TRUE(olap.ok());
  ASSERT_TRUE(oltp.ok());
  Advised advised = Advise(*rig, &*olap, &*oltp);
  const Layout see = Layout::StripeEverythingEverywhere(
      merged.num_objects(), 4);
  auto see_run = rig->Execute(see, &*olap, &*oltp);
  auto opt_run = rig->Execute(advised.result.final_layout, &*olap, &*oltp);
  ASSERT_TRUE(see_run.ok());
  ASSERT_TRUE(opt_run.ok());
  EXPECT_GT(see_run->elapsed_seconds / opt_run->elapsed_seconds, 1.1)
      << "paper reports 1.43x";
  EXPECT_GT(opt_run->tpm, 0.85 * see_run->tpm)
      << "paper reports a 1.18x tpmC gain";
}

TEST(PipelineTest, AutoAdminMatchesAdvisorSeriallyButHurtsConcurrent) {
  // Section 6.6: the AutoAdmin layout is competitive on OLAP1-63 but is
  // slower than SEE under OLAP8-63, while the concurrency-aware advisor
  // does not regress.
  const ExperimentRig& rig = TpchRig();
  auto olap1 = MakeOlapSpec(rig.catalog(), 3, 1, kSeed);
  auto olap8 = MakeOlapSpec(rig.catalog(), 3, 8, kSeed);
  ASSERT_TRUE(olap1.ok());
  ASSERT_TRUE(olap8.ok());
  Advised advised1 = Advise(rig, &*olap1, nullptr);
  AutoAdminAdvisor autoadmin;
  auto estimates = EstimateQueriesFromSpec(
      *olap1, advised1.problem, kAutoAdminTempEstimateError);
  auto aa = autoadmin.Recommend(advised1.problem, estimates);
  ASSERT_TRUE(aa.ok());

  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), rig.num_targets());
  auto see1 = rig.Execute(see, &*olap1, nullptr);
  auto aa1 = rig.Execute(*aa, &*olap1, nullptr);
  ASSERT_TRUE(see1.ok());
  ASSERT_TRUE(aa1.ok());
  // Competitive at concurrency 1 (paper: AA 32634s vs SEE 40927s).
  EXPECT_LT(aa1->elapsed_seconds, see1->elapsed_seconds);

  auto see8 = rig.Execute(see, &*olap8, nullptr);
  auto aa8 = rig.Execute(*aa, &*olap8, nullptr);
  ASSERT_TRUE(see8.ok());
  ASSERT_TRUE(aa8.ok());
  // Hurts at concurrency 8 (paper: AA 19937s vs SEE 16201s).
  EXPECT_GT(aa8->elapsed_seconds, 1.05 * see8->elapsed_seconds);

  // LINEITEM pinned to a single target (paper Fig. 20(b)): the
  // concurrency-oblivious choice behind the regression.
  EXPECT_EQ(aa->TargetsOf(*rig.catalog().Find("LINEITEM")).size(), 1u);
}

TEST(PipelineTest, AdvisorStagesAreConsistent) {
  // Fig. 13 mechanics: the solver improves on the unbalanced initial
  // layout and regularization stays close to the solver.
  const ExperimentRig& rig = TpchRig();
  auto olap = MakeOlapSpec(rig.catalog(), 3, 1, kSeed);
  ASSERT_TRUE(olap.ok());
  Advised advised = Advise(rig, &*olap, nullptr);
  const auto& r = advised.result;
  const double init_max = *std::max_element(r.utilization_initial.begin(),
                                            r.utilization_initial.end());
  const double solver_max = *std::max_element(r.utilization_solver.begin(),
                                              r.utilization_solver.end());
  EXPECT_LT(solver_max, init_max);
  EXPECT_LT(r.max_utilization_final, 1.2 * solver_max);
  EXPECT_GT(r.solver_stats.gradient_evaluations, 0);
  EXPECT_GE(r.solver_seconds, 0.0);
}

}  // namespace
}  // namespace ldb
