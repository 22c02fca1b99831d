#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "full_overlap_row.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "model/layout.h"
#include "model/layout_model.h"
#include "model/target_model.h"
#include "model/workload.h"
#include "storage/disk.h"
#include "storage/ssd.h"
#include "util/check.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

// ---------------------------------------------------------------- Layout

TEST(LayoutTest, SeeIsValidAndRegular) {
  Layout l = Layout::StripeEverythingEverywhere(3, 4);
  EXPECT_TRUE(l.SatisfiesIntegrity());
  EXPECT_TRUE(l.IsRegular());
  EXPECT_DOUBLE_EQ(l.At(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(l.RowSum(2), 1.0);
}

TEST(LayoutTest, IntegrityDetectsBadRows) {
  Layout l(2, 2);
  l.Set(0, 0, 0.5);
  l.Set(0, 1, 0.5);
  l.Set(1, 0, 0.7);  // row sums to 0.7
  EXPECT_FALSE(l.SatisfiesIntegrity());
  l.Set(1, 1, 0.3);
  EXPECT_TRUE(l.SatisfiesIntegrity());
}

TEST(LayoutTest, CapacityConstraint) {
  Layout l(1, 2);
  l.Set(0, 0, 1.0);
  std::vector<int64_t> sizes{10 * kGiB};
  EXPECT_FALSE(l.SatisfiesCapacity(sizes, {5 * kGiB, 50 * kGiB}));
  EXPECT_TRUE(l.SatisfiesCapacity(sizes, {10 * kGiB, kGiB}));
  l.Set(0, 0, 0.5);
  l.Set(0, 1, 0.5);
  EXPECT_TRUE(l.SatisfiesCapacity(sizes, {5 * kGiB, 5 * kGiB}));
}

TEST(LayoutTest, RegularityDefinition) {
  Layout l(2, 3);
  l.SetRowRegular(0, {0, 2});
  l.SetRowRegular(1, {1});
  EXPECT_TRUE(l.IsRegular());
  EXPECT_EQ(l.TargetsOf(0), (std::vector<int>{0, 2}));
  EXPECT_EQ(l.TargetsOf(1), (std::vector<int>{1}));
  // Non-regular: 47/35/18 split (the paper's Section 4.3 example).
  l.Set(0, 0, 0.47);
  l.Set(0, 1, 0.35);
  l.Set(0, 2, 0.18);
  EXPECT_FALSE(l.IsRegular());
  EXPECT_TRUE(l.SatisfiesIntegrity());
}

TEST(LayoutTest, BytesPerTargetRoundsUp) {
  Layout l(2, 2);
  l.SetRowRegular(0, {0, 1});
  l.SetRowRegular(1, {0});
  const auto bytes = l.BytesPerTarget({kGiB, kMiB});
  EXPECT_EQ(bytes[0], kGiB / 2 + kMiB);
  EXPECT_EQ(bytes[1], kGiB / 2);
}

TEST(LayoutTest, ToStringShowsPercentages) {
  Layout l(1, 2);
  l.SetRowRegular(0, {1});
  const std::string s = l.ToString({"LINEITEM"});
  EXPECT_NE(s.find("LINEITEM"), std::string::npos);
  EXPECT_NE(s.find("100%"), std::string::npos);
}

// ---------------------------------------------------------------- Workload

TEST(WorkloadTest, MeanSizeIsRateWeighted) {
  WorkloadDesc w;
  w.read_rate = 30;
  w.read_size = 8 * kKiB;
  w.write_rate = 10;
  w.write_size = 64 * kKiB;
  EXPECT_DOUBLE_EQ(w.total_rate(), 40);
  EXPECT_DOUBLE_EQ(w.mean_size(), (30.0 * 8 * kKiB + 10.0 * 64 * kKiB) / 40);
}

TEST(WorkloadTest, ZeroRateWorkloadHasZeroMeanSize) {
  WorkloadDesc w;
  EXPECT_DOUBLE_EQ(w.mean_size(), 0.0);
}

TEST(WorkloadTest, Validation) {
  WorkloadDesc w;
  SetFullOverlapRow(&w, {0.5, 0.5, 0.5});
  EXPECT_TRUE(IsValidWorkload(w, 3));
  EXPECT_FALSE(IsValidWorkload(w, 2));  // id 2 out of range
  w.run_count = 0.5;
  EXPECT_FALSE(IsValidWorkload(w, 3));
  w.run_count = 1.0;
  w.read_rate = 5.0;  // rate without size
  EXPECT_FALSE(IsValidWorkload(w, 3));
  w.read_size = 8 * kKiB;
  EXPECT_TRUE(IsValidWorkload(w, 3));
  w.overlap_value[1] = 1.5;
  EXPECT_FALSE(IsValidWorkload(w, 3));
}

TEST(WorkloadTest, SparseValidation) {
  WorkloadDesc w;  // sparse-only row for object 1 of 3
  w.overlap_index = {0, 1};
  w.overlap_value = {0.25, 2.0};  // diagonal may exceed 1
  EXPECT_TRUE(IsValidWorkload(w, 3, 1));

  WorkloadDesc bad = w;
  bad.overlap_index = {1, 0};  // unsorted
  bad.overlap_value = {2.0, 0.25};
  EXPECT_FALSE(IsValidWorkload(bad, 3, 1));

  bad = w;
  bad.overlap_index = {0, 1, 5};  // out of range
  bad.overlap_value = {0.25, 2.0, 0.1};
  EXPECT_FALSE(IsValidWorkload(bad, 3, 1));

  bad = w;
  bad.overlap_index = {0, 2};  // diagonal (1) missing
  bad.overlap_value = {0.25, 0.5};
  EXPECT_FALSE(IsValidWorkload(bad, 3, 1));

  bad = w;
  bad.overlap_value = {1.5, 2.0};  // off-diagonal fraction > 1
  EXPECT_FALSE(IsValidWorkload(bad, 3, 1));
}

TEST(WorkloadTest, ValidateWorkloadSetPinpointsClause) {
  WorkloadSet ws(3);
  for (size_t i = 0; i < 3; ++i) SetFullOverlapRow(&ws[i], {0.1, 0.1, 0.1});
  EXPECT_TRUE(ValidateWorkloadSet(ws).ok());

  ws[1].overlap_index = {2, 0};  // unsorted sparse row on workload 1
  ws[1].overlap_value = {0.1, 0.1};
  const Status unsorted = ValidateWorkloadSet(ws);
  ASSERT_FALSE(unsorted.ok());
  EXPECT_NE(unsorted.message().find("workload 1"), std::string::npos)
      << unsorted.message();
  EXPECT_NE(unsorted.message().find("not sorted"), std::string::npos)
      << unsorted.message();

  ws[1].overlap_index.clear();
  ws[1].overlap_value = {0.1};  // values without indices
  const Status orphan = ValidateWorkloadSet(ws);
  ASSERT_FALSE(orphan.ok());
  EXPECT_NE(orphan.message().find("without overlap_index"),
            std::string::npos)
      << orphan.message();

  SetFullOverlapRow(&ws[1], {0.1, 0.1, 0.1});
  ws[2].overlap_index.clear();  // no overlap row at all
  ws[2].overlap_value.clear();
  const Status missing = ValidateWorkloadSet(ws);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.message().find("workload 2"), std::string::npos)
      << missing.message();
  EXPECT_NE(missing.message().find("no overlap row"), std::string::npos)
      << missing.message();
}

TEST(WorkloadTest, ValidateWorkloadSetRejectsNonFiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* what;
    void (*poison)(WorkloadDesc*, double);
  };
  const Case cases[] = {
      {"non-finite request rate",
       [](WorkloadDesc* w, double v) { w->read_rate = v; }},
      {"non-finite request rate",
       [](WorkloadDesc* w, double v) { w->write_rate = v; }},
      {"non-finite request size",
       [](WorkloadDesc* w, double v) { w->read_size = v; }},
      {"non-finite request size",
       [](WorkloadDesc* w, double v) { w->write_size = v; }},
      {"non-finite run_count",
       [](WorkloadDesc* w, double v) { w->run_count = v; }},
      {"overlap_value[0] non-finite",
       [](WorkloadDesc* w, double v) { w->overlap_value[0] = v; }},
      {"overlap_value[1] non-finite",
       [](WorkloadDesc* w, double v) { w->overlap_value[1] = v; }},
  };
  for (const Case& c : cases) {
    for (const double bad : {inf, nan}) {
      WorkloadSet ws(2);
      for (size_t i = 0; i < 2; ++i) SetFullOverlapRow(&ws[i], {0.1, 0.1});
      ws[1].read_rate = ws[1].write_rate = 1.0;
      ws[1].read_size = ws[1].write_size = 8 * kKiB;
      c.poison(&ws[1], bad);
      const Status s = ValidateWorkloadSet(ws);
      ASSERT_FALSE(s.ok()) << c.what << " = " << bad;
      EXPECT_NE(s.message().find(std::string("workload 1: ") + c.what),
                std::string::npos)
          << s.message();
    }
  }
}

TEST(WorkloadTest, SetOverlapRowKeepsDiagonalAndNonzeros) {
  WorkloadSet ws(4);
  SetOverlapRow(&ws[0], 0, {0.0, 0.0, 0.3, 0.7});
  SetOverlapRow(&ws[1], 1, {0.0, 0.5, 0.0, 0.0});
  SetOverlapRow(&ws[2], 2, {0.0, 0.0, 1.0, 0.0});
  SetOverlapRow(&ws[3], 3, {0.0, 0.0, 0.0, 1.5});
  // Row 0: zero diagonal + both nonzeros, sorted.
  ASSERT_EQ(ws[0].overlap_index, (std::vector<int32_t>{0, 2, 3}));
  EXPECT_EQ(ws[0].overlap_value, (std::vector<double>{0.0, 0.3, 0.7}));
  // Row 1: zero off-diagonals leave only the diagonal entry.
  ASSERT_EQ(ws[1].overlap_index, (std::vector<int32_t>{1}));
  EXPECT_EQ(ws[1].overlap_value, (std::vector<double>{0.5}));
  EXPECT_TRUE(ValidateWorkloadSet(ws).ok());
}

TEST(WorkloadTest, OverlapWithReadsEitherRepresentation) {
  // The same row stored in full (zeros included) and zero-trimmed.
  const std::vector<double> row{0.0, 0.4, 0.0, 0.2};
  WorkloadDesc full;
  SetFullOverlapRow(&full, row);
  WorkloadDesc trimmed;
  SetOverlapRow(&trimmed, 0, row);
  ASSERT_EQ(trimmed.overlap_index, (std::vector<int32_t>{0, 1, 3}));
  for (const WorkloadDesc* w : {&full, &trimmed}) {
    EXPECT_DOUBLE_EQ(w->overlap_with(0), 0.0);
    EXPECT_DOUBLE_EQ(w->overlap_with(1), 0.4);
    EXPECT_DOUBLE_EQ(w->overlap_with(2), 0.0);
    EXPECT_DOUBLE_EQ(w->overlap_with(3), 0.2);
    EXPECT_DOUBLE_EQ(w->overlap_with(7), 0.0);
  }
}

// ----------------------------------------------------------- LayoutModel

TEST(LvmLayoutModelTest, RatesScaleWithFraction) {
  LvmLayoutModel lm(kMiB);
  WorkloadDesc w;
  w.read_rate = 100;
  w.read_size = 8 * kKiB;
  w.write_rate = 20;
  w.write_size = 8 * kKiB;
  w.run_count = 1;
  const PerTargetWorkload t = lm.Transform(w, 0.25);
  EXPECT_DOUBLE_EQ(t.read_rate, 25);
  EXPECT_DOUBLE_EQ(t.write_rate, 5);
  EXPECT_DOUBLE_EQ(t.read_size, 8 * kKiB);
}

TEST(LvmLayoutModelTest, ZeroFractionMeansAbsent) {
  LvmLayoutModel lm(kMiB);
  WorkloadDesc w;
  w.read_rate = 100;
  w.read_size = 8 * kKiB;
  const PerTargetWorkload t = lm.Transform(w, 0.0);
  EXPECT_DOUBLE_EQ(t.total_rate(), 0.0);
}

TEST(LvmLayoutModelTest, ShortRunsSurviveStriping) {
  // Q*B = 4*8KiB = 32KiB < 1MiB stripe: the run fits a stripe.
  LvmLayoutModel lm(kMiB);
  WorkloadDesc w;
  w.read_rate = 10;
  w.read_size = 8 * kKiB;
  w.run_count = 4;
  EXPECT_DOUBLE_EQ(lm.Transform(w, 0.5).run_count, 4);
}

TEST(LvmLayoutModelTest, LongRunsScaleWithFraction) {
  // Q*B = 1024*64KiB = 64MiB > stripe/L = 2MiB: target sees Q*L.
  LvmLayoutModel lm(kMiB);
  WorkloadDesc w;
  w.read_rate = 10;
  w.read_size = 64 * kKiB;
  w.run_count = 1024;
  EXPECT_DOUBLE_EQ(lm.Transform(w, 0.5).run_count, 512);
}

TEST(LvmLayoutModelTest, IntermediateRunsCappedByStripe) {
  // Q*B = 24*8KiB = 192KiB with stripe 256KiB, L = 0.05:
  // stripe < Q*B ... no: need StripeSize <= Q*B <= StripeSize/L.
  // Q*B=192KiB < 256KiB -> first case. Pick stripe 128KiB instead:
  // 128KiB <= 192KiB <= 128KiB/0.05 = 2.5MiB -> capped at stripe/B = 16.
  LvmLayoutModel lm(128 * kKiB);
  WorkloadDesc w;
  w.read_rate = 10;
  w.read_size = 8 * kKiB;
  w.run_count = 24;
  EXPECT_DOUBLE_EQ(lm.Transform(w, 0.05).run_count, 16);
}

TEST(LvmLayoutModelTest, RunCountNeverBelowOne) {
  LvmLayoutModel lm(kMiB);
  WorkloadDesc w;
  w.read_rate = 10;
  w.read_size = 2 * kMiB;  // requests bigger than the stripe
  w.run_count = 1024;
  EXPECT_GE(lm.Transform(w, 1e-4).run_count, 1.0);
}

/// Rates whose mean size rounds differently when its mul-add is fused
/// into an FMA, and the run count that puts run_count · mean_size exactly
/// on a 64 KiB stripe: a mean size computed any other way than
/// Transform's takes the other run branch here.
WorkloadDesc StripeBoundaryWorkload() {
  WorkloadDesc w;
  w.read_rate = 2.59;
  w.read_size = 13926.4;
  w.write_rate = 2.26;
  w.write_size = 12697.6;
  w.run_count = 4.9076650645079694;
  return w;
}

TEST(LvmLayoutModelTest, LimitRunCountIsTransformsRunAtTinyFractions) {
  // An absent object's gradient is priced at LimitRunCount, which must be
  // the run count Transform gives the object at any fraction too small
  // for the round-robin split, including one ulp either side of the
  // stripe boundary.
  LvmLayoutModel lm(64 * kKiB);
  WorkloadDesc w = StripeBoundaryWorkload();
  const double at_stripe = w.run_count;
  for (double run : {std::nextafter(std::nextafter(at_stripe, 0.0), 0.0),
                     std::nextafter(at_stripe, 0.0), at_stripe,
                     std::nextafter(at_stripe, 10.0),
                     std::nextafter(std::nextafter(at_stripe, 10.0), 10.0)}) {
    w.run_count = run;
    for (double fraction : {1e-12, 1e-6, 1e-3}) {
      EXPECT_EQ(lm.LimitRunCount(w), lm.Transform(w, fraction).run_count)
          << "run " << run << " fraction " << fraction;
    }
  }
  // Off the boundary, the two constant branches.
  w.run_count = 2.0;
  EXPECT_EQ(lm.LimitRunCount(w), 2.0);
  w.run_count = 100.0;
  EXPECT_EQ(lm.LimitRunCount(w), 64 * kKiB / w.mean_size());
}

// ------------------------------------------------------------- CostModel

CostModel MakeSyntheticCostModel(double base = 0.005) {
  // Cost grows with contention, shrinks with run count; reads cost 2x
  // writes. Axes kept tiny for clarity.
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB)};
  std::vector<double> runs{1, 16};
  std::vector<double> chis{0, 2};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v =
            base * (s / (8 * kKiB)) * (1.0 + c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(v / 2);
      }
    }
  }
  auto m = CostModel::Create("synthetic", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

TEST(CostModelTest, ExactAtGridPoints) {
  CostModel m = MakeSyntheticCostModel();
  EXPECT_NEAR(m.ReadCost(8 * kKiB, 1, 0), 0.005, 1e-12);
  EXPECT_NEAR(m.ReadCost(8 * kKiB, 1, 2), 0.015, 1e-12);
  EXPECT_NEAR(m.ReadCost(64 * kKiB, 16, 0), 0.01, 1e-12);
  EXPECT_NEAR(m.WriteCost(8 * kKiB, 1, 0), 0.0025, 1e-12);
}

TEST(CostModelTest, InterpolatesBetweenPoints) {
  CostModel m = MakeSyntheticCostModel();
  const double lo = m.ReadCost(8 * kKiB, 1, 0);
  const double hi = m.ReadCost(8 * kKiB, 1, 2);
  const double mid = m.ReadCost(8 * kKiB, 1, 1);
  EXPECT_GT(mid, lo);
  EXPECT_LT(mid, hi);
}

TEST(CostModelTest, ClampsOutsideGrid) {
  CostModel m = MakeSyntheticCostModel();
  EXPECT_DOUBLE_EQ(m.ReadCost(8 * kKiB, 1, 100), m.ReadCost(8 * kKiB, 1, 2));
  EXPECT_DOUBLE_EQ(m.ReadCost(4 * kKiB, 1, 0), m.ReadCost(8 * kKiB, 1, 0));
  EXPECT_DOUBLE_EQ(m.ReadCost(8 * kKiB, 500, 0), m.ReadCost(8 * kKiB, 16, 0));
}

TEST(CostModelTest, RoundTripsThroughText) {
  CostModel m = MakeSyntheticCostModel();
  auto m2 = CostModel::FromText(m.ToText());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->device_model(), "synthetic");
  for (double s : {8.0 * kKiB, 20.0 * kKiB, 64.0 * kKiB}) {
    for (double q : {1.0, 3.0, 16.0}) {
      for (double c : {0.0, 0.7, 2.0}) {
        EXPECT_DOUBLE_EQ(m2->ReadCost(s, q, c), m.ReadCost(s, q, c));
        EXPECT_DOUBLE_EQ(m2->WriteCost(s, q, c), m.WriteCost(s, q, c));
      }
    }
  }
}

TEST(CostModelTest, RejectsMalformedText) {
  EXPECT_FALSE(CostModel::FromText("garbage").ok());
  EXPECT_FALSE(CostModel::FromText("costmodel v1 dev\nsizes 2 1 2\n").ok());
}

TEST(CostModelTest, RejectsBadInputs) {
  EXPECT_FALSE(
      CostModel::Create("", {8192}, {1}, {0}, {0.1}, {0.1}).ok());
  EXPECT_FALSE(
      CostModel::Create("d", {-1}, {1}, {0}, {0.1}, {0.1}).ok());
  EXPECT_FALSE(
      CostModel::Create("d", {8192}, {0.5}, {0}, {0.1}, {0.1}).ok());
  EXPECT_FALSE(
      CostModel::Create("d", {8192}, {1}, {0}, {0.0}, {0.1}).ok());
  EXPECT_FALSE(
      CostModel::Create("d", {8192}, {1}, {0}, {0.1, 0.2}, {0.1}).ok());
}

// ------------------------------------------------------------ TargetModel

WorkloadDesc SimpleWorkload(int n, double rate, double size, double run) {
  WorkloadDesc w;
  w.read_rate = rate;
  w.read_size = size;
  w.run_count = run;
  // Stored in full, so tests set O_i[k] as overlap_value[k].
  SetFullOverlapRow(&w, std::vector<double>(static_cast<size_t>(n), 0.0));
  return w;
}

TEST(TargetModelTest, UtilizationIsRateTimesCost) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}}, LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(1, 40.0, 8 * kKiB, 1.0)};
  Layout l(1, 1);
  l.Set(0, 0, 1.0);
  const auto mu = tm.Utilizations(ws, l);
  EXPECT_NEAR(mu[0], 40.0 * cm.ReadCost(8 * kKiB, 1, 0), 1e-12);
}

TEST(TargetModelTest, SplitHalvesPerTargetLoad) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}, {&cm, 1, 64 * kKiB}},
                 LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(1, 40.0, 8 * kKiB, 1.0)};
  Layout l(1, 2);
  l.SetRowRegular(0, {0, 1});
  const auto mu = tm.Utilizations(ws, l);
  EXPECT_NEAR(mu[0], 20.0 * cm.ReadCost(8 * kKiB, 1, 0), 1e-12);
  EXPECT_NEAR(mu[1], mu[0], 1e-12);
}

TEST(TargetModelTest, OverlappingCoLocatedObjectsInterfere) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}, {&cm, 1, 64 * kKiB}},
                 LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(2, 40.0, 8 * kKiB, 1.0),
                 SimpleWorkload(2, 40.0, 8 * kKiB, 1.0)};
  ws[0].overlap_value[1] = 1.0;
  ws[1].overlap_value[0] = 1.0;

  Layout together(2, 2);
  together.SetRowRegular(0, {0});
  together.SetRowRegular(1, {0});
  Layout apart(2, 2);
  apart.SetRowRegular(0, {0});
  apart.SetRowRegular(1, {1});

  const double mu_together = tm.Utilizations(ws, together)[0];
  const auto mu_apart = tm.Utilizations(ws, apart);
  // Co-located overlapping workloads pay contention (χ=1 each):
  EXPECT_GT(mu_together, 2 * mu_apart[0]);
  EXPECT_NEAR(mu_apart[0], 40.0 * cm.ReadCost(8 * kKiB, 1, 0), 1e-12);
}

TEST(TargetModelTest, NonOverlappingObjectsDoNotInterfere) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}}, LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(2, 40.0, 8 * kKiB, 1.0),
                 SimpleWorkload(2, 40.0, 8 * kKiB, 1.0)};
  Layout l(2, 1);
  l.SetRowRegular(0, {0});
  l.SetRowRegular(1, {0});
  const auto mu = tm.Utilizations(ws, l);
  // χ = 0 for both: total is exactly the sum of isolated loads.
  EXPECT_NEAR(mu[0], 2 * 40.0 * cm.ReadCost(8 * kKiB, 1, 0), 1e-12);
}

TEST(TargetModelTest, MoreMembersLowerUtilization) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}, {&cm, 3, 64 * kKiB}},
                 LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(1, 40.0, 8 * kKiB, 1.0)};
  Layout on_single(1, 2), on_raid(1, 2);
  on_single.SetRowRegular(0, {0});
  on_raid.SetRowRegular(0, {1});
  EXPECT_GT(tm.Utilizations(ws, on_single)[0],
            2.5 * tm.Utilizations(ws, on_raid)[1]);
}

TEST(TargetModelTest, PerObjectBreakdownSumsToTotal) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}, {&cm, 1, 64 * kKiB}},
                 LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(3, 40.0, 8 * kKiB, 1.0),
                 SimpleWorkload(3, 10.0, 64 * kKiB, 8.0),
                 SimpleWorkload(3, 5.0, 8 * kKiB, 1.0)};
  ws[0].overlap_value[1] = ws[1].overlap_value[0] = 0.5;
  Layout l = Layout::StripeEverythingEverywhere(3, 2);
  std::vector<double> mu_ij;
  const auto mu = tm.Utilizations(ws, l, &mu_ij);
  for (int j = 0; j < 2; ++j) {
    double sum = 0;
    for (int i = 0; i < 3; ++i) sum += mu_ij[static_cast<size_t>(i) * 2 + j];
    EXPECT_NEAR(sum, mu[static_cast<size_t>(j)], 1e-12);
  }
}

TEST(TargetModelTest, TargetUtilizationMatchesFullComputation) {
  CostModel cm = MakeSyntheticCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}, {&cm, 2, 64 * kKiB}},
                 LvmLayoutModel(kMiB));
  WorkloadSet ws{SimpleWorkload(2, 40.0, 8 * kKiB, 1.0),
                 SimpleWorkload(2, 10.0, 64 * kKiB, 16.0)};
  ws[0].overlap_value[1] = ws[1].overlap_value[0] = 1.0;
  Layout l(2, 2);
  l.Set(0, 0, 0.3);
  l.Set(0, 1, 0.7);
  l.Set(1, 0, 0.6);
  l.Set(1, 1, 0.4);
  const auto mu = tm.Utilizations(ws, l);
  EXPECT_NEAR(tm.TargetUtilization(ws, l, 0), mu[0], 1e-12);
  EXPECT_NEAR(tm.TargetUtilization(ws, l, 1), mu[1], 1e-12);
  EXPECT_NEAR(tm.MaxUtilization(ws, l), std::max(mu[0], mu[1]), 1e-12);
}

// ------------------------------------------------------------ Calibration

CalibrationOptions FastCalibration() {
  CalibrationOptions opts;
  opts.size_axis = {static_cast<double>(8 * kKiB),
                    static_cast<double>(64 * kKiB)};
  opts.run_axis = {1, 8, 64};
  opts.contention_axis = {0, 1, 2, 4};
  opts.sample_requests = 160;
  return opts;
}

TEST(CalibrationTest, DiskSequentialCheaperThanRandom) {
  DiskModel disk(Scsi15kParams());
  auto cm = CalibrateDevice(disk, FastCalibration());
  ASSERT_TRUE(cm.ok());
  EXPECT_LT(cm->ReadCost(8 * kKiB, 64, 0) * 5, cm->ReadCost(8 * kKiB, 1, 0));
}

TEST(CalibrationTest, SequentialAdvantageCollapsesNearChiTwo) {
  // The Figure 8 effect: sequential requests stay cheap under light
  // contention but collapse once the contention factor reaches ~2 (the
  // drive tracks two streams).
  DiskModel disk(Scsi15kParams());
  auto cm = CalibrateDevice(disk, FastCalibration());
  ASSERT_TRUE(cm.ok());
  const double seq0 = cm->ReadCost(8 * kKiB, 64, 0);
  const double seq2 = cm->ReadCost(8 * kKiB, 64, 2);
  const double rnd2 = cm->ReadCost(8 * kKiB, 1, 2);
  EXPECT_GT(seq2, 4 * seq0);        // collapse happened
  EXPECT_LT(seq2, rnd2 * 1.5);      // ... roughly to random cost
}

TEST(CalibrationTest, RandomCostDecreasesWithContention) {
  // Deeper queues let the SCAN-like scheduler shorten seeks.
  DiskModel disk(Scsi15kParams());
  auto cm = CalibrateDevice(disk, FastCalibration());
  ASSERT_TRUE(cm.ok());
  EXPECT_LT(cm->ReadCost(8 * kKiB, 1, 4), cm->ReadCost(8 * kKiB, 1, 0));
}

TEST(CalibrationTest, SsdInsensitiveToRunAndContention) {
  SsdModel ssd(SsdParams{});
  auto cm = CalibrateDevice(ssd, FastCalibration());
  ASSERT_TRUE(cm.ok());
  const double base = cm->ReadCost(8 * kKiB, 1, 0);
  EXPECT_NEAR(cm->ReadCost(8 * kKiB, 64, 0), base, base * 0.01);
  EXPECT_NEAR(cm->ReadCost(8 * kKiB, 1, 4), base, base * 0.01);
}

TEST(CalibrationTest, LargerRequestsCostMore) {
  DiskModel disk(Scsi15kParams());
  auto cm = CalibrateDevice(disk, FastCalibration());
  ASSERT_TRUE(cm.ok());
  EXPECT_GT(cm->ReadCost(64 * kKiB, 1, 0), cm->ReadCost(8 * kKiB, 1, 0));
}

TEST(CalibrationTest, RegistryCalibratesEachModelOnce) {
  DiskModel d1(Scsi15kParams()), d2(Scsi15kParams());
  SsdModel s(SsdParams{});
  auto reg =
      CostModelRegistry::ForDevices({&d1, &d2, &s}, FastCalibration());
  ASSERT_TRUE(reg.ok());
  EXPECT_NE(reg->Find("disk-15k"), nullptr);
  EXPECT_NE(reg->Find("ssd"), nullptr);
  EXPECT_EQ(reg->Find("nope"), nullptr);
}

TEST(CalibrationTest, RejectsEmptyAxes) {
  DiskModel disk(Scsi15kParams());
  CalibrationOptions opts = FastCalibration();
  opts.run_axis.clear();
  EXPECT_FALSE(CalibrateDevice(disk, opts).ok());
}

// ------------------------------------------------- batched column kernel

/// Multi-cell cost grid: lookups land inside cells, on knots and in the
/// clamped tails of every axis.
CostModel MakeKernelCostModel() {
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB),
                            static_cast<double>(512 * kKiB)};
  std::vector<double> runs{1, 8, 64};
  std::vector<double> chis{0, 0.5, 1, 2, 4};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v =
            0.003 * std::sqrt(s / (8 * kKiB)) * (1.0 + 0.6 * c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(1.3 * v + 1e-4 * c);
      }
    }
  }
  auto m = CostModel::Create("kernel-grid", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

TEST(ColumnKernelTest, FusedPassMatchesScalarUtilization) {
  // The fused value+gradient pass the solver prices every layout with
  // must agree with the scalar TargetUtilization across dense, CSR and
  // mixed rows, every RAID level, and absent objects; repeated passes over
  // the same layout must return the same double (no state leaks between
  // passes).
  const CostModel cm = MakeKernelCostModel();
  const double sizes[] = {4 * kKiB, 8 * kKiB, 24 * kKiB, 64 * kKiB,
                          256 * kKiB, 2 * kMiB};
  const RaidLevel levels[] = {RaidLevel::kRaid0, RaidLevel::kRaid1,
                              RaidLevel::kRaid5};
  Rng rng(1301);
  int absent_with_interference = 0;
  for (int problem = 0; problem < 200; ++problem) {
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{11}));
    const int m = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    WorkloadSet ws(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      WorkloadDesc& w = ws[static_cast<size_t>(i)];
      w.read_rate = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.5, 300);
      w.read_size = sizes[rng.UniformInt(uint64_t{6})];
      w.write_rate = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.1, 80);
      w.write_size = sizes[rng.UniformInt(uint64_t{6})];
      if (w.read_rate + w.write_rate <= 0.0) w.read_rate = 1.0;
      w.run_count = rng.Uniform(1, 120);
      std::vector<double> row(static_cast<size_t>(n));
      for (int k = 0; k < n; ++k) {
        // Heavy overlaps push χ past the axis end, where lookups clamp.
        row[static_cast<size_t>(k)] =
            k == i ? rng.Uniform(0, 3)
                   : (rng.Bernoulli(0.4) ? 0.0 : rng.Uniform(0, 1));
      }
      // Cycle full, zero-trimmed and mixed rows.
      if (problem % 3 == 0 || (problem % 3 == 2 && i % 2 == 0)) {
        SetFullOverlapRow(&w, row);
      } else {
        SetOverlapRow(&w, static_cast<size_t>(i), row);
      }
    }
    std::vector<TargetModelInfo> infos;
    for (int j = 0; j < m; ++j) {
      infos.push_back({&cm, 1 + static_cast<int>(rng.UniformInt(uint64_t{4})),
                       64 * kKiB, levels[(problem + j) % 3]});
    }
    TargetModel tm(infos, LvmLayoutModel(64 * kKiB));

    Layout l(n, m);
    for (int i = 0; i < n; ++i) {
      double* row = l.Row(i);
      double sum = 0.0;
      for (int j = 0; j < m; ++j) {
        row[j] = rng.Bernoulli(0.35) ? 0.0 : rng.Uniform(0.01, 1);
        sum += row[j];
      }
      if (sum == 0.0) {
        row[rng.UniformInt(static_cast<uint64_t>(m))] = 1.0;
        sum = 1.0;
      }
      for (int j = 0; j < m; ++j) row[j] /= sum;
    }

    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < n; ++i) {
        if (l.At(i, j) == 0.0 && ws[static_cast<size_t>(i)].overlap_with(
                                     static_cast<size_t>((i + 1) % n)) > 0) {
          ++absent_with_interference;
        }
      }
      auto ctx = tm.MakeColumnEvaluator(ws, j);
      std::vector<double> grad(static_cast<size_t>(n));
      const double value = ctx->EvaluateWithGradient(l, grad.data());
      EXPECT_NEAR(value, tm.TargetUtilization(ws, l, j),
                  1e-9 * std::max(1.0, std::fabs(value)))
          << "problem=" << problem << " j=" << j;
      EXPECT_EQ(ctx->EvaluateWithGradient(l, grad.data()), value)
          << "problem=" << problem << " j=" << j;
    }
  }
  // Absent objects with interferers price their gradient at clamped χ.
  EXPECT_GT(absent_with_interference, 100);
}

/// Bit pattern of a double: the memo test compares results bit for bit,
/// which `==` would not (it equates 0.0 and −0.0).
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Run-count branch of Transform at a positive fraction: whether the run
/// is split round-robin (run ∝ fraction) or held constant.
bool SplitRunBranch(const WorkloadDesc& w, double fraction, double stripe) {
  const double b = w.mean_size();
  return b > 0.0 && w.run_count * b >= stripe &&
         w.run_count * b > stripe / fraction;
}

TEST(ColumnKernelTest, LookupMemoMatchesFreshEvaluatorsBitForBit) {
  // One long-lived evaluator per column walks a seeded random sequence of
  // layouts; at every step its value and gradient must equal, bit for bit,
  // those of an evaluator built for that layout alone (whose memo is
  // empty). The walk moves objects absent → present → absent, across the
  // run-count branches, to χ clamped at both axis ends (0 and past 4), and
  // keeps rows unchanged between steps so the memo hits.
  const CostModel cm = MakeKernelCostModel();
  constexpr double kStripe = 64 * kKiB;
  constexpr int kN = 12;
  const double sizes[] = {8 * kKiB, 24 * kKiB, 64 * kKiB, 256 * kKiB};
  Rng rng(2603);
  WorkloadSet ws(static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = i == 0 ? 0.0 : rng.Uniform(1, 300);   // 0: write-only
    w.write_rate = i == 1 ? 0.0 : rng.Uniform(1, 80);   // 1: read-only
    w.read_size = sizes[rng.UniformInt(uint64_t{4})];
    w.write_size = sizes[rng.UniformInt(uint64_t{4})];
    // Long runs put the split/capped boundary at fractions the walk
    // visits; short ones keep the run intact.
    w.run_count = i % 3 == 0 ? rng.Uniform(1, 4) : rng.Uniform(8, 120);
    std::vector<double> row(static_cast<size_t>(kN), 0.0);
    if (i == 2) {
      // No partners and no self-overlap: χ = 0 whenever present.
    } else if (i == 3) {
      // Every partner at full overlap: χ runs past the axis end.
      for (int k = 0; k < kN; ++k) row[static_cast<size_t>(k)] = 1.0;
      row[static_cast<size_t>(i)] = 3.0;
    } else {
      for (int k = 0; k < kN; ++k) {
        row[static_cast<size_t>(k)] =
            k == i ? rng.Uniform(0, 2)
                   : (rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0, 1));
      }
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  ASSERT_TRUE(ValidateWorkloadSet(ws).ok());
  const std::vector<TargetModelInfo> infos = {
      {&cm, 2, 64 * kKiB, RaidLevel::kRaid1},
      {&cm, 4, 64 * kKiB, RaidLevel::kRaid5},
      {&cm, 3, 64 * kKiB, RaidLevel::kRaid0}};
  const int m = static_cast<int>(infos.size());
  TargetModel tm(infos, LvmLayoutModel(static_cast<int64_t>(kStripe)));
  const LvmLayoutModel& lm = tm.layout_model();

  std::vector<std::unique_ptr<ColumnEvaluator>> live;
  for (int j = 0; j < m; ++j) live.push_back(tm.MakeColumnEvaluator(ws, j));
  int64_t fresh_queries = 0;

  auto random_row = [&](double* row) {
    double sum = 0.0;
    for (int j = 0; j < m; ++j) {
      row[j] = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.001, 1);
      sum += row[j];
    }
    if (sum == 0.0) {
      row[rng.UniformInt(static_cast<uint64_t>(m))] = 1.0;
      sum = 1.0;
    }
    for (int j = 0; j < m; ++j) row[j] /= sum;
  };
  Layout layout(kN, m);
  for (int i = 0; i < kN; ++i) random_row(layout.Row(i));

  // Coverage of the walk, counted per (object, column).
  int reentries = 0, branch_switches = 0, chi_at_zero = 0, chi_past_end = 0;
  int zero_read_present = 0, zero_write_present = 0;
  std::vector<int> phase(static_cast<size_t>(kN * m), 0);  // 0,1,2,3: a→p→a→p
  Layout previous = layout;
  std::vector<double> grad_live(kN), grad_fresh(kN);
  for (int step = 0; step < 400; ++step) {
    if (step > 0) {
      // Re-draw one to three rows; the rest keep their fractions.
      const int moves = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
      for (int r = 0; r < moves; ++r) {
        random_row(layout.Row(
            static_cast<int>(rng.UniformInt(static_cast<uint64_t>(kN)))));
      }
    }
    for (int j = 0; j < m; ++j) {
      double rates[kN];
      for (int i = 0; i < kN; ++i) {
        rates[i] = lm.Transform(ws[static_cast<size_t>(i)], layout.At(i, j))
                       .total_rate();
      }
      for (int i = 0; i < kN; ++i) {
        const WorkloadDesc& w = ws[static_cast<size_t>(i)];
        const double f = layout.At(i, j);
        int& ph = phase[static_cast<size_t>(i * m + j)];
        if ((f > 0.0) == (ph % 2 == 0)) ++ph;  // absent ↔ present
        if (ph == 3 && f > 0.0) ++reentries, ph = 1;
        if (f <= 0.0) continue;
        zero_read_present += w.read_rate == 0.0;
        zero_write_present += w.write_rate == 0.0;
        const double f0 = previous.At(i, j);
        if (step > 0 && f0 > 0.0 &&
            SplitRunBranch(w, f0, kStripe) != SplitRunBranch(w, f, kStripe)) {
          ++branch_switches;
        }
        double interfering = 0.0;
        for (int k = 0; k < kN; ++k) {
          if (k != i) interfering += rates[k] * w.overlap_with(k);
        }
        const double chi = interfering / rates[i] + w.overlap_with(i);
        chi_at_zero += chi == 0.0;
        chi_past_end += chi > 4.0;
      }

      const double v_live =
          live[static_cast<size_t>(j)]->EvaluateWithGradient(
              layout, grad_live.data());
      auto fresh = tm.MakeColumnEvaluator(ws, j);
      const double v_fresh =
          fresh->EvaluateWithGradient(layout, grad_fresh.data());
      fresh_queries += fresh->interp_queries();
      ASSERT_EQ(Bits(v_live), Bits(v_fresh)) << "step " << step << " j " << j;
      for (int i = 0; i < kN; ++i) {
        ASSERT_EQ(Bits(grad_live[static_cast<size_t>(i)]),
                  Bits(grad_fresh[static_cast<size_t>(i)]))
            << "step " << step << " j " << j << " i " << i;
      }
    }
    previous = layout;
  }
  EXPECT_GT(reentries, 20);
  EXPECT_GT(branch_switches, 20);
  EXPECT_GT(chi_at_zero, 20);
  EXPECT_GT(chi_past_end, 20);
  EXPECT_GT(zero_read_present, 20);
  EXPECT_GT(zero_write_present, 20);
  int64_t live_queries = 0;
  for (const auto& ctx : live) live_queries += ctx->interp_queries();
  EXPECT_GT(live_queries, 0);
  EXPECT_LT(live_queries, fresh_queries);
}

TEST(ColumnKernelTest, AbsentObjectGradientIsTheTinyFractionLimit) {
  // ∂µ_j/∂L_ij of an object absent from column j is the limit of the
  // gradient at a tiny positive fraction. With nothing interfering, both
  // price the same lookups, so they are equal bit for bit when the kernel
  // prices the absent object at Transform's run count.
  const CostModel cm = MakeKernelCostModel();
  TargetModel tm({{&cm, 1, 64 * kKiB}, {&cm, 1, 64 * kKiB}},
                 LvmLayoutModel(64 * kKiB));
  WorkloadDesc w = StripeBoundaryWorkload();
  SetFullOverlapRow(&w, {0.0});
  const WorkloadSet ws{w};
  Layout absent(1, 2);
  absent.Set(0, 1, 1.0);
  Layout tiny(1, 2);
  tiny.Set(0, 0, 1e-12);
  tiny.Set(0, 1, 1.0 - 1e-12);
  double g_absent = 0.0;
  double g_tiny = 0.0;
  EXPECT_EQ(tm.MakeColumnEvaluator(ws, 0)->EvaluateWithGradient(absent,
                                                                &g_absent),
            0.0);
  tm.MakeColumnEvaluator(ws, 0)->EvaluateWithGradient(tiny, &g_tiny);
  EXPECT_GT(g_absent, 0.0);
  EXPECT_EQ(Bits(g_absent), Bits(g_tiny));
}

// ------------------------------------- full row ≡ zero-trimmed row

/// Tenant-structured workloads with genuinely sparse co-access: full rows
/// whose off-diagonals are mostly exact zeros.
std::vector<std::vector<double>> MakeTenantRows(int n, Rng* rng,
                                                WorkloadSet* ws) {
  constexpr int kTenantSize = 6;
  ws->assign(static_cast<size_t>(n), WorkloadDesc{});
  std::vector<std::vector<double>> rows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = (*ws)[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 150);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 25);
    w.write_size = 8 * kKiB;
    w.run_count = rng->Uniform(1, 60);
    std::vector<double>& row = rows[static_cast<size_t>(i)];
    row.assign(static_cast<size_t>(n), 0.0);
    const int lo = (i / kTenantSize) * kTenantSize;
    const int hi = std::min(n, lo + kTenantSize);
    for (int k = lo; k < hi; ++k) {
      if (k != i) row[static_cast<size_t>(k)] = rng->Uniform(0.05, 0.8);
    }
    row[static_cast<size_t>(i)] = rng->Uniform(0, 1.5);
    // One weak cross-tenant link now and then.
    if (rng->Uniform() < 0.5) {
      const int k = static_cast<int>(
          rng->UniformInt(int64_t{0}, static_cast<int64_t>(n) - 1));
      if (k != i) row[static_cast<size_t>(k)] = rng->Uniform(0.01, 0.1);
    }
  }
  return rows;
}

Layout RandomSimplexLayout(int n, int m, Rng* rng) {
  Layout layout(n, m);
  for (int i = 0; i < n; ++i) {
    double* row = layout.Row(i);
    for (int j = 0; j < m; ++j) row[j] = rng->Uniform(0.01, 1);
    if (rng->Uniform() < 0.4) {
      row[rng->UniformInt(static_cast<uint64_t>(m))] = 0.0;
    }
    double sum = 0.0;
    for (int j = 0; j < m; ++j) sum += row[j];
    for (int j = 0; j < m; ++j) row[j] /= sum;
  }
  return layout;
}

/// The same workloads with every overlap row stored in full ("dense") and
/// zero-trimmed ("sparse"). Dropping exact-zero terms only reassociates
/// the sums, so every evaluation path must agree to 1e-12 relative.
class SparseDenseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cost_ = std::make_unique<CostModel>(MakeKernelCostModel());
    Rng rng(91);
    const auto rows = MakeTenantRows(kN, &rng, &dense_);
    sparse_ = dense_;
    for (size_t i = 0; i < rows.size(); ++i) {
      SetFullOverlapRow(&dense_[i], rows[i]);
      SetOverlapRow(&sparse_[i], i, rows[i]);
      ASSERT_LT(sparse_[i].overlap_index.size(), rows.size());
    }
    ASSERT_TRUE(ValidateWorkloadSet(dense_).ok());
    ASSERT_TRUE(ValidateWorkloadSet(sparse_).ok());
    std::vector<TargetModelInfo> infos(
        static_cast<size_t>(kM), TargetModelInfo{cost_.get(), 1, 64 * kKiB});
    model_ = std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
  }

  static void ExpectClose(double s, double d, const char* what) {
    EXPECT_NEAR(s, d, 1e-12 * std::max(1.0, std::fabs(d))) << what;
  }

  static constexpr int kN = 24;
  static constexpr int kM = 4;
  std::unique_ptr<CostModel> cost_;
  std::unique_ptr<TargetModel> model_;
  WorkloadSet dense_;
  WorkloadSet sparse_;
};

TEST_F(SparseDenseTest, ScalarUtilizationMatches) {
  Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    const Layout layout = RandomSimplexLayout(kN, kM, &rng);
    for (int j = 0; j < kM; ++j) {
      ExpectClose(model_->TargetUtilization(sparse_, layout, j),
                  model_->TargetUtilization(dense_, layout, j), "mu_j");
    }
  }
}

TEST_F(SparseDenseTest, UtilizationsAndMuMatrixMatch) {
  Rng rng(18);
  const Layout layout = RandomSimplexLayout(kN, kM, &rng);
  std::vector<double> mu_ij_d, mu_ij_s;
  const std::vector<double> mu_d =
      model_->Utilizations(dense_, layout, &mu_ij_d);
  const std::vector<double> mu_s =
      model_->Utilizations(sparse_, layout, &mu_ij_s);
  ASSERT_EQ(mu_d.size(), mu_s.size());
  for (size_t j = 0; j < mu_d.size(); ++j) ExpectClose(mu_s[j], mu_d[j], "mu_j");
  ASSERT_EQ(mu_ij_d.size(), mu_ij_s.size());
  for (size_t e = 0; e < mu_ij_d.size(); ++e) {
    ExpectClose(mu_ij_s[e], mu_ij_d[e], "mu_ij");
  }
}

TEST_F(SparseDenseTest, BatchedEvaluateAndGradientMatch) {
  Rng rng(19);
  std::vector<double> grad_d(kN), grad_s(kN);
  for (int trial = 0; trial < 4; ++trial) {
    const Layout layout = RandomSimplexLayout(kN, kM, &rng);
    for (int j = 0; j < kM; ++j) {
      auto ctx_d = model_->MakeColumnEvaluator(dense_, j);
      auto ctx_s = model_->MakeColumnEvaluator(sparse_, j);
      ExpectClose(ctx_s->EvaluateWithGradient(layout, grad_s.data()),
                  ctx_d->EvaluateWithGradient(layout, grad_d.data()), "mu_j");
      for (size_t i = 0; i < grad_d.size(); ++i) {
        ExpectClose(grad_s[i], grad_d[i], "gradient");
      }
    }
  }
}

}  // namespace
}  // namespace ldb
