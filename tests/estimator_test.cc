#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/harness.h"
#include "workload/catalog.h"
#include "workload/estimator.h"
#include "workload/spec.h"

namespace ldb {
namespace {

TEST(EstimatorTest, RejectsBadInputs) {
  Catalog cat = Catalog::TpcH(0.05);
  EXPECT_FALSE(EstimateWorkloads(cat, nullptr, nullptr).ok());
  OlapSpec empty;
  EXPECT_FALSE(EstimateWorkloads(cat, &empty, nullptr).ok());
}

TEST(EstimatorTest, ProducesValidWorkloads) {
  Catalog cat = Catalog::TpcH(0.05);
  auto olap = MakeOlapSpec(cat, 3, 1, 7);
  ASSERT_TRUE(olap.ok());
  auto ws = EstimateWorkloads(cat, &*olap, nullptr);
  ASSERT_TRUE(ws.ok());
  ASSERT_EQ(ws->size(), static_cast<size_t>(cat.num_objects()));
  for (size_t i = 0; i < ws->size(); ++i) {
    EXPECT_TRUE(IsValidWorkload((*ws)[i], ws->size(), i));
  }
}

TEST(EstimatorTest, RateOrderingMatchesVolumeOrdering) {
  Catalog cat = Catalog::TpcH(0.05);
  auto olap = MakeOlapSpec(cat, 3, 1, 7);
  ASSERT_TRUE(olap.ok());
  auto ws = EstimateWorkloads(cat, &*olap, nullptr);
  ASSERT_TRUE(ws.ok());
  auto rate = [&](const char* name) {
    return (*ws)[static_cast<size_t>(*cat.Find(name))].total_rate();
  };
  EXPECT_GT(rate("LINEITEM"), rate("ORDERS"));
  EXPECT_GT(rate("ORDERS"), rate("PARTSUPP"));
  EXPECT_GT(rate("LINEITEM"), 0.0);
  // NATION never appears in the profiles.
  EXPECT_DOUBLE_EQ(rate("NATION"), 0.0);
}

TEST(EstimatorTest, SequentialScansGetHighRunCounts) {
  Catalog cat = Catalog::TpcH(0.05);
  auto olap = MakeOlapSpec(cat, 3, 1, 7);
  ASSERT_TRUE(olap.ok());
  auto ws = EstimateWorkloads(cat, &*olap, nullptr);
  ASSERT_TRUE(ws.ok());
  const double li_run =
      (*ws)[static_cast<size_t>(*cat.Find("LINEITEM"))].run_count;
  EXPECT_GT(li_run, 20.0);
  // ORDERS_PKEY is dominated by random probes.
  const double pkey_run =
      (*ws)[static_cast<size_t>(*cat.Find("ORDERS_PKEY"))].run_count;
  EXPECT_LT(pkey_run, li_run / 4);
}

TEST(EstimatorTest, CoScannedObjectsOverlap) {
  Catalog cat = Catalog::TpcH(0.05);
  auto olap = MakeOlapSpec(cat, 3, 1, 7);
  ASSERT_TRUE(olap.ok());
  auto ws = EstimateWorkloads(cat, &*olap, nullptr);
  ASSERT_TRUE(ws.ok());
  const ObjectId li = *cat.Find("LINEITEM");
  const ObjectId ord = *cat.Find("ORDERS");
  const ObjectId nation = *cat.Find("NATION");
  // LINEITEM and ORDERS are joined in many queries.
  EXPECT_GT(
      (*ws)[static_cast<size_t>(ord)].overlap_with(static_cast<size_t>(li)),
      0.5);
  EXPECT_DOUBLE_EQ(
      (*ws)[static_cast<size_t>(li)].overlap_with(static_cast<size_t>(nation)),
      0.0);
  // At concurrency 1, no self-overlap.
  EXPECT_DOUBLE_EQ(
      (*ws)[static_cast<size_t>(li)].overlap_with(static_cast<size_t>(li)),
      0.0);
}

TEST(EstimatorTest, ConcurrencyRaisesOverlapAndSelfOverlap) {
  Catalog cat = Catalog::TpcH(0.05);
  auto olap1 = MakeOlapSpec(cat, 3, 1, 7);
  auto olap8 = MakeOlapSpec(cat, 3, 8, 7);
  ASSERT_TRUE(olap1.ok());
  ASSERT_TRUE(olap8.ok());
  auto ws1 = EstimateWorkloads(cat, &*olap1, nullptr);
  auto ws8 = EstimateWorkloads(cat, &*olap8, nullptr);
  ASSERT_TRUE(ws1.ok());
  ASSERT_TRUE(ws8.ok());
  const size_t li = static_cast<size_t>(*cat.Find("LINEITEM"));
  const size_t part = static_cast<size_t>(*cat.Find("PART"));
  EXPECT_GT((*ws8)[li].overlap_with(li), (*ws1)[li].overlap_with(li));
  EXPECT_GE((*ws8)[part].overlap_with(li), (*ws1)[part].overlap_with(li));
}

TEST(EstimatorTest, OltpSpecSupported) {
  Catalog cat = Catalog::TpcC(0.05);
  auto oltp = MakeOltpSpec(cat, "", 9, 0.0);
  ASSERT_TRUE(oltp.ok());
  auto ws = EstimateWorkloads(cat, nullptr, &*oltp);
  ASSERT_TRUE(ws.ok());
  const size_t stock = static_cast<size_t>(*cat.Find("STOCK"));
  const size_t log = static_cast<size_t>(*cat.Find("XactionLOG"));
  EXPECT_GT((*ws)[stock].total_rate(), 0.0);
  EXPECT_GT((*ws)[stock].write_rate, 0.0);
  // The log is written, never read, and purely sequential.
  EXPECT_DOUBLE_EQ((*ws)[log].read_rate, 0.0);
  EXPECT_GT((*ws)[log].write_rate, 0.0);
  EXPECT_GT((*ws)[log].run_count, 10.0);
}

TEST(EstimatorTest, EstimatorDrivenAdvisorStillBeatsSeeEndToEnd) {
  // The paper's claim: estimator input is convenient but less accurate.
  // The estimator-driven layout should still beat SEE, though generally by
  // less than the trace-driven one.
  const double scale = 0.03;
  auto rig = ExperimentRig::Create(Catalog::TpcH(scale),
                                   {{"d0"}, {"d1"}, {"d2"}, {"d3"}}, scale,
                                   7);
  ASSERT_TRUE(rig.ok());
  auto olap = MakeOlapSpec(rig->catalog(), 3, 1, 7);
  ASSERT_TRUE(olap.ok());
  auto ws = EstimateWorkloads(rig->catalog(), &*olap, nullptr);
  ASSERT_TRUE(ws.ok());
  auto problem = rig->MakeProblem(std::move(ws).value());
  ASSERT_TRUE(problem.ok());
  LayoutAdvisor advisor;
  auto rec = advisor.Recommend(*problem);
  ASSERT_TRUE(rec.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), 4);
  auto see_run = rig->Execute(see, &*olap, nullptr);
  auto opt_run = rig->Execute(rec->final_layout, &*olap, nullptr);
  ASSERT_TRUE(see_run.ok());
  ASSERT_TRUE(opt_run.ok());
  EXPECT_GT(see_run->elapsed_seconds / opt_run->elapsed_seconds, 1.02);
}

}  // namespace
}  // namespace ldb
