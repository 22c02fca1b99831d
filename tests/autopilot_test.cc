#include "core/autopilot.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "model/layout.h"
#include "storage/fault.h"
#include "util/check.h"
#include "workload/catalog.h"
#include "workload/spec.h"

namespace ldb {
namespace {

constexpr double kScale = 0.02;

// Three identical disks so a skewed deployment leaves one idle and a
// re-advise has an obvious improvement to find.
const ExperimentRig& TriRig() {
  static const ExperimentRig* rig = [] {
    auto r = ExperimentRig::Create(Catalog::TpcC(kScale),
                                   {{"d0"}, {"d1"}, {"d2"}}, kScale, 3);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();
  return *rig;
}

Result<OltpSpec> Oltp() { return MakeOltpSpec(TriRig().catalog()); }

// A reference the live OLTP window cannot resemble: every object idles at
// a token 1 req/s of 8 KiB reads. Guarantees a large drift score for the
// trip-driven tests; irrelevant when tripping is disabled.
WorkloadSet TokenReference(int n) {
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = 1.0;
    w.read_size = 8 * 1024;
    w.run_count = 1.0;
    w.overlap_index = {i};
    w.overlap_value = {0.0};
  }
  return ws;
}

// Everything piled on d0/d1; d2 idle.
Layout PairedLayout(int n) {
  Layout l(n, 3);
  for (int i = 0; i < n; ++i) l.Set(i, i % 2, 1.0);
  return l;
}

bool SameLayout(const Layout& a, const Layout& b) {
  if (a.num_objects() != b.num_objects()) return false;
  for (int i = 0; i < a.num_objects(); ++i) {
    if (a.TargetsOf(i) != b.TargetsOf(i)) return false;
  }
  return true;
}

// Fast-reacting monitor for the trip-driven tests: short window, one
// evaluation trips, permissive gate unless a test overrides it.
AutopilotOptions DriftingOptions() {
  AutopilotOptions o;
  o.config.analyzer.half_life_s = 10.0;
  o.config.check_interval_s = 1.0;
  o.config.drift.threshold = 0.3;
  o.config.drift.trip_evaluations = 1;
  o.config.drift.cooldown_s = 5.0;
  o.config.gate_min_gain = 0.0;
  o.config.gate_horizon_s = 1e9;
  o.config.gate_fallback_bandwidth = 1e12;
  return o;
}

void ExpectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.olap_queries_completed, b.olap_queries_completed);
  EXPECT_EQ(a.oltp_transactions, b.oltp_transactions);
  EXPECT_DOUBLE_EQ(a.tpm, b.tpm);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (size_t j = 0; j < a.utilization.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.utilization[j], b.utilization[j]);
  }
}

// Satellite (d): with drift disabled the autopilot is a pure observer —
// the run must be bit-for-bit the plain Execute of the same layout.
TEST(AutopilotTest, InfiniteThresholdIsBitIdenticalToExecute) {
  const ExperimentRig& rig = TriRig();
  auto oltp = Oltp();
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const Layout see = Layout::StripeEverythingEverywhere(n, 3);

  auto base = rig.Execute(see, nullptr, &*oltp, 20.0);
  ASSERT_TRUE(base.ok());

  AutopilotOptions options = DriftingOptions();
  options.config.drift.threshold = std::numeric_limits<double>::infinity();
  auto ap = rig.ExecuteWithAutopilot(see, TokenReference(n), nullptr, &*oltp,
                                     FaultPlan{}, options, 20.0);
  ASSERT_TRUE(ap.ok());

  ExpectSameRun(base.value(), ap->run);
  EXPECT_TRUE(ap->decisions.empty());
  EXPECT_EQ(ap->migrations_started, 0);
  EXPECT_EQ(ap->migrations_suppressed, 0);
  EXPECT_EQ(ap->bytes_copied, 0);
  EXPECT_TRUE(SameLayout(ap->final_layout, see));
  // The sensor still watched the whole run.
  EXPECT_GT(ap->ticks, 0u);
  EXPECT_GT(ap->monitor_events, 0u);
  EXPECT_GT(ap->fg_requests, 0u);
}

// Faults compose on the same system: a disabled autopilot over a faulty
// run must reproduce ExecuteWithFaults exactly.
TEST(AutopilotTest, InfiniteThresholdComposesWithFaults) {
  const ExperimentRig& rig = TriRig();
  auto oltp = Oltp();
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const Layout see = Layout::StripeEverythingEverywhere(n, 3);
  auto plan = ParseFaultPlan("t=5,target=1,kind=limp,scale=4,duration=5");
  ASSERT_TRUE(plan.ok());

  auto base = rig.ExecuteWithFaults(see, nullptr, &*oltp, *plan, 20.0);
  ASSERT_TRUE(base.ok());

  AutopilotOptions options = DriftingOptions();
  options.config.drift.threshold = std::numeric_limits<double>::infinity();
  auto ap = rig.ExecuteWithAutopilot(see, TokenReference(n), nullptr, &*oltp,
                                     *plan, options, 20.0);
  ASSERT_TRUE(ap.ok());

  ExpectSameRun(base.value(), ap->run);
  EXPECT_EQ(base->faults.faults_injected, ap->run.faults.faults_injected);
  EXPECT_DOUBLE_EQ(base->faults.degraded_time, ap->run.faults.degraded_time);
  EXPECT_EQ(ap->migrations_started, 0);
}

// The cost-benefit gate suppresses a migration whose projected gain can
// never clear the bar, and the deployed layout survives untouched.
TEST(AutopilotTest, GateSuppressesAnUnprofitableMigration) {
  const ExperimentRig& rig = TriRig();
  auto oltp = Oltp();
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const Layout paired = PairedLayout(n);

  AutopilotOptions options = DriftingOptions();
  options.config.drift.cooldown_s = 8.0;
  options.config.gate_min_gain = 0.9;  // no re-layout can gain 0.9 max-util
  auto ap = rig.ExecuteWithAutopilot(paired, TokenReference(n), nullptr,
                                     &*oltp, FaultPlan{}, options, 30.0);
  ASSERT_TRUE(ap.ok());

  ASSERT_FALSE(ap->decisions.empty());
  EXPECT_GE(ap->migrations_suppressed, 1);
  EXPECT_EQ(ap->migrations_started, 0);
  EXPECT_EQ(ap->bytes_copied, 0);
  EXPECT_TRUE(SameLayout(ap->final_layout, paired));
  for (const AutopilotDecision& d : ap->decisions) {
    EXPECT_FALSE(d.gate_passed);
    EXPECT_FALSE(d.started);
    EXPECT_FALSE(d.note.empty());
    EXPECT_GT(d.score, options.config.drift.threshold);
  }
}

// End to end: the live window departs from the reference, the detector
// trips, the re-advise spreads load onto the idle disk, the gate passes,
// and the migration runs to adoption while the workload keeps going.
TEST(AutopilotTest, DriftTripMigratesAndAdopts) {
  const ExperimentRig& rig = TriRig();
  auto oltp = Oltp();
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const Layout paired = PairedLayout(n);

  auto ap = rig.ExecuteWithAutopilot(paired, TokenReference(n), nullptr,
                                     &*oltp, FaultPlan{}, DriftingOptions(),
                                     40.0);
  ASSERT_TRUE(ap.ok());

  ASSERT_FALSE(ap->decisions.empty());
  EXPECT_GE(ap->migrations_started, 1);
  EXPECT_GE(ap->migrations_completed, 1);
  EXPECT_EQ(ap->migrations_rolled_back, 0);
  EXPECT_EQ(ap->migrations_aborted, 0);
  EXPECT_GT(ap->bytes_copied, 0);
  EXPECT_FALSE(SameLayout(ap->final_layout, paired));
  EXPECT_TRUE(ap->final_layout.IsRegular());
  EXPECT_GT(ap->run.oltp_transactions, 0u);
  const AutopilotDecision& first = ap->decisions.front();
  EXPECT_TRUE(first.gate_passed);
  EXPECT_TRUE(first.started);
  EXPECT_GT(first.migration_bytes, 0.0);
}

// The re-advise inside the loop is the only threaded component, and the
// solver is bit-identical across thread counts — so the whole closed-loop
// run must be too. Fingerprint digests run metrics, every decision, and
// the final layout. This is the end-to-end thread-invariance check for
// the solver's fused column kernels (threading_test.cc has the
// solver-level one).
TEST(AutopilotTest, ReportIsBitIdenticalAcrossSolverThreadCounts) {
  const ExperimentRig& rig = TriRig();
  auto oltp = Oltp();
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const Layout paired = PairedLayout(n);

  std::vector<std::string> prints;
  for (int threads : {1, 2, 8}) {
    AutopilotOptions options = DriftingOptions();
    options.advisor.solver.num_threads = threads;
    auto ap = rig.ExecuteWithAutopilot(paired, TokenReference(n), nullptr,
                                       &*oltp, FaultPlan{}, options, 40.0);
    ASSERT_TRUE(ap.ok()) << "threads=" << threads;
    ASSERT_FALSE(ap->decisions.empty()) << "threads=" << threads;
    prints.push_back(ap->Fingerprint());
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
}

}  // namespace
}  // namespace ldb
