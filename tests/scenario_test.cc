#include "scenario/scenario.h"

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "model/layout.h"
#include "model/workload.h"
#include "scenario/player.h"
#include "scenario/sim.h"
#include "storage/fault.h"
#include "util/check.h"
#include "workload/catalog.h"

namespace ldb {
namespace {

// ---------------------------------------------------------------------------
// Grammar

const char kFullSpec[] =
    "duration=120;seed=7;"
    "tenant=oltp,objects=0:5,rate=20,bytes=8192,write=0.3,runs=4;"
    "tenant=batch,objects=5:9,rate=5,arrive=30,depart=90;"
    "phase=oltp,start=10,end=40,x=3;"
    "flash=oltp,at=50,for=5,x=50;"
    "graph=batch,communities=2,coaccess=0.6,rewire=20,burst=2;"
    "drift=oltp,start=60,end=110,x=1.4";

TEST(ScenarioSpecTest, ParsesTheFullGrammar) {
  auto spec = ParseScenarioSpec(kFullSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->duration_s, 120.0);
  EXPECT_EQ(spec->seed, 7u);
  ASSERT_EQ(spec->tenants.size(), 2u);
  EXPECT_EQ(spec->tenants[0].name, "oltp");
  EXPECT_EQ(spec->tenants[0].first_object, 0);
  EXPECT_EQ(spec->tenants[0].count, 5);
  EXPECT_DOUBLE_EQ(spec->tenants[0].rate, 20.0);
  EXPECT_EQ(spec->tenants[0].request_bytes, 8192);
  EXPECT_DOUBLE_EQ(spec->tenants[0].write_fraction, 0.3);
  EXPECT_DOUBLE_EQ(spec->tenants[0].run_length, 4.0);
  EXPECT_DOUBLE_EQ(spec->tenants[1].arrive_s, 30.0);
  EXPECT_DOUBLE_EQ(spec->tenants[1].depart_s, 90.0);
  // flash= is sugar for a phase window.
  ASSERT_EQ(spec->phases.size(), 2u);
  EXPECT_DOUBLE_EQ(spec->phases[1].start_s, 50.0);
  EXPECT_DOUBLE_EQ(spec->phases[1].end_s, 55.0);
  EXPECT_DOUBLE_EQ(spec->phases[1].multiplier, 50.0);
  ASSERT_EQ(spec->graphs.size(), 1u);
  EXPECT_EQ(spec->graphs[0].tenant, 1);
  ASSERT_EQ(spec->drifts.size(), 1u);
  EXPECT_DOUBLE_EQ(spec->drifts[0].multiplier, 1.4);
}

TEST(ScenarioSpecTest, RoundTripsThroughToString) {
  auto spec = ParseScenarioSpec(kFullSpec);
  ASSERT_TRUE(spec.ok());
  const std::string text = ScenarioToString(*spec);
  auto again = ParseScenarioSpec(text);
  ASSERT_TRUE(again.ok()) << text << ": " << again.status().ToString();
  EXPECT_EQ(ScenarioToString(*again), text);
}

TEST(ScenarioSpecTest, ErrorsAreClauseIndexed) {
  // Clause 2 (1-based): bad rate.
  auto r = ParseScenarioSpec("duration=10;tenant=a,objects=0:2,rate=frog");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("scenario spec clause 2"),
            std::string::npos)
      << r.status().ToString();

  // Clause 3: phase referencing an undeclared tenant.
  r = ParseScenarioSpec(
      "duration=10;tenant=a,objects=0:2,rate=1;"
      "phase=ghost,start=0,end=5,x=2");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("scenario spec clause 3"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("unknown tenant 'ghost'"),
            std::string::npos);

  // Missing duration is the one spec-level (not clause-level) error.
  r = ParseScenarioSpec("tenant=a,objects=0:2,rate=1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing duration"), std::string::npos);

  // Numbers too large for their field are rejected with the clause, not
  // clamped to INT64_MAX.
  r = ParseScenarioSpec("duration=10;seed=99999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("scenario spec clause 2"),
            std::string::npos)
      << r.status().ToString();
  r = ParseScenarioSpec(
      "duration=10;tenant=a,objects=0:2,rate=1,bytes=99999999999999999999");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("scenario spec clause 2"),
            std::string::npos)
      << r.status().ToString();
  r = ParseScenarioSpec("duration=10;tenant=a,objects=0:4294967297,rate=1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("scenario spec clause 2"),
            std::string::npos)
      << r.status().ToString();
  r = ParseScenarioSpec("duration=nan;tenant=a,objects=0:2,rate=1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("scenario spec clause 1"),
            std::string::npos)
      << r.status().ToString();

  // Validation failures carry the clause of the offending tenant.
  r = ParseScenarioSpec("duration=10;tenant=a,objects=4:2,rate=1");
  ASSERT_FALSE(r.ok());
}

TEST(ScenarioSpecTest, ValidateChecksObjectRanges) {
  auto spec = ParseScenarioSpec("duration=10;tenant=a,objects=0:8,rate=1");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->Validate(8).ok());
  EXPECT_FALSE(spec->Validate(6).ok());
}

TEST(ScenarioSpecTest, RateMultiplierComposesWindows) {
  auto spec = ParseScenarioSpec(
      "duration=100;"
      "tenant=a,objects=0:2,rate=1,arrive=10,depart=90;"
      "phase=a,start=20,end=30,x=3;"
      "phase=a,start=25,end=40,x=2;"
      "drift=a,start=50,end=70,x=4");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 5.0), 0.0);   // not arrived
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 15.0), 1.0);  // plain
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 22.0), 3.0);  // one phase
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 27.0), 6.0);  // overlapping
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 35.0), 2.0);
  // Geometric drift ramp: halfway in log space at the midpoint, plateau
  // after the end.
  EXPECT_NEAR(TenantRateMultiplier(*spec, 0, 60.0), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 80.0), 4.0);  // plateau
  EXPECT_DOUBLE_EQ(TenantRateMultiplier(*spec, 0, 95.0), 0.0);  // departed
}

// ---------------------------------------------------------------------------
// Interaction graph

TEST(InteractionGraphTest, PartitionsAndRewiresDeterministically) {
  auto spec = ParseScenarioSpec(
      "duration=60;tenant=g,objects=2:14,rate=1;"
      "graph=g,communities=3,coaccess=0.5,rewire=20,burst=2");
  ASSERT_TRUE(spec.ok());
  InteractionGraph graph(*spec);
  InteractionGraph graph2(*spec);

  EXPECT_EQ(graph.GraphOf(0), -1);
  EXPECT_EQ(graph.GraphOf(2), 0);
  EXPECT_EQ(graph.GraphOf(13), 0);
  EXPECT_EQ(graph.GraphOf(14), -1);

  for (double t : {0.0, 25.0, 45.0}) {
    // Communities partition the tenant's objects.
    std::set<int> seen;
    for (int o = 2; o < 14; ++o) {
      const std::vector<int>& c = graph.Community(o, t);
      EXPECT_FALSE(c.empty());
      // The member lists are consistent: every member maps back to the
      // same community.
      for (int m : c) {
        EXPECT_EQ(graph.Community(m, t), c);
        seen.insert(m);
      }
      // Identical construction — the player and the timeline agree.
      EXPECT_EQ(graph2.Community(o, t), c);
    }
    EXPECT_EQ(seen.size(), 12u);
  }
  // Rewiring actually changes the partition between epochs.
  bool changed = false;
  for (int o = 2; o < 14 && !changed; ++o) {
    changed = graph.Community(o, 0.0) != graph.Community(o, 25.0);
  }
  EXPECT_TRUE(changed);
}

// ---------------------------------------------------------------------------
// Analytic timeline

TEST(ScenarioTimelineTest, SegmentsTileTheDurationWithValidCsr) {
  auto spec = ParseScenarioSpec(kFullSpec);
  ASSERT_TRUE(spec.ok());
  const int n = 9;
  auto segments = BuildTimeline(*spec, n);
  ASSERT_FALSE(segments.empty());
  EXPECT_DOUBLE_EQ(segments.front().start_s, 0.0);
  EXPECT_DOUBLE_EQ(segments.back().end_s, spec->duration_s);
  for (size_t s = 0; s < segments.size(); ++s) {
    EXPECT_LT(segments[s].start_s, segments[s].end_s);
    if (s > 0) {
      EXPECT_DOUBLE_EQ(segments[s].start_s, segments[s - 1].end_s);
    }
    ASSERT_EQ(segments[s].workloads.size(), static_cast<size_t>(n));
    // The emitted overlap rows are in the sparse CSR form and valid.
    EXPECT_TRUE(ValidateWorkloadSet(segments[s].workloads).ok())
        << "segment " << s;
  }
  // Before the batch tenant arrives its rows idle at zero; afterwards
  // they carry the graph's co-access overlap.
  const WorkloadSet& first = segments.front().workloads;
  EXPECT_DOUBLE_EQ(first[5].read_rate + first[5].write_rate, 0.0);
  bool batch_active_somewhere = false;
  for (const auto& seg : segments) {
    if (seg.workloads[5].read_rate > 0.0) {
      batch_active_somewhere = true;
      EXPECT_GT(seg.workloads[5].overlap_with(6) +
                    seg.workloads[5].overlap_with(7) +
                    seg.workloads[5].overlap_with(8),
                0.0);
    }
  }
  EXPECT_TRUE(batch_active_somewhere);
}

// ---------------------------------------------------------------------------
// Player

constexpr int kObjects = 6;

const ExperimentRig& PlayerRig() {
  static const ExperimentRig* rig = [] {
    Catalog catalog;
    for (int i = 0; i < kObjects; ++i) {
      catalog.Add({"obj" + std::to_string(i), ObjectKind::kTable,
                   int64_t{24} * 1024 * 1024});
    }
    auto r = ExperimentRig::Create(std::move(catalog),
                                   {{"d0"}, {"d1"}, {"d2"}}, 1.0, 3);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();
  return *rig;
}

ScenarioSpec PlayerSpec() {
  auto spec = ParseScenarioSpec(
      "duration=8;seed=11;"
      "tenant=front,objects=0:3,rate=30,bytes=16384,write=0.2;"
      "tenant=back,objects=3:6,rate=10,arrive=2,depart=6;"
      "phase=front,start=3,end=5,x=4;"
      "graph=back,communities=2,coaccess=0.5,rewire=3,burst=2");
  LDB_CHECK(spec.ok());
  return std::move(spec).value();
}

Result<LayoutProblem> PlayerProblem() {
  const ExperimentRig& rig = PlayerRig();
  auto segments = BuildTimeline(PlayerSpec(), kObjects);
  LDB_CHECK(!segments.empty());
  return rig.MakeProblem(segments.front().workloads);
}

TEST(ScenarioPlayerTest, ReplaysBitIdentically) {
  const ExperimentRig& rig = PlayerRig();
  auto problem = PlayerProblem();
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  const ScenarioSpec spec = PlayerSpec();
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 3);

  std::string first;
  for (int rep = 0; rep < 2; ++rep) {
    auto system = rig.MakeSystem();
    auto out = PlayScenarioStatic(system.get(), *problem, see, spec,
                                  FaultPlan{});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GT(out->play.arrivals, 0u);
    EXPECT_GT(out->run.total_requests, 0u);
    if (rep == 0) {
      first = out->Fingerprint();
    } else {
      EXPECT_EQ(out->Fingerprint(), first);
    }
  }
}

TEST(ScenarioPlayerTest, ChurnAndPhasesShapeTheArrivals) {
  const ExperimentRig& rig = PlayerRig();
  auto problem = PlayerProblem();
  ASSERT_TRUE(problem.ok());
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 3);

  // Doubling a tenant's rate must increase submitted requests; a tenant
  // that never arrives contributes nothing.
  ScenarioSpec spec = PlayerSpec();
  auto system = rig.MakeSystem();
  auto base = PlayScenarioStatic(system.get(), *problem, see, spec,
                                 FaultPlan{});
  ASSERT_TRUE(base.ok());

  ScenarioSpec loud = spec;
  loud.tenants[0].rate *= 2.0;
  system = rig.MakeSystem();
  auto louder = PlayScenarioStatic(system.get(), *problem, see, loud,
                                   FaultPlan{});
  ASSERT_TRUE(louder.ok());
  EXPECT_GT(louder->play.requests, base->play.requests);

  ScenarioSpec solo = spec;
  solo.tenants[1].arrive_s = spec.duration_s;  // never active
  solo.tenants[1].depart_s = 0.0;              // (0 = scenario end)
  system = rig.MakeSystem();
  auto fewer = PlayScenarioStatic(system.get(), *problem, see, solo,
                                  FaultPlan{});
  ASSERT_TRUE(fewer.ok());
  EXPECT_LT(fewer->play.requests, base->play.requests);
}

// The player analog of InfiniteThresholdIsBitIdenticalToExecute: with
// drift disabled the autopilot is a pure observer, so the foreground half
// of the outcome must match the static play bit for bit.
TEST(ScenarioPlayerTest, StaticMatchesAutopilotWithDriftDisabled) {
  const ExperimentRig& rig = PlayerRig();
  auto problem = PlayerProblem();
  ASSERT_TRUE(problem.ok());
  const ScenarioSpec spec = PlayerSpec();
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 3);

  auto system = rig.MakeSystem();
  auto fixed = PlayScenarioStatic(system.get(), *problem, see, spec,
                                  FaultPlan{});
  ASSERT_TRUE(fixed.ok());

  AutopilotOptions options;
  options.config.check_interval_s = 1.0;
  options.config.drift.threshold = std::numeric_limits<double>::infinity();
  system = rig.MakeSystem();
  auto ap = PlayScenarioAutopilot(system.get(), *problem, see, spec,
                                  FaultPlan{}, options);
  ASSERT_TRUE(ap.ok()) << ap.status().ToString();

  EXPECT_EQ(ap->RunFingerprint(), fixed->RunFingerprint());
  EXPECT_TRUE(ap->autopilot.decisions.empty());
  EXPECT_GT(ap->autopilot.monitor_events, 0u);
}

// Whole-closed-loop determinism: the spec's promise is that a scenario
// replays bit-identically for any solver thread count, including the
// re-advises the autopilot runs mid-scenario.
TEST(ScenarioPlayerTest, AutopilotScenarioIsThreadCountInvariant) {
  const ExperimentRig& rig = PlayerRig();
  auto problem = PlayerProblem();
  ASSERT_TRUE(problem.ok());
  const ScenarioSpec spec = PlayerSpec();
  // Deploy everything on one target so a re-advise has an obvious win,
  // and trip aggressively so the solver actually runs mid-scenario.
  Layout skew(kObjects, 3);
  for (int i = 0; i < kObjects; ++i) skew.Set(i, 0, 1.0);

  std::string first;
  bool decided = false;
  for (int threads : {1, 2, 8}) {
    AutopilotOptions options;
    options.config.analyzer.half_life_s = 2.0;
    options.config.check_interval_s = 0.5;
    options.config.drift.threshold = 0.05;
    options.config.drift.trip_evaluations = 1;
    options.config.drift.cooldown_s = 2.0;
    options.config.gate_min_gain = 0.0;
    options.config.gate_horizon_s = 1e9;
    options.config.gate_fallback_bandwidth = 1e12;
    options.advisor.solver.num_threads = threads;
    auto system = rig.MakeSystem();
    auto out = PlayScenarioAutopilot(system.get(), *problem, skew, spec,
                                     FaultPlan{}, options);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    decided = decided || !out->autopilot.decisions.empty();
    if (first.empty()) {
      first = out->Fingerprint();
    } else {
      EXPECT_EQ(out->Fingerprint(), first) << "threads=" << threads;
    }
  }
  // The invariance claim is only interesting if the solver actually ran.
  EXPECT_TRUE(decided);
}

// Layout sampling is a pure read: requesting samples must not perturb the
// run, and times past the end record the final layout.
TEST(ScenarioPlayerTest, LayoutSamplingDoesNotPerturbTheRun) {
  const ExperimentRig& rig = PlayerRig();
  auto problem = PlayerProblem();
  ASSERT_TRUE(problem.ok());
  const ScenarioSpec spec = PlayerSpec();
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 3);

  AutopilotOptions options;
  options.config.check_interval_s = 1.0;
  options.config.drift.threshold = std::numeric_limits<double>::infinity();
  auto system = rig.MakeSystem();
  auto plain = PlayScenarioAutopilot(system.get(), *problem, see, spec,
                                     FaultPlan{}, options);
  ASSERT_TRUE(plain.ok());

  options.layout_sample_times = {2.0, 5.0, 1e9};
  system = rig.MakeSystem();
  auto sampled = PlayScenarioAutopilot(system.get(), *problem, see, spec,
                                       FaultPlan{}, options);
  ASSERT_TRUE(sampled.ok());

  EXPECT_EQ(sampled->RunFingerprint(), plain->RunFingerprint());
  ASSERT_EQ(sampled->autopilot.sampled_layouts.size(), 3u);
  EXPECT_DOUBLE_EQ(sampled->autopilot.sampled_layouts[0].time, 2.0);
  for (const auto& s : sampled->autopilot.sampled_layouts) {
    EXPECT_EQ(s.layout.num_objects(), kObjects);
  }
}

TEST(ScenarioPlayerTest, RejectsSpecsBeyondTheCatalog) {
  const ExperimentRig& rig = PlayerRig();
  auto problem = PlayerProblem();
  ASSERT_TRUE(problem.ok());
  auto spec = ParseScenarioSpec("duration=5;tenant=a,objects=0:99,rate=1");
  ASSERT_TRUE(spec.ok());
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 3);
  auto system = rig.MakeSystem();
  auto out = PlayScenarioStatic(system.get(), *problem, see, *spec,
                                FaultPlan{});
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace ldb
