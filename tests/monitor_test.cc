// The autopilot's sensor stack: the shared sequential-run tracker, the
// OnlineAnalyzer (the trace fitter over the live stream: exactly the batch
// fit with decay off, the weighted oracle with it on), the drift
// detector's score/hysteresis/cooldown state machine, and the --autopilot
// spec parser.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/autopilot_spec.h"
#include "monitor/drift.h"
#include "monitor/online_analyzer.h"
#include "storage/io_request.h"
#include "trace/analyzer.h"
#include "trace/run_tracker.h"
#include "trace/trace.h"
#include "trace_fit_oracle.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

// ------------------------------------------------------ SequentialRunTracker

TEST(RunTrackerTest, FirstRequestOpensARun) {
  SequentialRunTracker tr(8, 16 * kKiB);
  EXPECT_TRUE(tr.Observe(0, 4096));
  EXPECT_FALSE(tr.Observe(4096, 4096));     // exact continuation
  EXPECT_FALSE(tr.Observe(2 * 4096, 4096));
}

TEST(RunTrackerTest, SlackAbsorbsSmallSkips) {
  SequentialRunTracker tr(8, 16 * kKiB);
  EXPECT_TRUE(tr.Observe(0, 4096));
  EXPECT_FALSE(tr.Observe(4096 + 16 * kKiB, 4096));  // at the slack edge
  SequentialRunTracker tr2(8, 16 * kKiB);
  EXPECT_TRUE(tr2.Observe(0, 4096));
  EXPECT_TRUE(tr2.Observe(4096 + 16 * kKiB + 1, 4096));  // past it
}

TEST(RunTrackerTest, TracksInterleavedStreams) {
  // Two interleaved sequential scans: with two open runs each stream
  // continues its own run, so only the two openings count.
  SequentialRunTracker tr(2, 0);
  int runs = 0;
  int64_t a = 0;
  int64_t b = 512 * kMiB;
  for (int k = 0; k < 100; ++k) {
    if (tr.Observe(a, 4096)) ++runs;
    a += 4096;
    if (tr.Observe(b, 4096)) ++runs;
    b += 4096;
  }
  EXPECT_EQ(runs, 2);
}

TEST(RunTrackerTest, LruEvictionBoundsInterleavedTracking) {
  // Three interleaved streams but only two slots: every request misses
  // (its run was evicted two steps ago), so every request opens a run.
  SequentialRunTracker tr(2, 0);
  int runs = 0;
  int64_t s[3] = {0, 512 * kMiB, 1024 * kMiB};
  for (int k = 0; k < 30; ++k) {
    for (int64_t& off : s) {
      if (tr.Observe(off, 4096)) ++runs;
      off += 4096;
    }
  }
  EXPECT_EQ(runs, 90);
}

TEST(RunTrackerTest, ResetForgetsOpenRuns) {
  SequentialRunTracker tr(8, 0);
  EXPECT_TRUE(tr.Observe(0, 4096));
  EXPECT_FALSE(tr.Observe(4096, 4096));
  tr.Reset();
  EXPECT_TRUE(tr.Observe(2 * 4096, 4096));
}

// ------------------------------------------------ OnlineAnalyzer (oracles)

/// Deterministic stationary multi-object stream with sequential runs,
/// writes, cross-object overlap structure (bursty phases) and genuine
/// same-object concurrency on object 0. seq is dense in submit order, the
/// monitor's contract; cross-object completions interleave freely.
std::vector<IoEvent> MakeStationaryTrace(int num_objects, uint64_t seed) {
  Rng rng(seed);
  std::vector<IoEvent> events;
  for (int i = 0; i < num_objects; ++i) {
    const double period = 0.004 + 0.0013 * i;
    const double service = 0.002;
    const int count = 300;
    int64_t offset = 0;
    for (int k = 0; k < count; ++k) {
      // Bursty schedule: object i is active in alternating windows so the
      // pairwise overlap matrix has structure instead of saturating at 1.
      const int burst = k / 50;
      const double base = burst * (0.8 + 0.11 * i) +
                          (k % 50) * period;
      IoEvent ev;
      ev.object = i;
      ev.submit_time = base;
      ev.complete_time = base + service;
      ev.size = 4 * kKiB + static_cast<int64_t>(
                               rng.UniformInt(4) * 4 * kKiB);
      if (k % 5 == 0) {
        offset = static_cast<int64_t>(rng.UniformInt(1024)) * kMiB;
      }
      ev.logical_offset = offset;
      offset += ev.size;
      ev.is_write = (i % 2 == 1) && (k % 7 == 0);
      events.push_back(ev);

      if (i == 0) {
        // A second concurrent stream on object 0: in flight alongside the
        // first (self-overlap).
        IoEvent ev2 = ev;
        ev2.submit_time = base + 0.0005;
        ev2.complete_time = ev2.submit_time + service;
        ev2.logical_offset =
            static_cast<int64_t>(rng.UniformInt(1024)) * kMiB;
        ev2.is_write = false;
        events.push_back(ev2);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const IoEvent& a, const IoEvent& b) {
                     return a.submit_time < b.submit_time;
                   });
  for (size_t e = 0; e < events.size(); ++e) events[e].seq = e;
  return events;
}

/// The stream in the order the simulator delivers it: by completion.
std::vector<IoEvent> ByCompletion(std::vector<IoEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const IoEvent& a, const IoEvent& b) {
                     if (a.complete_time != b.complete_time) {
                       return a.complete_time < b.complete_time;
                     }
                     return a.seq < b.seq;
                   });
  return events;
}

IoTrace TraceOf(const std::vector<IoEvent>& events) {
  IoTrace trace;
  for (const IoEvent& ev : events) trace.Add(ev);
  return trace;
}

/// With decay off, the monitor fed the stream in completion order ends at
/// exactly the batch fit: TraceAnalyzer::Analyze and the oracle.
void RunDifferential(double overlap_window_s, uint64_t seed) {
  const int n = 4;
  const std::vector<IoEvent> events = MakeStationaryTrace(n, seed);
  const IoTrace trace = TraceOf(events);
  AnalyzerOptions batch_opts;
  batch_opts.overlap_window_s = overlap_window_s;
  auto batch = TraceAnalyzer(batch_opts).Analyze(trace, n);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  OnlineAnalyzerOptions online_opts;
  online_opts.half_life_s = 0.0;  // stationary window: batch semantics
  online_opts.overlap_window_s = overlap_window_s;
  OnlineAnalyzer analyzer(n, online_opts);
  for (const IoEvent& ev : ByCompletion(events)) analyzer.Observe(ev);
  EXPECT_EQ(analyzer.events(), events.size());

  const WorkloadSet online = analyzer.Snapshot();
  ExpectSameWorkloads(online, *batch);
  ExpectSameWorkloads(online, OracleFit(trace, n, batch_opts));
}

TEST(OnlineAnalyzerTest, MatchesBatchAnalyzerOnStationaryTrace) {
  RunDifferential(/*overlap_window_s=*/0.05, 7);
}

TEST(OnlineAnalyzerTest, MatchesBatchAcrossOverlapWindows) {
  RunDifferential(0.001, 11);
  RunDifferential(0.005, 11);
  RunDifferential(0.02, 11);
}

TEST(OnlineAnalyzerTest, DecayedFitMatchesTheWeightedOracle) {
  // The trace spans ~6 s: at a 0.05 s half-life the weights' exponent
  // passes the fitter's rebase point, so the rescaled sums are covered.
  const int n = 4;
  const std::vector<IoEvent> events = MakeStationaryTrace(n, 17);
  const IoTrace trace = TraceOf(events);
  for (const double half_life : {0.05, 0.5, 3.0, 60.0}) {
    SCOPED_TRACE(::testing::Message() << "half-life " << half_life);
    OnlineAnalyzerOptions opts;
    opts.half_life_s = half_life;
    OnlineAnalyzer analyzer(n, opts);
    for (const IoEvent& ev : ByCompletion(events)) analyzer.Observe(ev);
    const OracleDecay decay = DecayWeights(trace, half_life);
    ExpectNearWorkloads(analyzer.Snapshot(), OracleFit(trace, n, opts, &decay),
                        1e-12);
  }
}

TEST(OnlineAnalyzerTest, MidStreamSnapshotFitsTheReleasedPrefix) {
  // Mid-stream, the snapshot is the fit of the released prefix (every seq
  // below the oldest one not yet observed) as if the stream ended there:
  // completed events waiting behind an older seq are left out, and the
  // last overlap window's pending submits are resolved on a copy, so the
  // stream keeps fitting unchanged afterwards.
  const int n = 4;
  std::vector<IoEvent> events = MakeStationaryTrace(n, 23);
  // Every third request is slow, so later submits complete before it and
  // wait in the reorder buffer.
  for (IoEvent& ev : events) {
    if (ev.seq % 3 == 0) ev.complete_time += 0.003;
  }
  const std::vector<IoEvent> delivery = ByCompletion(events);
  OnlineAnalyzerOptions opts;
  opts.half_life_s = 0.0;
  OnlineAnalyzer analyzer(n, opts);
  std::vector<bool> seen(events.size(), false);
  size_t released = 0;
  int held_back = 0;
  for (size_t d = 0; d < delivery.size(); ++d) {
    analyzer.Observe(delivery[d]);
    seen[delivery[d].seq] = true;
    while (released < seen.size() && seen[released]) ++released;
    if (d % 97 != 0 || released < 2) continue;
    SCOPED_TRACE(::testing::Message() << "after " << d + 1 << " events");
    if (released < d + 1) ++held_back;
    const std::vector<IoEvent> prefix(events.begin(),
                                      events.begin() +
                                          static_cast<std::ptrdiff_t>(released));
    ExpectSameWorkloads(analyzer.Snapshot(), OracleFit(TraceOf(prefix), n));
  }
  EXPECT_GT(held_back, 0);  // the reorder buffer held events at snapshots
  ExpectSameWorkloads(analyzer.Snapshot(), OracleFit(TraceOf(events), n));
}

TEST(OnlineAnalyzerTest, SnapshotIsEmptyBeforeAnyEvent) {
  OnlineAnalyzer analyzer(3);
  WorkloadSet ws = analyzer.Snapshot();
  ASSERT_EQ(ws.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const WorkloadDesc& w = ws[static_cast<size_t>(i)];
    EXPECT_EQ(w.total_rate(), 0.0);
    EXPECT_EQ(w.run_count, 1.0);
    EXPECT_EQ(w.overlap_index, std::vector<int32_t>{i});
    EXPECT_EQ(w.overlap_value, std::vector<double>{0.0});
  }
}

TEST(OnlineAnalyzerTest, DecayForgetsAnOldPhase) {
  // Phase 1: object 0 hot. Phase 2 (much later): object 1 hot. With a
  // short half-life the snapshot after phase 2 is dominated by object 1.
  OnlineAnalyzerOptions opts;
  opts.half_life_s = 2.0;
  OnlineAnalyzer analyzer(2, opts);
  IoEvent ev;
  ev.size = 8 * kKiB;
  for (int k = 0; k < 500; ++k) {
    ev.object = 0;
    ev.submit_time = k * 0.01;
    ev.complete_time = ev.submit_time + 0.004;
    ev.logical_offset = k * ev.size;
    analyzer.Observe(ev);
    ++ev.seq;
  }
  for (int k = 0; k < 500; ++k) {
    ev.object = 1;
    ev.submit_time = 60.0 + k * 0.01;
    ev.complete_time = ev.submit_time + 0.004;
    ev.logical_offset = k * ev.size;
    analyzer.Observe(ev);
    ++ev.seq;
  }
  WorkloadSet ws = analyzer.Snapshot();
  EXPECT_GT(ws[1].read_rate, 50.0);
  EXPECT_LT(ws[0].read_rate, 0.01 * ws[1].read_rate);
}

// ------------------------------------------------------------ DriftDetector

WorkloadSet TwoObjectSet(double rate0, double size0, double rate1,
                         double size1) {
  WorkloadSet ws(2);
  ws[0].read_rate = rate0;
  ws[0].read_size = size0;
  ws[1].read_rate = rate1;
  ws[1].read_size = size1;
  for (int i = 0; i < 2; ++i) {
    ws[static_cast<size_t>(i)].run_count = 4.0;
    ws[static_cast<size_t>(i)].overlap_index = {i};
    ws[static_cast<size_t>(i)].overlap_value = {0.0};
  }
  return ws;
}

TEST(DriftDetectorTest, IdenticalWorkloadScoresZero) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 50, 8 * kKiB);
  DriftDetector det(ref, DriftOptions{});
  EXPECT_DOUBLE_EQ(det.Score(ref), 0.0);
}

TEST(DriftDetectorTest, RateShiftScoresMonotonically) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  DriftDetector det(ref, DriftOptions{});
  const double s2 = det.Score(TwoObjectSet(200, 64 * kKiB, 200, 64 * kKiB));
  const double s4 = det.Score(TwoObjectSet(400, 64 * kKiB, 400, 64 * kKiB));
  const double s8 = det.Score(TwoObjectSet(800, 64 * kKiB, 800, 64 * kKiB));
  EXPECT_GT(s2, 0.3);  // 2x shift = half of the 4x saturation
  EXPECT_LT(s2, 0.7);
  EXPECT_GT(s4, 0.99);  // 4x shift saturates
  EXPECT_DOUBLE_EQ(s4, s8);  // capped
}

TEST(DriftDetectorTest, InactiveObjectsAreIgnored) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 0.0, 0.0);
  // Object 1 idle on both sides: a big relative "change" in its (noise)
  // stats must not register.
  WorkloadSet live = TwoObjectSet(100, 64 * kKiB, 0.1, 4 * kKiB);
  DriftOptions opts;
  opts.min_rate = 0.5;
  DriftDetector det(ref, opts);
  EXPECT_DOUBLE_EQ(det.Score(live), 0.0);
}

TEST(DriftDetectorTest, TripsAfterConsecutiveEvaluationsPastCooldown) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  WorkloadSet drifted = TwoObjectSet(400, 64 * kKiB, 400, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 2;
  opts.cooldown_s = 10.0;
  DriftDetector det(ref, opts, 0.0);
  // Inside the initial cooldown: never trips, streak does not accumulate.
  EXPECT_FALSE(det.Evaluate(drifted, 1.0));
  EXPECT_FALSE(det.Evaluate(drifted, 9.0));
  // Past cooldown: first above-threshold evaluation arms the streak,
  // second trips.
  EXPECT_FALSE(det.Evaluate(drifted, 11.0));
  EXPECT_TRUE(det.Evaluate(drifted, 13.0));
  EXPECT_EQ(det.trips(), 1u);
  // Tripped: disarmed + fresh cooldown; staying drifted cannot re-trip.
  EXPECT_FALSE(det.Evaluate(drifted, 15.0));
  EXPECT_FALSE(det.Evaluate(drifted, 30.0));
  EXPECT_FALSE(det.Evaluate(drifted, 60.0));
  EXPECT_EQ(det.trips(), 1u);
}

TEST(DriftDetectorTest, HysteresisRequiresClearingBeforeRetrip) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  WorkloadSet drifted = TwoObjectSet(400, 64 * kKiB, 400, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 1;
  opts.clear_ratio = 0.5;
  opts.cooldown_s = 1.0;
  DriftDetector det(ref, opts, 0.0);
  EXPECT_TRUE(det.Evaluate(drifted, 2.0));
  // Cooldown expired but score never cleared: still disarmed.
  EXPECT_FALSE(det.Evaluate(drifted, 10.0));
  // Score clears below threshold * clear_ratio: re-arms (no trip yet)...
  EXPECT_FALSE(det.Evaluate(ref, 12.0));
  // ...so the next excursion trips again.
  EXPECT_TRUE(det.Evaluate(drifted, 14.0));
  EXPECT_EQ(det.trips(), 2u);
}

TEST(DriftDetectorTest, RearmAdoptsReferenceAndRestartsCooldown) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  WorkloadSet drifted = TwoObjectSet(400, 64 * kKiB, 400, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 1;
  opts.cooldown_s = 5.0;
  DriftDetector det(ref, opts, 0.0);
  EXPECT_TRUE(det.Evaluate(drifted, 6.0));
  det.Rearm(drifted, 6.0);
  // The drifted set is the reference now: no drift, even past cooldown.
  EXPECT_DOUBLE_EQ(det.Score(drifted), 0.0);
  EXPECT_FALSE(det.Evaluate(drifted, 20.0));
  // And the original set now reads as drift (the shift is symmetric).
  EXPECT_TRUE(det.Evaluate(ref, 22.0));
}

TEST(DriftDetectorTest, SubThresholdPlateauNeverTripsWithoutSustain) {
  // The adversarial slow-drift shape: the live workload plateaus *just
  // under* the trip threshold. With the historical (sustain-disabled)
  // configuration the edge trigger never fires, the reference is never
  // re-taken, and the stale layout persists forever. This test documents
  // that behavior; the next one shows the sustain knob fixing it.
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  // A ~1.8x rate shift scores between clear and trip for threshold=0.5.
  WorkloadSet plateau = TwoObjectSet(180, 64 * kKiB, 180, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 1;
  opts.cooldown_s = 0.0;
  DriftDetector det(ref, opts, 0.0);
  ASSERT_GT(det.Score(plateau), opts.threshold * opts.clear_ratio);
  ASSERT_LT(det.Score(plateau), opts.threshold);
  for (int k = 1; k <= 1000; ++k) {
    EXPECT_FALSE(det.Evaluate(plateau, static_cast<double>(k)));
  }
  EXPECT_EQ(det.trips(), 0u);
}

TEST(DriftDetectorTest, SustainTripsOnSubThresholdPlateau) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  WorkloadSet plateau = TwoObjectSet(180, 64 * kKiB, 180, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 1;
  opts.cooldown_s = 4.0;
  opts.sustained_ratio = 0.6;  // dwell band starts at score 0.3
  opts.sustained_s = 10.0;
  DriftDetector det(ref, opts, 0.0);
  ASSERT_GT(det.Score(plateau), opts.threshold * opts.sustained_ratio);
  ASSERT_LT(det.Score(plateau), opts.threshold);
  // Inside the initial cooldown the dwell clock must not accumulate.
  EXPECT_FALSE(det.Evaluate(plateau, 1.0));
  // Dwell starts at t=5 (first armed evaluation); fires once 10 s elapse.
  EXPECT_FALSE(det.Evaluate(plateau, 5.0));
  EXPECT_FALSE(det.Evaluate(plateau, 12.0));
  EXPECT_TRUE(det.Evaluate(plateau, 15.0));
  EXPECT_EQ(det.trips(), 1u);
  EXPECT_EQ(det.sustained_trips(), 1u);
  // Tripped: disarmed until the score clears, exactly like an edge trip.
  EXPECT_FALSE(det.Evaluate(plateau, 30.0));
  EXPECT_FALSE(det.Evaluate(plateau, 60.0));
  EXPECT_EQ(det.trips(), 1u);
  // Rearm on a new reference: plateau reads as zero drift, no dwell.
  det.Rearm(plateau, 60.0);
  EXPECT_FALSE(det.Evaluate(plateau, 100.0));
  EXPECT_EQ(det.trips(), 1u);
}

TEST(DriftDetectorTest, SustainDwellResetsWhenScoreDips) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  WorkloadSet plateau = TwoObjectSet(180, 64 * kKiB, 180, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 1;
  opts.cooldown_s = 0.0;
  opts.sustained_ratio = 0.6;
  opts.sustained_s = 10.0;
  DriftDetector det(ref, opts, 0.0);
  EXPECT_FALSE(det.Evaluate(plateau, 1.0));  // dwell starts
  EXPECT_FALSE(det.Evaluate(ref, 8.0));      // dips below band: resets
  EXPECT_FALSE(det.Evaluate(plateau, 9.0));  // dwell restarts here
  EXPECT_FALSE(det.Evaluate(plateau, 18.0));  // 9 s < 10 s: no trip yet
  EXPECT_TRUE(det.Evaluate(plateau, 19.0));
  EXPECT_EQ(det.sustained_trips(), 1u);
}

TEST(DriftDetectorTest, EdgeTripStillWinsOverSustain) {
  // A hard shift must trip via the edge path immediately; the sustain
  // counter stays untouched.
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  WorkloadSet drifted = TwoObjectSet(400, 64 * kKiB, 400, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = 0.5;
  opts.trip_evaluations = 1;
  opts.cooldown_s = 0.0;
  opts.sustained_ratio = 0.6;
  opts.sustained_s = 1000.0;
  DriftDetector det(ref, opts, 0.0);
  EXPECT_TRUE(det.Evaluate(drifted, 1.0));
  EXPECT_EQ(det.trips(), 1u);
  EXPECT_EQ(det.sustained_trips(), 0u);
}

TEST(DriftDetectorTest, InfiniteThresholdNeverTrips) {
  WorkloadSet ref = TwoObjectSet(100, 64 * kKiB, 100, 64 * kKiB);
  DriftOptions opts;
  opts.threshold = std::numeric_limits<double>::infinity();
  opts.trip_evaluations = 1;
  opts.cooldown_s = 0.0;
  DriftDetector det(ref, opts, 0.0);
  for (int k = 0; k < 50; ++k) {
    EXPECT_FALSE(det.Evaluate(
        TwoObjectSet(100.0 * (k + 1), 4 * kKiB, 1.0, 64 * kMiB), k));
  }
  EXPECT_EQ(det.trips(), 0u);
}

// -------------------------------------------------------- ParseAutopilotSpec

TEST(AutopilotSpecTest, EmptySpecYieldsDefaults) {
  auto config = ParseAutopilotSpec("");
  ASSERT_TRUE(config.ok());
  AutopilotConfig defaults;
  EXPECT_DOUBLE_EQ(config->check_interval_s, defaults.check_interval_s);
  EXPECT_DOUBLE_EQ(config->drift.threshold, defaults.drift.threshold);
  EXPECT_DOUBLE_EQ(config->gate_horizon_s, defaults.gate_horizon_s);
}

TEST(AutopilotSpecTest, ParsesFullGrammar) {
  auto config = ParseAutopilotSpec(
      "interval=1.5;threshold=0.4,trip=3,clear=0.25,cooldown=45;"
      "window=20,slack=32768,runs=4;"
      "gain=0.05,horizon=600,bandwidth=1048576,minrate=2");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_DOUBLE_EQ(config->check_interval_s, 1.5);
  EXPECT_DOUBLE_EQ(config->drift.threshold, 0.4);
  EXPECT_EQ(config->drift.trip_evaluations, 3);
  EXPECT_DOUBLE_EQ(config->drift.clear_ratio, 0.25);
  EXPECT_DOUBLE_EQ(config->drift.cooldown_s, 45.0);
  EXPECT_DOUBLE_EQ(config->analyzer.half_life_s, 20.0);
  EXPECT_EQ(config->analyzer.sequential_slack_bytes, 32768);
  EXPECT_EQ(config->analyzer.max_open_runs, 4);
  EXPECT_DOUBLE_EQ(config->gate_min_gain, 0.05);
  EXPECT_DOUBLE_EQ(config->gate_horizon_s, 600.0);
  EXPECT_DOUBLE_EQ(config->gate_fallback_bandwidth, 1048576.0);
  EXPECT_DOUBLE_EQ(config->drift.min_rate, 2.0);
}

TEST(AutopilotSpecTest, InfTokensDisableWindowAndThreshold) {
  auto config = ParseAutopilotSpec("window=inf;threshold=inf");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_DOUBLE_EQ(config->analyzer.half_life_s, 0.0);  // no decay
  EXPECT_TRUE(std::isinf(config->drift.threshold));
}

TEST(AutopilotSpecTest, ErrorsAreClauseIndexed) {
  auto bad = ParseAutopilotSpec("interval=2;threshold=-1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("clause 2"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("threshold"), std::string::npos);

  bad = ParseAutopilotSpec("interval=2;trip=1;bogus=3");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("clause 3"), std::string::npos);
  EXPECT_NE(bad.status().message().find("bogus"), std::string::npos);

  // The monitor has no ring any more: the key is unknown.
  bad = ParseAutopilotSpec("interval=2;window=20,ring=512");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("clause 2: unknown key 'ring'"),
            std::string::npos)
      << bad.status().ToString();
}

TEST(AutopilotSpecTest, RejectsZeroAndNegativeThreshold) {
  EXPECT_FALSE(ParseAutopilotSpec("threshold=0").ok());
  EXPECT_FALSE(ParseAutopilotSpec("threshold=-0.5").ok());
  EXPECT_FALSE(ParseAutopilotSpec("threshold=nan").ok());
  EXPECT_TRUE(ParseAutopilotSpec("threshold=0.01").ok());
}

TEST(AutopilotSpecTest, RejectsMalformedItemsAndNumbers) {
  EXPECT_FALSE(ParseAutopilotSpec("interval").ok());         // no '='
  EXPECT_FALSE(ParseAutopilotSpec("interval=two").ok());     // bad number
  EXPECT_FALSE(ParseAutopilotSpec("interval=0").ok());
  EXPECT_FALSE(ParseAutopilotSpec("interval=inf").ok());
  EXPECT_FALSE(ParseAutopilotSpec("clear=1.5").ok());
  EXPECT_FALSE(ParseAutopilotSpec("cooldown=-1").ok());
  EXPECT_FALSE(ParseAutopilotSpec("runs=0").ok());
  EXPECT_FALSE(ParseAutopilotSpec("horizon=0").ok());
  EXPECT_FALSE(ParseAutopilotSpec("bandwidth=0").ok());
  // Too large for the int field: rejected, not truncated to 1.
  EXPECT_FALSE(ParseAutopilotSpec("runs=4294967297").ok());
  EXPECT_FALSE(ParseAutopilotSpec("slack=99999999999999999999").ok());
  EXPECT_FALSE(ParseAutopilotSpec("interval=2s").ok());
  EXPECT_FALSE(ParseAutopilotSpec("interval=0x2").ok());
  EXPECT_FALSE(ParseAutopilotSpec("interval= 2").ok());
  auto bad = ParseAutopilotSpec("interval=2;trip=3.5");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("autopilot spec clause 2: bad "
                                        "integer '3.5' for key 'trip'"),
            std::string::npos)
      << bad.status().ToString();
}

TEST(AutopilotSpecTest, RoundTripsThroughToString) {
  auto config =
      ParseAutopilotSpec("interval=3;threshold=0.3,trip=2;window=inf");
  ASSERT_TRUE(config.ok());
  auto again = ParseAutopilotSpec(AutopilotConfigToString(*config));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_DOUBLE_EQ(again->check_interval_s, 3.0);
  EXPECT_DOUBLE_EQ(again->drift.threshold, 0.3);
  EXPECT_DOUBLE_EQ(again->analyzer.half_life_s, 0.0);

  // Every key comes back, and bit-identically: the analyzer keys, minrate
  // and bandwidth too, and a double that needs all 17 digits.
  config = ParseAutopilotSpec(
      "interval=0.30000000000000004;slack=4096,runs=3;"
      "minrate=0.75,bandwidth=12345678.9");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  again = ParseAutopilotSpec(AutopilotConfigToString(*config));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->check_interval_s, 0.1 + 0.2);  // %g would print 0.3
  EXPECT_EQ(again->analyzer.sequential_slack_bytes, 4096);
  EXPECT_EQ(again->analyzer.max_open_runs, 3);
  EXPECT_EQ(again->drift.min_rate, 0.75);
  EXPECT_EQ(again->gate_fallback_bandwidth, 12345678.9);
  EXPECT_EQ(AutopilotConfigToString(*again),
            AutopilotConfigToString(*config));
}

TEST(AutopilotSpecTest, ParsesAndRoundTripsSustainKeys) {
  auto config = ParseAutopilotSpec("threshold=0.4,sustain=0.7,sustain_s=90");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_DOUBLE_EQ(config->drift.sustained_ratio, 0.7);
  EXPECT_DOUBLE_EQ(config->drift.sustained_s, 90.0);
  auto again = ParseAutopilotSpec(AutopilotConfigToString(*config));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_DOUBLE_EQ(again->drift.sustained_ratio, 0.7);
  EXPECT_DOUBLE_EQ(again->drift.sustained_s, 90.0);
  // Disabled sustain round-trips as disabled.
  auto off = ParseAutopilotSpec(AutopilotConfigToString(AutopilotConfig{}));
  ASSERT_TRUE(off.ok());
  EXPECT_DOUBLE_EQ(off->drift.sustained_ratio, 0.0);
}

TEST(AutopilotSpecTest, RejectsBadSustainValues) {
  EXPECT_FALSE(ParseAutopilotSpec("sustain=1.5").ok());
  EXPECT_FALSE(ParseAutopilotSpec("sustain=-0.1").ok());
  EXPECT_FALSE(ParseAutopilotSpec("sustain=nan").ok());
  EXPECT_FALSE(ParseAutopilotSpec("sustain_s=0").ok());
  EXPECT_FALSE(ParseAutopilotSpec("sustain_s=inf").ok());
  // sustain without a dwell time fails Validate() at end-of-parse.
  EXPECT_FALSE(ParseAutopilotSpec("sustain=0.7").ok());
  EXPECT_TRUE(ParseAutopilotSpec("sustain=0.7,sustain_s=60").ok());
  EXPECT_TRUE(ParseAutopilotSpec("sustain=0").ok());  // 0 disables
}

TEST(AutopilotSpecTest, ValidateMirrorsParserChecks) {
  AutopilotConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.drift.threshold = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.drift.threshold = 0.25;
  config.check_interval_s = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  config.check_interval_s = 2.0;
  config.gate_horizon_s = 0.0;
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace ldb
