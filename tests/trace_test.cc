#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk.h"
#include "storage/storage_system.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
#include "trace_fit_oracle.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

IoEvent MakeEvent(double submit, double complete, ObjectId obj,
                  int64_t logical, int64_t size, bool write = false) {
  IoEvent ev;
  ev.submit_time = submit;
  ev.complete_time = complete;
  ev.target = 0;
  ev.object = obj;
  ev.offset = logical;  // target offset irrelevant to the analyzer
  ev.logical_offset = logical;
  ev.size = size;
  ev.is_write = write;
  return ev;
}

// ---------------------------------------------------------------- IoTrace

TEST(IoTraceTest, DurationSpansSubmitToComplete) {
  IoTrace t;
  t.Add(MakeEvent(1.0, 1.5, 0, 0, 8 * kKiB));
  t.Add(MakeEvent(2.0, 4.0, 0, 8 * kKiB, 8 * kKiB));
  EXPECT_DOUBLE_EQ(t.Duration(), 3.0);
  EXPECT_EQ(t.size(), 2u);
}

TEST(IoTraceTest, EmptyTraceHasZeroDuration) {
  IoTrace t;
  EXPECT_DOUBLE_EQ(t.Duration(), 0.0);
  EXPECT_TRUE(t.empty());
}

TEST(TraceCollectorTest, CapturesSystemEvents) {
  // A trace is collected by hanging IoTrace::Add on the system's observer.
  DiskModel disk(Scsi15kParams());
  StorageSystem sys({{"d", &disk, 1, 64 * kKiB}});
  IoTrace trace;
  sys.set_observer([&trace](const IoEvent& ev) { trace.Add(ev); });
  for (int i = 0; i < 5; ++i) {
    sys.Submit(0, {i * kMiB, kMiB / 4, false, 2, i * kMiB}, nullptr);
  }
  sys.queue().RunUntilIdle();
  sys.set_observer(nullptr);
  ASSERT_EQ(trace.size(), 5u);
  for (const IoEvent& ev : trace.events()) EXPECT_EQ(ev.object, 2);
}

// ------------------------------------------------------------- Analyzer

TEST(AnalyzerTest, RejectsEmptyTrace) {
  TraceAnalyzer analyzer;
  IoTrace t;
  EXPECT_FALSE(analyzer.Analyze(t, 1).ok());
}

TEST(AnalyzerTest, RejectsUnknownObject) {
  TraceAnalyzer analyzer;
  IoTrace t;
  t.Add(MakeEvent(0, 1, 7, 0, kKiB));
  EXPECT_FALSE(analyzer.Analyze(t, 3).ok());
}

TEST(AnalyzerTest, FitsRatesAndSizes) {
  TraceAnalyzer analyzer;
  IoTrace t;
  // Object 0: 10 reads of 8 KiB over 10 seconds; 5 writes of 64 KiB.
  for (int i = 0; i < 10; ++i) {
    t.Add(MakeEvent(i, i + 0.01, 0, 100 * kMiB * i, 8 * kKiB, false));
  }
  for (int i = 0; i < 5; ++i) {
    t.Add(MakeEvent(i + 0.5, i + 0.51, 0, 500 * kMiB + 100 * kMiB * i,
                    64 * kKiB, true));
  }
  // Duration = 10.01 - 0 (first submit 0 ... last complete 10.01... actually
  // last read completes at 9.01, last write at 5.51 -> duration 9.01).
  auto ws = analyzer.Analyze(t, 1);
  ASSERT_TRUE(ws.ok());
  const WorkloadDesc& w = (*ws)[0];
  const double duration = t.Duration();
  EXPECT_NEAR(w.read_rate, 10.0 / duration, 1e-9);
  EXPECT_NEAR(w.write_rate, 5.0 / duration, 1e-9);
  EXPECT_DOUBLE_EQ(w.read_size, 8 * kKiB);
  EXPECT_DOUBLE_EQ(w.write_size, 64 * kKiB);
}

TEST(AnalyzerTest, DetectsSequentialRuns) {
  TraceAnalyzer analyzer;
  IoTrace t;
  // Runs of exactly 4 sequential 8 KiB requests, then a far jump.
  int64_t base = 0;
  double time = 0;
  for (int run = 0; run < 8; ++run) {
    for (int r = 0; r < 4; ++r) {
      t.Add(MakeEvent(time, time + 0.001, 0, base + r * 8 * kKiB, 8 * kKiB));
      time += 0.01;
    }
    base += kGiB;  // non-sequential jump
  }
  auto ws = analyzer.Analyze(t, 1);
  ASSERT_TRUE(ws.ok());
  EXPECT_NEAR((*ws)[0].run_count, 4.0, 1e-9);
}

TEST(AnalyzerTest, FullyRandomHasRunCountOne) {
  TraceAnalyzer analyzer;
  IoTrace t;
  double time = 0;
  for (int i = 0; i < 50; ++i) {
    t.Add(MakeEvent(time, time + 0.001, 0, (i % 2 == 0 ? i : 50 - i) * kGiB,
                    8 * kKiB));
    time += 0.01;
  }
  auto ws = analyzer.Analyze(t, 1);
  ASSERT_TRUE(ws.ok());
  EXPECT_NEAR((*ws)[0].run_count, 1.0, 1e-9);
}

TEST(AnalyzerTest, SmallForwardSkipsStaySequential) {
  AnalyzerOptions opts;
  opts.sequential_slack_bytes = 16 * kKiB;
  TraceAnalyzer analyzer(opts);
  IoTrace t;
  double time = 0;
  int64_t off = 0;
  for (int i = 0; i < 10; ++i) {
    t.Add(MakeEvent(time, time + 0.001, 0, off, 8 * kKiB));
    off += 8 * kKiB + 8 * kKiB;  // skip 8 KiB forward each time
    time += 0.01;
  }
  auto ws = analyzer.Analyze(t, 1);
  ASSERT_TRUE(ws.ok());
  EXPECT_NEAR((*ws)[0].run_count, 10.0, 1e-9);
}

TEST(AnalyzerTest, OverlapDetectedForConcurrentStreams) {
  AnalyzerOptions opts;
  opts.overlap_window_s = 0.05;
  TraceAnalyzer analyzer(opts);
  IoTrace t;
  // Objects 0 and 1 interleaved in time; object 2 active much later.
  for (int i = 0; i < 20; ++i) {
    const double time = i * 0.1;
    t.Add(MakeEvent(time, time + 0.02, 0, i * kMiB, 8 * kKiB));
    t.Add(MakeEvent(time + 0.03, time + 0.05, 1, i * kMiB, 8 * kKiB));
  }
  for (int i = 0; i < 20; ++i) {
    const double time = 100 + i * 0.1;
    t.Add(MakeEvent(time, time + 0.02, 2, i * kMiB, 8 * kKiB));
  }
  auto ws = analyzer.Analyze(t, 3);
  ASSERT_TRUE(ws.ok());
  EXPECT_GT((*ws)[0].overlap_with(1), 0.9);
  EXPECT_GT((*ws)[1].overlap_with(0), 0.9);
  EXPECT_LT((*ws)[0].overlap_with(2), 0.05);
  EXPECT_LT((*ws)[2].overlap_with(0), 0.05);
  EXPECT_DOUBLE_EQ((*ws)[0].overlap_with(0), 0.0);  // self-overlap not defined
}

TEST(AnalyzerTest, IdleObjectGetsZeroWorkload) {
  TraceAnalyzer analyzer;
  IoTrace t;
  t.Add(MakeEvent(0, 1, 0, 0, 8 * kKiB));
  t.Add(MakeEvent(1, 2, 0, 8 * kKiB, 8 * kKiB));
  auto ws = analyzer.Analyze(t, 2);
  ASSERT_TRUE(ws.ok());
  EXPECT_DOUBLE_EQ((*ws)[1].total_rate(), 0.0);
  EXPECT_DOUBLE_EQ((*ws)[1].run_count, 1.0);
  EXPECT_EQ((*ws)[1].overlap_index, std::vector<int32_t>{1});
  EXPECT_EQ((*ws)[1].overlap_value, std::vector<double>{0.0});
}

TEST(AnalyzerTest, WorkloadsAreValid) {
  TraceAnalyzer analyzer;
  IoTrace t;
  for (int i = 0; i < 30; ++i) {
    t.Add(MakeEvent(i * 0.01, i * 0.01 + 0.005, i % 3, i * kMiB, 8 * kKiB,
                    i % 4 == 0));
  }
  auto ws = analyzer.Analyze(t, 3);
  ASSERT_TRUE(ws.ok());
  for (size_t i = 0; i < ws->size(); ++i) {
    EXPECT_TRUE(IsValidWorkload((*ws)[i], 3, i));
  }
}

// ------------------------------------------------------ input validation

bool IsInvalidArgumentNaming(const Status& status, const std::string& what) {
  return status.code() == StatusCode::kInvalidArgument &&
         status.message().find(what) != std::string::npos;
}

TEST(AnalyzerTest, RejectsZeroSpanTrace) {
  IoTrace t;
  t.Add(MakeEvent(2.0, 2.0, 0, 0, kKiB));  // zero latency, single instant
  auto ws = TraceAnalyzer().Analyze(t, 1);
  ASSERT_FALSE(ws.ok());
  EXPECT_EQ(ws.status().code(), StatusCode::kInvalidArgument);
}

TEST(AnalyzerTest, RejectsCompletionBeforeSubmitNamingTheEvent) {
  IoTrace t;
  t.Add(MakeEvent(0.0, 1.0, 0, 0, kKiB));
  t.Add(MakeEvent(0.5, 0.4, 0, 0, kKiB));
  auto ws = TraceAnalyzer().Analyze(t, 1);
  ASSERT_FALSE(ws.ok());
  EXPECT_TRUE(IsInvalidArgumentNaming(ws.status(), "event 1 "))
      << ws.status().ToString();
}

TEST(AnalyzerTest, RejectsNonFiniteTimesNamingTheEvent) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [submit, complete] :
       {std::pair{nan, 1.0}, std::pair{0.0, nan}, std::pair{0.0, inf},
        std::pair{-inf, 1.0}}) {
    IoTrace t;
    t.Add(MakeEvent(0.0, 1.0, 0, 0, kKiB));
    t.Add(MakeEvent(0.5, 1.5, 0, 0, kKiB));
    t.Add(MakeEvent(submit, complete, 0, 0, kKiB));
    auto ws = TraceAnalyzer().Analyze(t, 1);
    ASSERT_FALSE(ws.ok());
    EXPECT_TRUE(IsInvalidArgumentNaming(ws.status(), "event 2 "))
        << ws.status().ToString();
  }
}

TEST(AnalyzerTest, RejectsNegativeOverlapWindow) {
  AnalyzerOptions opts;
  opts.overlap_window_s = -0.01;
  IoTrace t;
  t.Add(MakeEvent(0.0, 1.0, 0, 0, kKiB));
  EXPECT_FALSE(TraceAnalyzer(opts).Analyze(t, 1).ok());
}

TEST(TraceFitterTest, RejectsOutOfOrderSubmits) {
  TraceFitter fitter(1);
  fitter.Add(MakeEvent(1.0, 2.0, 0, 0, kKiB), 0);
  fitter.Add(MakeEvent(0.5, 2.0, 0, 0, kKiB), 1);
  fitter.Add(MakeEvent(3.0, 4.0, 0, 0, kKiB), 2);
  auto ws = fitter.Finish();
  ASSERT_FALSE(ws.ok());
  EXPECT_TRUE(IsInvalidArgumentNaming(ws.status(), "event 1 "))
      << ws.status().ToString();
}

/// Feeds `events` (seq = position) to a reordering fitter in reverse.
Result<WorkloadSet> FitReversed(std::vector<IoEvent> events,
                                int num_objects) {
  ReorderingTraceFitter fitter(num_objects);
  for (size_t e = 0; e < events.size(); ++e) events[e].seq = e;
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    fitter.Observe(*it);
  }
  return fitter.Finish();
}

TEST(ReorderingTraceFitterTest, RejectsBadEventsNamingTheSeq) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto zero_span = FitReversed({MakeEvent(2.0, 2.0, 0, 0, kKiB)}, 1);
  ASSERT_FALSE(zero_span.ok());
  EXPECT_EQ(zero_span.status().code(), StatusCode::kInvalidArgument);

  auto backwards = FitReversed(
      {MakeEvent(0.0, 1.0, 0, 0, kKiB), MakeEvent(0.5, 0.4, 0, 0, kKiB)}, 1);
  ASSERT_FALSE(backwards.ok());
  EXPECT_TRUE(IsInvalidArgumentNaming(backwards.status(), "event 1 "))
      << backwards.status().ToString();

  auto non_finite = FitReversed(
      {MakeEvent(0.0, 1.0, 0, 0, kKiB), MakeEvent(0.5, nan, 0, 0, kKiB)}, 1);
  ASSERT_FALSE(non_finite.ok());
  EXPECT_TRUE(IsInvalidArgumentNaming(non_finite.status(), "event 1 "))
      << non_finite.status().ToString();

  auto unknown = FitReversed(
      {MakeEvent(0.0, 1.0, 0, 0, kKiB), MakeEvent(0.5, 1.0, 4, 0, kKiB)}, 2);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(IsInvalidArgumentNaming(unknown.status(), "event 1 "))
      << unknown.status().ToString();

  EXPECT_FALSE(ReorderingTraceFitter(1).Finish().ok());  // empty
}

TEST(ReorderingTraceFitterTest, SnapshotTellsNoSpanYetFromBadInput) {
  ReorderingTraceFitter fitter(1);
  EXPECT_EQ(fitter.Snapshot().status().code(),
            StatusCode::kFailedPrecondition);  // nothing observed
  IoEvent a = MakeEvent(2.0, 2.0, 0, 0, kKiB);
  a.seq = 0;
  fitter.Observe(a);
  EXPECT_EQ(fitter.Snapshot().status().code(),
            StatusCode::kFailedPrecondition);  // zero span so far
  IoEvent b = MakeEvent(2.5, 3.0, 0, kKiB, kKiB);
  b.seq = 1;
  fitter.Observe(b);
  EXPECT_TRUE(fitter.Snapshot().ok());
  IoEvent bad = MakeEvent(3.0, 2.9, 0, 0, kKiB);  // completes first
  bad.seq = 2;
  fitter.Observe(bad);
  EXPECT_TRUE(IsInvalidArgumentNaming(fitter.Snapshot().status(), "event 2 "));
  fitter.Observe(b);  // a duplicate is an input error too
  EXPECT_EQ(fitter.Snapshot().status().code(), StatusCode::kInvalidArgument);
}

TEST(ReorderingTraceFitterTest, RejectsSeqGapsAndDuplicates) {
  IoEvent a = MakeEvent(0.0, 1.0, 0, 0, kKiB);
  IoEvent b = MakeEvent(0.5, 1.5, 0, 0, kKiB);
  IoEvent c = MakeEvent(0.7, 1.7, 0, 0, kKiB);
  a.seq = 0;
  b.seq = 1;
  c.seq = 2;
  {
    ReorderingTraceFitter gap(1);
    gap.Observe(a);
    gap.Observe(c);  // seq 1 never arrives
    EXPECT_FALSE(gap.Finish().ok());
  }
  {
    ReorderingTraceFitter duplicate(1);
    duplicate.Observe(a);
    duplicate.Observe(c);
    duplicate.Observe(c);  // buffered twice
    duplicate.Observe(b);
    EXPECT_FALSE(duplicate.Finish().ok());
  }
  {
    ReorderingTraceFitter replayed(1);
    replayed.Observe(a);
    replayed.Observe(a);  // already released
    replayed.Observe(b);
    replayed.Observe(c);
    EXPECT_FALSE(replayed.Finish().ok());
  }
  {
    ReorderingTraceFitter far(1);
    IoEvent late = c;
    late.seq = uint64_t{1} << 40;
    far.Observe(late);
    EXPECT_FALSE(far.Finish().ok());
  }
}

TEST(ReorderingTraceFitterTest, MatchesAnalyzeAndOracleInAnyCompletionOrder) {
  // Three objects, equal submit times, zero-latency requests, and
  // completions far out of submission order.
  Rng rng(5);
  std::vector<IoEvent> events;
  double now = 0.0;
  for (int e = 0; e < 500; ++e) {
    if (rng.Bernoulli(0.6)) now += rng.Uniform(0.0, 0.03);
    const double latency = rng.Bernoulli(0.2) ? 0.0 : rng.Exponential(0.2);
    IoEvent ev = MakeEvent(now, now + latency, static_cast<ObjectId>(e % 3),
                           rng.UniformInt(int64_t{0}, int64_t{64}) * kKiB,
                           8 * kKiB, rng.Bernoulli(0.3));
    ev.seq = static_cast<uint64_t>(e);
    events.push_back(ev);
  }
  IoTrace trace;
  for (const IoEvent& ev : events) trace.Add(ev);
  std::vector<IoEvent> shuffled = events;
  rng.Shuffle(&shuffled);
  ReorderingTraceFitter fitter(3);
  for (const IoEvent& ev : shuffled) fitter.Observe(ev);
  auto streamed = fitter.Finish();
  auto analyzed = TraceAnalyzer().Analyze(trace, 3);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ExpectSameWorkloads(*streamed, *analyzed);
  ExpectSameWorkloads(*analyzed, OracleFit(trace, 3));
}

// -------------------------------------- bit-exact differential: structures
//
// The fitting core keeps each object's in-flight completions as a sorted
// run, walks only the objects whose busy interval can still cover a
// submit, and the reordering front end buffers out-of-order events in a
// seq-indexed ring (far seqs in a map) behind an in-order fast path. Each
// case below stresses one of them and holds the fit to the batch oracle
// with ==.

IoTrace TraceOf(const std::vector<IoEvent>& events) {
  IoTrace trace;
  for (const IoEvent& ev : events) trace.Add(ev);
  return trace;
}

/// `events` (seq = position) in a scrambled delivery order: each step
/// delivers a random one of the first `depth` + 1 events not yet
/// delivered, so an event arrives at most `depth` places early.
std::vector<IoEvent> Scrambled(const std::vector<IoEvent>& events,
                               size_t depth, Rng* rng) {
  std::vector<IoEvent> window;
  std::vector<IoEvent> out;
  size_t next = 0;
  while (out.size() < events.size()) {
    while (next < events.size() && window.size() <= depth) {
      window.push_back(events[next++]);
    }
    const size_t pick = static_cast<size_t>(rng->UniformInt(window.size()));
    out.push_back(window[pick]);
    window.erase(window.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return out;
}

/// Fits `delivery` through a reordering fitter and checks it against
/// Analyze of the same events and against the oracle, bit for bit.
void ExpectStreamedFitIsExact(const std::vector<IoEvent>& events,
                              const std::vector<IoEvent>& delivery, int n,
                              const AnalyzerOptions& options = {}) {
  ReorderingTraceFitter fitter(n, options);
  for (const IoEvent& ev : delivery) fitter.Observe(ev);
  auto streamed = fitter.Finish();
  const IoTrace trace = TraceOf(events);
  auto analyzed = TraceAnalyzer(options).Analyze(trace, n);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const WorkloadSet oracle = OracleFit(trace, n, options);
  ExpectSameWorkloads(*streamed, oracle);
  ExpectSameWorkloads(*analyzed, oracle);
}

TEST(FitStructureTest, CompletionInversionsWithinAnObject) {
  // Each object issues bursts whose later submits complete first (the
  // first request of a burst is the slowest), so its completions arrive
  // far from sorted; the self-overlap counts must still be exact.
  Rng rng(11);
  std::vector<IoEvent> events;
  double now = 0.0;
  for (int burst = 0; burst < 60; ++burst) {
    const ObjectId obj = static_cast<ObjectId>(burst % 3);
    const int len = 2 + static_cast<int>(rng.UniformInt(uint64_t{7}));
    const double end = now + 0.05 + rng.Uniform(0.0, 0.05);
    for (int r = 0; r < len; ++r) {
      // Later submits, earlier completions: strictly inverted.
      IoEvent ev = MakeEvent(now, end - r * 0.004, obj, r * 8 * kKiB,
                             8 * kKiB, r % 3 == 0);
      ev.seq = events.size();
      events.push_back(ev);
      now += 0.001;
    }
    now += rng.Bernoulli(0.5) ? 0.002 : 0.2;  // overlap the next burst or not
  }
  for (const double window : {0.0, 0.001, 0.05}) {
    SCOPED_TRACE(::testing::Message() << "window " << window);
    AnalyzerOptions options;
    options.overlap_window_s = window;
    std::vector<IoEvent> by_completion = events;
    std::stable_sort(by_completion.begin(), by_completion.end(),
                     [](const IoEvent& a, const IoEvent& b) {
                       return a.complete_time < b.complete_time;
                     });
    ExpectStreamedFitIsExact(events, by_completion, 3, options);
  }
  // Some object had more than one other request in flight.
  const WorkloadSet fit = OracleFit(TraceOf(events), 3);
  EXPECT_GT(fit[0].overlap_with(0), 1.0);
}

TEST(FitStructureTest, TiesInSubmitAndCompletionTimes) {
  // Submits tie across and within objects, completions tie with each
  // other and land exactly on later submit times (a completion at t is
  // closed at a submit at t).
  Rng rng(12);
  std::vector<IoEvent> events;
  const double grid = 0.0078125;  // 2^-7: sums of grid steps are exact
  for (int e = 0; e < 800; ++e) {
    const double submit = grid * static_cast<double>(e / 4);
    const double complete =
        submit + grid * static_cast<double>(rng.UniformInt(uint64_t{6}));
    IoEvent ev = MakeEvent(submit, complete,
                           static_cast<ObjectId>(rng.UniformInt(uint64_t{4})),
                           rng.UniformInt(int64_t{0}, int64_t{8}) * 8 * kKiB,
                           8 * kKiB, rng.Bernoulli(0.25));
    ev.seq = static_cast<uint64_t>(e);
    events.push_back(ev);
  }
  for (const double window : {0.0, grid, 2 * grid}) {
    SCOPED_TRACE(::testing::Message() << "window " << window);
    AnalyzerOptions options;
    options.overlap_window_s = window;
    std::vector<IoEvent> by_completion = events;
    std::stable_sort(by_completion.begin(), by_completion.end(),
                     [](const IoEvent& a, const IoEvent& b) {
                       return a.complete_time < b.complete_time;
                     });
    ExpectStreamedFitIsExact(events, by_completion, 4, options);
    ExpectStreamedFitIsExact(events, events, 4, options);  // all in order
  }
}

TEST(FitStructureTest, IdleObjectsReenterTheOverlapWalk) {
  // Object 0 is busy throughout; objects 1 and 2 go idle for longer than
  // the window and come back, so each re-opened interval must be walked
  // again for object 0's submits.
  std::vector<IoEvent> events;
  for (int k = 0; k < 400; ++k) {
    const double t = k * 0.01;
    events.push_back(MakeEvent(t, t + 0.004, 0, k * 8 * kKiB, 8 * kKiB));
    const int phase = (k / 25) % 4;
    if (phase == 1 || (phase == 3 && k % 2 == 0)) {
      events.push_back(MakeEvent(t + 0.002, t + 0.005,
                                 static_cast<ObjectId>(phase == 1 ? 1 : 2),
                                 k * 8 * kKiB, 8 * kKiB, true));
    }
  }
  for (size_t e = 0; e < events.size(); ++e) events[e].seq = e;
  AnalyzerOptions options;
  options.overlap_window_s = 0.003;
  ExpectStreamedFitIsExact(events, events, 3, options);
  const WorkloadSet fit = OracleFit(TraceOf(events), 3, options);
  EXPECT_GT(fit[0].overlap_with(1), 0.2);  // both re-opened repeatedly
  EXPECT_GT(fit[0].overlap_with(2), 0.1);
}

/// A dense-seq stream of `count` events over `n` objects with ties,
/// zero-latency requests and overlapping windows.
std::vector<IoEvent> RandomStream(int n, int count, Rng* rng) {
  std::vector<IoEvent> events;
  double now = 1.0;
  for (int e = 0; e < count; ++e) {
    if (rng->Bernoulli(0.6)) now += rng->Exponential(0.002);
    const double latency =
        rng->Bernoulli(0.1) ? 0.0 : rng->Exponential(0.01);
    IoEvent ev = MakeEvent(
        now, now + latency,
        static_cast<ObjectId>(rng->UniformInt(static_cast<uint64_t>(n))),
        rng->UniformInt(int64_t{0}, int64_t{256}) * 8 * kKiB, 8 * kKiB,
        rng->Bernoulli(0.3));
    ev.seq = static_cast<uint64_t>(e);
    events.push_back(ev);
  }
  return events;
}

TEST(FitStructureTest, DeepReorderGrowsTheBufferWhileEventsWait) {
  // Reorder depths far past the buffer's first size; at every 250th
  // delivery the snapshot must be the fit of the released prefix, so the
  // buffer grows with events still waiting, some of them in the far map.
  Rng rng(13);
  const int n = 5;
  const std::vector<IoEvent> events = RandomStream(n, 6000, &rng);
  for (const size_t depth : {size_t{100}, size_t{1500}, size_t{5999}}) {
    SCOPED_TRACE(::testing::Message() << "depth " << depth);
    std::vector<IoEvent> delivery = Scrambled(events, depth, &rng);
    if (depth == 5999) {  // the last ~half first, in reverse, then the rest
      delivery = events;
      std::reverse(delivery.begin() + 3000, delivery.end());
      std::rotate(delivery.begin(), delivery.begin() + 3000, delivery.end());
    }
    ReorderingTraceFitter fitter(n);
    std::vector<bool> seen(events.size(), false);
    size_t released = 0;
    int held_back = 0;
    for (size_t d = 0; d < delivery.size(); ++d) {
      fitter.Observe(delivery[d]);
      seen[delivery[d].seq] = true;
      while (released < seen.size() && seen[released]) ++released;
      if (d % 250 != 249 || released < 2) continue;
      SCOPED_TRACE(::testing::Message() << "after " << d + 1 << " events");
      if (d + 1 - released > 200) ++held_back;
      const std::vector<IoEvent> prefix(
          events.begin(),
          events.begin() + static_cast<std::ptrdiff_t>(released));
      auto snapshot = fitter.Snapshot();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      ExpectSameWorkloads(*snapshot, OracleFit(TraceOf(prefix), n));
    }
    EXPECT_GT(held_back, 0);
    auto fit = fitter.Finish();
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ExpectSameWorkloads(*fit, OracleFit(TraceOf(events), n));
  }
}

TEST(FitStructureTest, DuplicateOrGapAtEveryBufferSize) {
  // Seq 0 is held back while `held` later events wait, delivered in
  // reverse (so the first ones land too far ahead for the ring). Then a
  // duplicate of a waiting, far or released event fails the fit at once;
  // never sending seq 0 is a gap; sending it fits exactly.
  Rng rng(14);
  const int n = 3;
  const std::vector<IoEvent> events = RandomStream(n, 1100, &rng);
  std::vector<size_t> sizes;
  for (size_t held = 0; held <= 200; ++held) sizes.push_back(held);
  for (const size_t held : {255, 256, 257, 511, 512, 513, 1023, 1024, 1025}) {
    sizes.push_back(held);
  }
  const IoTrace whole = TraceOf(events);
  const WorkloadSet oracle = OracleFit(whole, n);
  for (const size_t held : sizes) {
    SCOPED_TRACE(::testing::Message() << held << " events waiting");
    const auto fed = [&](ReorderingTraceFitter* fitter) {
      for (size_t s = held; s >= 1; --s) fitter->Observe(events[s]);
    };
    const auto rest = [&](ReorderingTraceFitter* fitter) {
      for (size_t s = held + 1; s < events.size(); ++s) {
        fitter->Observe(events[s]);
      }
    };
    {
      ReorderingTraceFitter fitter(n);
      fed(&fitter);
      fitter.Observe(events[0]);
      rest(&fitter);
      auto fit = fitter.Finish();
      ASSERT_TRUE(fit.ok()) << fit.status().ToString();
      ExpectSameWorkloads(*fit, oracle);
    }
    {
      ReorderingTraceFitter gap(n);
      fed(&gap);
      rest(&gap);
      auto fit = gap.Finish();
      ASSERT_FALSE(fit.ok());
      EXPECT_TRUE(IsInvalidArgumentNaming(fit.status(), "event 0 was never"))
          << fit.status().ToString();
    }
    // Duplicates of the first (farthest) and the last waiting event.
    for (const size_t dup : {held, size_t{1}}) {
      if (held == 0) break;
      ReorderingTraceFitter duplicate(n);
      fed(&duplicate);
      duplicate.Observe(events[dup]);
      EXPECT_TRUE(IsInvalidArgumentNaming(duplicate.Snapshot().status(),
                                          "observed twice"));
      duplicate.Observe(events[0]);
      rest(&duplicate);
      EXPECT_TRUE(IsInvalidArgumentNaming(duplicate.Finish().status(),
                                          "observed twice"));
    }
    {
      ReorderingTraceFitter replayed(n);
      fed(&replayed);
      replayed.Observe(events[0]);
      replayed.Observe(events[held]);  // released by now
      rest(&replayed);
      EXPECT_TRUE(IsInvalidArgumentNaming(replayed.Finish().status(),
                                          "observed twice"));
    }
  }
}

TEST(FitStructureTest, DuplicateOfAFarEventOnceTheRingReachesIt) {
  // An event arrives far ahead and waits outside the ring; once the
  // stream has caught up to within the ring's reach, its duplicate lands
  // in the ring's range and must still be caught.
  Rng rng(15);
  const std::vector<IoEvent> events = RandomStream(2, 1200, &rng);
  ReorderingTraceFitter fitter(2);
  fitter.Observe(events[1]);     // opens the ring
  fitter.Observe(events[1000]);  // far ahead of it
  fitter.Observe(events[0]);
  for (size_t s = 2; s < 990; ++s) fitter.Observe(events[s]);
  EXPECT_TRUE(fitter.Snapshot().ok());
  fitter.Observe(events[1000]);
  EXPECT_TRUE(IsInvalidArgumentNaming(fitter.Snapshot().status(),
                                      "event 1000 observed twice"));
  // Without the duplicate the far event is released in turn.
  ReorderingTraceFitter clean(2);
  clean.Observe(events[1]);
  clean.Observe(events[1000]);
  clean.Observe(events[0]);
  for (size_t s = 2; s < events.size(); ++s) {
    if (s != 1000) clean.Observe(events[s]);
  }
  auto fit = clean.Finish();
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ExpectSameWorkloads(*fit, OracleFit(TraceOf(events), 2));
}

TEST(FitStructureTest, DecayedFitAcrossRebasesIsFrontEndIndependent) {
  // With decay on and the weights' exponent passing the rebase point many
  // times, the fit through the reordering front end (deeply scrambled,
  // snapshots taken on the way) equals the core fed in order bit for bit,
  // every snapshot equals a fresh fitter's fit of the released prefix,
  // and the whole matches the weighted oracle.
  Rng rng(16);
  const int n = 4;
  std::vector<IoEvent> events = RandomStream(n, 4000, &rng);
  // Object 3 goes idle for the middle third and comes back.
  for (IoEvent& ev : events) {
    if (ev.object == 3 && ev.seq > 1300 && ev.seq < 2700) ev.object = 2;
  }
  const IoTrace trace = TraceOf(events);
  // The last weight's exponent is ~277: four rebases at 64.
  const double half_life = trace.Duration() / 400;
  TraceFitter in_order(n, {}, half_life);
  for (const IoEvent& ev : events) in_order.Add(ev, ev.seq);
  auto direct = in_order.Finish();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  const std::vector<IoEvent> delivery = Scrambled(events, 700, &rng);
  ReorderingTraceFitter fitter(n, {}, half_life);
  std::vector<bool> seen(events.size(), false);
  size_t released = 0;
  int snapshots = 0;
  for (size_t d = 0; d < delivery.size(); ++d) {
    fitter.Observe(delivery[d]);
    seen[delivery[d].seq] = true;
    while (released < seen.size() && seen[released]) ++released;
    if (d % 500 != 499 || released < 2) continue;
    ++snapshots;
    SCOPED_TRACE(::testing::Message() << "after " << d + 1 << " events");
    TraceFitter prefix(n, {}, half_life);
    for (size_t s = 0; s < released; ++s) prefix.Add(events[s], s);
    auto want = prefix.Finish();
    auto got = fitter.Snapshot();
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameWorkloads(*got, *want);
  }
  EXPECT_GE(snapshots, 6);
  auto streamed = fitter.Finish();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectSameWorkloads(*streamed, *direct);
  const OracleDecay decay = DecayWeights(trace, half_life);
  ExpectNearWorkloads(*streamed, OracleFit(trace, n, {}, &decay), 1e-12);
}

}  // namespace
}  // namespace ldb
