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

TEST(IoTraceTest, CountsPerObject) {
  IoTrace t;
  t.Add(MakeEvent(0, 1, 3, 0, kKiB));
  t.Add(MakeEvent(1, 2, 3, 0, kKiB));
  t.Add(MakeEvent(2, 3, 5, 0, kKiB));
  EXPECT_EQ(t.CountForObject(3), 2u);
  EXPECT_EQ(t.CountForObject(5), 1u);
  EXPECT_EQ(t.CountForObject(0), 0u);
}

TEST(TraceCollectorTest, CapturesSystemEvents) {
  DiskModel disk(Scsi15kParams());
  StorageSystem sys({{"d", &disk, 1, 64 * kKiB}});
  TraceCollector collector(&sys);
  for (int i = 0; i < 5; ++i) {
    sys.Submit(0, {i * kMiB, kMiB / 4, false, 2, i * kMiB}, nullptr);
  }
  sys.queue().RunUntilIdle();
  EXPECT_EQ(collector.trace().size(), 5u);
  EXPECT_EQ(collector.trace().CountForObject(2), 5u);
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

}  // namespace
}  // namespace ldb
