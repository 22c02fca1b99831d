#include <vector>

#include <gtest/gtest.h>

#include "storage/disk.h"
#include "storage/storage_system.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
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

}  // namespace
}  // namespace ldb
