#ifndef LAYOUTDB_TRACE_ANALYZER_H_
#define LAYOUTDB_TRACE_ANALYZER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "model/workload.h"
#include "trace/run_tracker.h"
#include "trace/trace.h"
#include "util/status.h"
#include "util/units.h"

namespace ldb {

/// Options for fitting workload descriptions to a trace.
struct AnalyzerOptions {
  /// A request whose logical offset starts within this many bytes after the
  /// previous request's logical end still counts as continuing a sequential
  /// run (readahead absorbs small skips).
  int64_t sequential_slack_bytes = 16 * kKiB;
  /// Padding added around each request's in-flight interval when computing
  /// temporal overlap: two requests within this window of each other are
  /// considered concurrent. Must be finite and >= 0.
  double overlap_window_s = 0.05;
  /// Number of interleaved sequential runs tracked per object. Concurrent
  /// queries scanning the same object interleave their requests in the
  /// trace; tracking several open runs (as Rubicon-style analysis does)
  /// recovers each stream's sequentiality instead of reporting run counts
  /// of ~1. Bounded, so very high concurrency still fits lower run counts
  /// — the paper's observation that LINEITEM is "less sequential" under
  /// OLAP8-63 than OLAP1-63.
  int max_open_runs = 8;
};

/// The ordered fitting core of the Rubicon-style trace fit (paper Section
/// 5.1): consumes object-level events in (submit_time, seq) order and fits
/// the Rome workload parameters of Figure 5 — per-object read/write request
/// rates and sizes, mean sequential run counts, and the pairwise
/// temporal-overlap rows — without storing the trace.
///
/// Each object keeps its counters, its SequentialRunTracker, the upper end
/// of its current merged padded busy interval, and a heap of its in-flight
/// completion times. A submit at `t` is tested once an event whose padded
/// start exceeds `t` has arrived (or at Finish): by then every event that
/// can cover `t` has been merged, so `t` hits object k iff `t` is at most
/// k's current busy end. State is O(objects² + in-flight + one overlap
/// window of pending submits).
///
/// Input errors (unknown object, non-finite times, completion before
/// submission, out-of-order submission) are sticky: the first one is kept,
/// later events are ignored, and Finish() returns it.
class TraceFitter {
 public:
  /// \param num_objects fits objects 0..num_objects-1 (must be positive).
  TraceFitter(int num_objects, AnalyzerOptions options = {});

  /// Feeds the next event in (submit_time, seq) order. `index` names the
  /// event in error messages.
  void Add(const IoEvent& ev, uint64_t index);

  /// Resolves the pending submits and returns the fitted workloads. Rates
  /// are computed over the trace duration (max completion minus min
  /// submit). Objects with no requests get an all-zero description (rate
  /// 0, run_count 1). The fitter is spent afterwards.
  ///
  /// \returns InvalidArgument on the first bad event, an empty stream, or
  ///   a stream spanning zero time.
  Result<WorkloadSet> Finish();

 private:
  struct ObjectState {
    uint64_t reads = 0;
    uint64_t writes = 0;
    int64_t read_bytes = 0;
    int64_t write_bytes = 0;
    uint64_t runs = 0;
    uint64_t requests = 0;
    uint64_t resolved = 0;   ///< own submits tested so far
    uint64_t completed = 0;  ///< own completions popped from `inflight`
    uint64_t concurrent_sum = 0;  ///< self-overlap numerator
    /// Own completion times not yet at or before a tested submit.
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        inflight;
  };
  struct PendingSubmit {
    double t;
    int32_t object;
  };

  /// Tests every pending submit earlier than `bound` against the current
  /// busy intervals, equal submit times together.
  void ResolveBefore(double bound);

  void Fail(Status status);

  int n_;
  AnalyzerOptions options_;
  std::vector<ObjectState> objects_;
  std::vector<SequentialRunTracker> trackers_;
  /// Upper end of each object's current merged padded busy interval.
  std::vector<double> busy_hi_;
  /// hits_[i * n + k]: i's submits inside k's busy intervals.
  std::vector<uint64_t> hits_;
  std::vector<PendingSubmit> pending_;  ///< FIFO from `pending_head_`
  size_t pending_head_ = 0;
  uint64_t events_ = 0;
  double last_submit_ = -std::numeric_limits<double>::infinity();
  double min_submit_ = std::numeric_limits<double>::infinity();
  double max_complete_ = -std::numeric_limits<double>::infinity();
  Status error_;
};

/// Streaming front end for a simulation's logical observer: accepts
/// completed events in any order, reorders them through a min-heap keyed
/// on a dense sequence number, and feeds TraceFitter in submission order.
///
/// Dense-seq contract: the observed events carry seq 0, 1, 2, ... with
/// each value exactly once, and submit_time is nondecreasing in seq
/// (WorkloadRunner's and ScenarioPlayer's logical events satisfy this).
/// Memory is O(events completed ahead of the oldest outstanding one), not
/// O(trace). A violation is reported by Finish().
class ReorderingTraceFitter {
 public:
  ReorderingTraceFitter(int num_objects, AnalyzerOptions options = {});

  /// Observes one completed event (any completion order).
  void Observe(const IoEvent& ev);

  /// \returns the fit, or InvalidArgument on a bad event, a seq gap or
  ///   duplicate, or a stream spanning zero time.
  Result<WorkloadSet> Finish();

 private:
  TraceFitter fitter_;
  std::vector<IoEvent> pending_;  ///< heap of events not yet released
  uint64_t next_seq_ = 0;         ///< oldest seq not yet released
  Status error_;
};

/// Rubicon-style trace analysis (paper Section 5.1) of a stored trace:
/// fits the Rome workload parameters of Figure 5 from an IoTrace in any
/// order, through the same TraceFitter core.
class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(AnalyzerOptions options = {}) : options_(options) {}

  /// Fits workload descriptions for objects 0..num_objects-1.
  ///
  /// Rates are computed over the trace duration. Objects with no requests
  /// get an all-zero description (rate 0, run_count 1).
  ///
  /// \returns InvalidArgument if the trace is empty or spans zero time, or
  ///   names the index of the first event that references an object
  ///   outside [0, num_objects), has a non-finite time, or completes
  ///   before it was submitted.
  Result<WorkloadSet> Analyze(const IoTrace& trace, int num_objects) const;

 private:
  AnalyzerOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_TRACE_ANALYZER_H_
