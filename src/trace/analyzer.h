#ifndef LAYOUTDB_TRACE_ANALYZER_H_
#define LAYOUTDB_TRACE_ANALYZER_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
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
/// of its current merged padded busy interval, and its in-flight
/// completion times as a sorted run. A submit at `t` is tested once an
/// event whose padded start exceeds `t` has arrived (or at Finish): by then
/// every event that can cover `t` has been merged, so `t` hits object k iff
/// `t` is at most k's current busy end. Only the objects whose busy end has
/// not fallen behind the tested submits are walked. State is O(objects² +
/// in-flight + one overlap window of pending submits).
///
/// Exponential decay (the autopilot's live window): with a positive
/// half-life every event is weighted by exp(λ·(submit_time − t_ref)), λ =
/// ln 2 / half-life, and every counter is a weighted sum. `t_ref` is the
/// first submit, moved forward (rescaling every sum) before an exponent
/// passes kRebaseExponent. Rates are the sums brought to the last
/// completion T, divided by the decayed window length (1 − e^{−λD})/λ of
/// the span D; sizes, run counts and overlap rows are weighted ratios.
/// With decay off every weight is exactly 1.0, every sum an exact integer,
/// and the fit is the batch fit bit for bit.
///
/// Input errors (unknown object, non-finite times, completion before
/// submission, out-of-order submission) are sticky: the first one is kept,
/// later events are ignored, and Snapshot()/Finish() return it.
class TraceFitter {
 public:
  /// \param num_objects fits objects 0..num_objects-1 (must be positive).
  /// \param half_life_s decay half-life in seconds of submit time; <= 0
  ///   or infinite weighs every event 1.0 (the batch fit).
  TraceFitter(int num_objects, AnalyzerOptions options = {},
              double half_life_s = 0.0);

  /// Feeds the next event in (submit_time, seq) order. `index` names the
  /// event in error messages.
  void Add(const IoEvent& ev, uint64_t index);

  /// The fit of every event added so far, as if the stream ended now: the
  /// pending submits are resolved on a copy, so the fitter keeps going.
  /// Equals Finish() on the same events. Rates are computed over the trace
  /// duration (max completion minus min submit). Objects with no requests
  /// get an all-zero description (rate 0, run_count 1).
  ///
  /// \returns InvalidArgument on the first bad event, or
  ///   FailedPrecondition while the events so far span no time (none yet,
  ///   or all at one instant): there is no rate to fit yet.
  Result<WorkloadSet> Snapshot() const;

  /// The fit of the whole stream; the fitter is spent afterwards.
  ///
  /// \returns InvalidArgument on the first bad event, an empty stream, or
  ///   a stream spanning zero time.
  Result<WorkloadSet> Finish();

 private:
  /// Weighted sums; with decay off they hold exact integer counts.
  struct ObjectState {
    double reads = 0.0;
    double writes = 0.0;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    double runs = 0.0;
    double requests = 0.0;
    double concurrent_sum = 0.0;  ///< self-overlap numerator
    uint64_t resolved = 0;   ///< own submits tested so far
    uint64_t completed = 0;  ///< own completions popped from `inflight`
    /// Own completion times not yet at or before a tested submit, in
    /// ascending order from `inflight_head` (the entries before it are
    /// popped). Completions arrive almost in order, so each is inserted
    /// from the back in a step or two.
    std::vector<double> inflight;
    size_t inflight_head = 0;
  };
  struct PendingSubmit {
    double t;
    int32_t object;
  };

  /// Largest λ·(submit_time − t_ref) before t_ref moves: e^64 times any
  /// trace's byte total stays far below the double range.
  static constexpr double kRebaseExponent = 64.0;

  /// Tests every pending submit earlier than `bound` against the current
  /// busy intervals, equal submit times together.
  void ResolveBefore(double bound);
  /// The weight of an event submitted at `t`, relative to t_ref.
  double Weight(double t) const {
    return lambda_ > 0.0 ? std::exp(lambda_ * (t - t_ref_)) : 1.0;
  }
  /// Moves t_ref to `t`, rescaling every weighted sum.
  void Rebase(double t);

  void Fail(Status status);

  int n_;
  AnalyzerOptions options_;
  double lambda_ = 0.0;  ///< ln 2 / half-life; 0 = no decay
  double t_ref_ = 0.0;   ///< weight-1 time of the weighted sums
  std::vector<ObjectState> objects_;
  std::vector<SequentialRunTracker> trackers_;
  /// Upper end of each object's current merged padded busy interval.
  std::vector<double> busy_hi_;
  /// The objects whose busy end is at or after the last tested submit, in
  /// any order; in_busy_[k] says whether k is listed. Every other object's
  /// hit is 0 until an Add re-opens its interval.
  std::vector<int32_t> busy_;
  std::vector<char> in_busy_;
  /// hits_[i * n + k]: weight of i's submits inside k's busy intervals.
  std::vector<double> hits_;
  std::vector<PendingSubmit> pending_;  ///< FIFO from `pending_head_`
  size_t pending_head_ = 0;
  uint64_t events_ = 0;
  double last_submit_ = -std::numeric_limits<double>::infinity();
  double min_submit_ = std::numeric_limits<double>::infinity();
  double max_complete_ = -std::numeric_limits<double>::infinity();
  Status error_;
};

/// Streaming front end for a simulation's logical observer: accepts
/// completed events in any order and feeds TraceFitter in submission
/// order. An event carrying the next seq while nothing waits goes straight
/// to the fitter; any other waits in a ring indexed by seq (or, if its seq
/// is too far ahead for the ring, in an ordered map) until the seqs before
/// it have arrived.
///
/// Dense-seq contract: the observed events carry seq 0, 1, 2, ... with
/// each value exactly once, and submit_time is nondecreasing in seq
/// (WorkloadRunner's and ScenarioPlayer's logical events satisfy this).
/// Memory is O(events completed ahead of the oldest outstanding one), not
/// O(trace) and not O(seq distance). A duplicate is reported by Snapshot()
/// and Finish(), a gap by Finish().
class ReorderingTraceFitter {
 public:
  ReorderingTraceFitter(int num_objects, AnalyzerOptions options = {},
                        double half_life_s = 0.0);

  /// Observes one completed event (any completion order).
  void Observe(const IoEvent& ev);

  /// The fit of the released prefix (seq below the oldest one not yet
  /// observed) as if the stream ended now; events still waiting are left
  /// out. A duplicate seq is an InvalidArgument; otherwise see
  /// TraceFitter::Snapshot().
  Result<WorkloadSet> Snapshot() const;

  /// \returns the fit, or InvalidArgument on a bad event, a seq gap or
  ///   duplicate, or a stream spanning zero time.
  Result<WorkloadSet> Finish();

 private:
  /// Smallest ring, in events; it is allocated on the first wait.
  static constexpr uint64_t kMinRing = 64;

  /// Stores `ev`, whose seq is at or after next_seq_, until it is next.
  void Hold(const IoEvent& ev);
  /// Enlarges the ring to reach `ahead` seqs past next_seq_, but never past
  /// the larger of kMinRing and four times the events waiting (rounded up
  /// to a power of two).
  void Grow(uint64_t ahead);
  /// Feeds the fitter every waiting event whose seq is next.
  void Release();

  TraceFitter fitter_;
  /// Slot `s & (size - 1)` holds the event with seq s iff that slot's seq
  /// is s: released slots keep a seq below next_seq_ and never match.
  std::vector<IoEvent> ring_;
  size_t held_ = 0;  ///< events waiting in `ring_`
  /// Events whose seq was too far ahead for the ring when they arrived.
  std::map<uint64_t, IoEvent> far_;
  uint64_t next_seq_ = 0;  ///< oldest seq not yet released
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
