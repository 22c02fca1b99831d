#ifndef LAYOUTDB_MONITOR_ONLINE_ANALYZER_H_
#define LAYOUTDB_MONITOR_ONLINE_ANALYZER_H_

#include <cstdint>
#include <vector>

#include "model/workload.h"
#include "storage/io_request.h"
#include "trace/run_tracker.h"
#include "util/units.h"

namespace ldb {

/// Options of the streaming workload analyzer. The sequential-run and
/// overlap knobs default to the batch TraceAnalyzer's values so a
/// stationary window reproduces the batch fit.
struct OnlineAnalyzerOptions {
  /// Exponential-decay half-life of the statistics window in simulated
  /// seconds; recent traffic dominates the fit and phases fade at this
  /// rate. <= 0 disables decay (all-history window, exactly the batch
  /// analyzer's semantics).
  double half_life_s = 15.0;
  /// See AnalyzerOptions::sequential_slack_bytes.
  int64_t sequential_slack_bytes = 16 * kKiB;
  /// See AnalyzerOptions::overlap_window_s.
  double overlap_window_s = 0.05;
  /// See AnalyzerOptions::max_open_runs.
  int max_open_runs = 8;
  /// Recent completed requests retained per object for the deferred half
  /// of overlap accounting (an arriving in-flight interval is matched
  /// against submits observed before it). Bounded: requests older than the
  /// ring undercount overlap slightly, which the windowed estimate
  /// tolerates.
  int ring_capacity = 256;
  /// Merged padded busy intervals retained per object (the immediate half
  /// of overlap accounting). Continuous activity merges into few
  /// intervals; only workloads with many gaps longer than
  /// 2*overlap_window_s need depth here.
  int busy_capacity = 64;
  /// No effect (overlap rows are always CSR); kept because layoutbench sets it.
  bool sparse_overlap = false;
};

/// Streaming counterpart of TraceAnalyzer (the monitor's sensor): ingests
/// object-level completion events one at a time — O(ring scan) per event,
/// no allocation after construction — and maintains exponentially-decayed
/// Rome workload statistics per object: read/write rates and sizes,
/// sequential run counts, and the full temporal-overlap matrix including
/// the self-overlap diagonal.
///
/// With decay disabled the statistics over a stationary window match the
/// batch analyzer's up to two bounded effects: events arrive in completion
/// order rather than submit order (run detection can interleave
/// differently near the max_open_runs bound) and the per-object rings
/// truncate overlap lookback. The differential test pins the agreement.
///
/// Overlap accounting splits each (submit of i, in-flight interval of k)
/// pair by observation order: an arriving submit is checked against k's
/// already-merged busy intervals, and an arriving interval is checked
/// against every object's retained submits. A per-entry bitmask caps
/// off-diagonal hits at one per submit per k, matching the batch
/// definition (fraction of i's submits inside k's merged busy union).
class OnlineAnalyzer {
 public:
  explicit OnlineAnalyzer(int num_objects, OnlineAnalyzerOptions options = {});

  /// Feeds one completed object-level request (the WorkloadRunner's
  /// logical-observer event). Events must arrive in completion order, as
  /// the simulator delivers them. Allocation-free.
  void Observe(const IoEvent& ev);

  /// Fits the current window: one WorkloadDesc per object, rates
  /// normalized by the effective (decay-weighted) window length. Objects
  /// with no surviving weight get an all-zero description. The result
  /// always satisfies IsValidWorkload.
  WorkloadSet Snapshot() const;

  /// Forgets everything (a fresh window).
  void Reset();

  int num_objects() const { return n_; }
  uint64_t events() const { return events_; }
  const OnlineAnalyzerOptions& options() const { return options_; }

 private:
  struct Row {
    double last_t = 0.0;  ///< decay reference time of this row's counters
    double reads = 0.0;
    double writes = 0.0;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    double runs = 0.0;
    double requests = 0.0;
    double self_sum = 0.0;  ///< Σ over submits of own other in-flight reqs
    int ring_head = 0;      ///< oldest live slot in the submit ring
    int ring_size = 0;
    int busy_head = 0;
    int busy_size = 0;
  };

  /// One retained completed request (submit ring entry).
  struct Entry {
    double submit = 0.0;
    double complete = 0.0;
  };

  struct BusyInterval {
    double lo = 0.0;
    double hi = 0.0;
  };

  double DecayFactor(double dt) const;
  /// Brings row i's decayed counters (including its hits_ row) to time t.
  void DecayRowTo(int i, double t);

  uint64_t* MaskOf(int object, int slot);
  const uint64_t* MaskOf(int object, int slot) const;

  int n_;
  OnlineAnalyzerOptions options_;
  double lambda_ = 0.0;  ///< ln 2 / half_life (0 = no decay)
  int mask_words_ = 1;

  std::vector<Row> rows_;
  std::vector<double> hits_;  ///< N x N decayed overlap hit counts
  std::vector<SequentialRunTracker> trackers_;
  std::vector<Entry> ring_;           ///< N x ring_capacity submit entries
  std::vector<uint64_t> masks_;       ///< N x ring_capacity x mask_words
  std::vector<BusyInterval> busy_;    ///< N x busy_capacity merged intervals
  std::vector<uint64_t> mask_scratch_;

  uint64_t events_ = 0;
  double min_submit_ = 0.0;
  double max_complete_ = 0.0;
};

}  // namespace ldb

#endif  // LAYOUTDB_MONITOR_ONLINE_ANALYZER_H_
