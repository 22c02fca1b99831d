#ifndef LAYOUTDB_MONITOR_ONLINE_ANALYZER_H_
#define LAYOUTDB_MONITOR_ONLINE_ANALYZER_H_

#include <cstdint>

#include "model/workload.h"
#include "storage/io_request.h"
#include "trace/analyzer.h"

namespace ldb {

/// Options of the monitor's live fit: the batch fit's options plus the
/// decay half-life.
struct OnlineAnalyzerOptions : AnalyzerOptions {
  /// Exponential-decay half-life of the fit in simulated seconds; recent
  /// traffic dominates and phases fade at this rate. <= 0 disables decay
  /// (all-history window, exactly the batch fit).
  double half_life_s = 15.0;
  /// No effect (overlap rows are always CSR); kept because layoutbench sets it.
  bool sparse_overlap = false;
};

/// The autopilot's sensor: the one trace fit (TraceFitter, behind the
/// seq-reordering front end) over the live logical-event stream, decayed
/// by `half_life_s`. Observed events must follow ReorderingTraceFitter's
/// dense-seq contract, as WorkloadRunner's and ScenarioPlayer's do.
/// With decay off, the snapshot after the last event equals
/// TraceAnalyzer::Analyze of the same events exactly.
class OnlineAnalyzer {
 public:
  explicit OnlineAnalyzer(int num_objects, OnlineAnalyzerOptions options = {})
      : n_(num_objects), fitter_(num_objects, options, options.half_life_s) {}

  /// Feeds one completed object-level request, in any completion order.
  void Observe(const IoEvent& ev) {
    ++events_;
    fitter_.Observe(ev);
  }

  /// Fits the released prefix (ReorderingTraceFitter::Snapshot) as if the
  /// stream ended now. Until that prefix spans positive time every object
  /// gets an all-zero description. Aborts on an input error (a bad event
  /// or a duplicate seq), which is a caller bug.
  WorkloadSet Snapshot() const;

  uint64_t events() const { return events_; }

 private:
  int n_;
  ReorderingTraceFitter fitter_;
  uint64_t events_ = 0;
};

}  // namespace ldb

#endif  // LAYOUTDB_MONITOR_ONLINE_ANALYZER_H_
