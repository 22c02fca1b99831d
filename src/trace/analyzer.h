#ifndef LAYOUTDB_TRACE_ANALYZER_H_
#define LAYOUTDB_TRACE_ANALYZER_H_

#include <cstdint>

#include "model/workload.h"
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
  /// considered concurrent.
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

/// Rubicon-style trace analysis (paper Section 5.1): fits the Rome workload
/// parameters of Figure 5 — per-object read/write request rates and sizes,
/// mean sequential run counts, and the pairwise temporal-overlap matrix —
/// from an I/O trace.
class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(AnalyzerOptions options = {}) : options_(options) {}

  /// Fits workload descriptions for objects 0..num_objects-1.
  ///
  /// Rates are computed over the trace duration. Objects with no requests
  /// get an all-zero description (rate 0, run_count 1).
  ///
  /// \returns InvalidArgument if the trace is empty or references an object
  ///   outside [0, num_objects).
  Result<WorkloadSet> Analyze(const IoTrace& trace, int num_objects) const;

 private:
  AnalyzerOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_TRACE_ANALYZER_H_
