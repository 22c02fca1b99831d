#ifndef LAYOUTDB_SOLVER_LAYOUT_NLP_H_
#define LAYOUTDB_SOLVER_LAYOUT_NLP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "model/column_eval.h"
#include "model/constraints.h"
#include "model/layout.h"

namespace ldb {

/// The layout problem as seen by the NLP solver (paper Section 4):
/// minimize max_j µ_j(L) over valid layouts L. The utilization function is
/// a black box — exactly how the paper plugs its non-AMPL target models
/// into MINOS as external functions.
struct LayoutNlpProblem {
  int num_objects = 0;
  int num_targets = 0;
  std::vector<int64_t> object_sizes;      ///< s_i, bytes
  std::vector<int64_t> target_capacities; ///< c_j, bytes

  /// µ_j under layout L. Must be defined for any L with entries in [0,1]
  /// (rows need not sum exactly to 1 during finite differencing), and must
  /// be safe to call concurrently from multiple threads when the solver
  /// runs with num_threads > 1 (pure functions of their arguments are).
  std::function<double(const Layout& layout, int j)> target_utilization;

  /// Optional fast path: a factory for incremental per-column evaluators
  /// (see model/column_eval.h). When set, the solver prices its
  /// finite-difference perturbations through rank-1 cache updates instead
  /// of full µ_j recomputations — the difference between O(N²) and O(N)
  /// per perturbed coordinate. When unset, `target_utilization` is used
  /// for everything. Evaluators returned for distinct columns must be
  /// independently usable from different threads.
  std::function<std::unique_ptr<ColumnEvaluator>(int j)> make_column_eval;

  /// Administrative constraints (paper Section 4): allowed-target
  /// restrictions enter as a reduced feasible simplex per row; separation
  /// constraints enter as annealed quadratic penalties.
  PlacementConstraints constraints;

  /// Warm-start freezing for incremental re-solves (failure-aware
  /// re-layout): rows marked non-zero are taken verbatim from the initial
  /// layout and never perturbed — no seed projection, zero gradient, no
  /// update, and no capacity-repair donation. Empty = nothing frozen; size
  /// must equal num_objects when set.
  std::vector<char> frozen_rows;

  /// Analytic utilization Jacobian: fills
  /// grad_out[i·num_targets + j] = ∂µ_j/∂L_ij (row-major N×M) via the
  /// column evaluators' fused batched passes and returns true. Returns
  /// false — leaving grad_out untouched — when the problem carries no
  /// analytic-gradient support (no make_column_eval, or evaluators that do
  /// not implement it); callers then fall back to finite differences.
  /// Convenience entry point for tests and tools; the solver holds
  /// persistent evaluators instead of re-creating them per call.
  bool Gradient(const Layout& layout, double* grad_out) const;
};

/// How the projected-gradient solver prices ∇(objective).
enum class GradientMode {
  /// Closed-form gradient through the interpolated cost tables, the
  /// per-column statistics, and the SmoothMax/penalty composition — one
  /// fused value+gradient pass per column per step. Falls back to kFd
  /// when the problem provides no analytic support.
  kAnalytic,
  /// Central finite differences (2·N·M objective perturbations per step).
  /// Retained as the differential-testing baseline.
  kFd,
};

/// Tuning knobs of the projected-gradient layout solver.
struct SolverOptions {
  int max_iterations_per_round = 60;  ///< gradient steps per annealing round
  int annealing_rounds = 6;           ///< smooth-max / penalty schedule length
  double fd_step = 1e-4;              ///< central finite-difference step
  double initial_step = 0.25;        ///< first trial step length
  double armijo_c = 1e-4;            ///< sufficient-decrease coefficient
  double backtrack = 0.5;            ///< step shrink factor
  int max_backtracks = 25;
  double tolerance = 1e-6;  ///< relative improvement deemed converged
  int patience = 6;         ///< converged iterations before stopping a round
  double smoothmax_t0 = 30.0;      ///< initial log-sum-exp temperature
  double smoothmax_growth = 2.5;   ///< temperature multiplier per round
  double penalty0 = 10.0;          ///< initial capacity-violation weight
  double penalty_growth = 4.0;     ///< penalty multiplier per round

  /// Worker threads for the evaluation engine: 1 = fully serial (default),
  /// 0 = one per hardware core, n > 1 = exactly n. Results are
  /// bit-identical across thread counts — the finite-difference grid and
  /// multi-start seeds are partitioned into index-addressed slots and all
  /// reductions run serially in index order.
  int num_threads = 1;

  /// Use the problem's incremental column evaluators (when provided) for
  /// finite-difference pricing. Off switches the solver back to full µ_j
  /// recomputations per perturbation — the pre-cache engine, kept as the
  /// benchmark baseline. Only consulted in kFd gradient mode (or when
  /// analytic mode falls back to finite differences).
  bool use_incremental_cache = true;

  /// Gradient engine (see GradientMode). Analytic by default; kFd pins
  /// the finite-difference path for differential testing and benchmarks.
  GradientMode gradient_mode = GradientMode::kAnalytic;

  /// Record a per-accepted-step convergence trace (iteration, elapsed ns,
  /// true max µ) into SolverResult::trace. The trace is measurement only
  /// — the ns column varies run to run, the quality column is
  /// deterministic. Off by default; the benches turn it on to report
  /// time-to-matched-quality across engines.
  bool record_trace = false;
};

/// One accepted solver step in the convergence trace.
struct SolverTracePoint {
  int iteration = 0;     ///< cumulative gradient steps when recorded
  int64_t ns = 0;        ///< elapsed wall time since Solve() entry
  double true_max = 0.0; ///< true max_j µ_j at the accepted iterate
};

/// Wall-clock and call counts of one solver phase (leanstore-style
/// profiling table row; timings are measurement, not part of the
/// deterministic result).
struct SolverPhaseStats {
  int64_t calls = 0;
  int64_t ns = 0;

  void Accumulate(const SolverPhaseStats& o) {
    calls += o.calls;
    ns += o.ns;
  }
};

/// Per-phase effort breakdown of a solve, surfaced through the benches'
/// --json output so speedups land with numbers attached.
struct SolverProfile {
  /// Per-step gradient work: the FD sweep, or in analytic mode only the
  /// SmoothMax/penalty composition (the column passes run with the trials).
  SolverPhaseStats gradient;
  SolverPhaseStats line_search;  ///< backtracking trial evaluations
  SolverPhaseStats refresh;      ///< seed pricing and accepted-state adoption

  void Accumulate(const SolverProfile& o) {
    gradient.Accumulate(o.gradient);
    line_search.Accumulate(o.line_search);
    refresh.Accumulate(o.refresh);
  }
};

/// Outcome of one solver run.
struct SolverResult {
  Layout layout;            ///< optimized (generally non-regular) layout
  double max_utilization;   ///< true max_j µ_j of `layout`
  int iterations = 0;       ///< gradient steps taken
  /// Full µ_j column evaluations (O(N²) each). 64-bit: at Figure 19
  /// scales 2·N·M·iterations overflows 32 bits.
  int64_t objective_evaluations = 0;
  /// Rank-1 incremental µ_j evaluations (O(N) each) served by the column
  /// cache instead of a full recompute.
  int64_t incremental_evaluations = 0;
  /// Fused analytic value+gradient column passes that ran: one per column
  /// for the seed and for every line-search trial in analytic mode; 0
  /// under finite differences.
  int64_t gradient_evaluations = 0;
  /// Cost-table lookups issued by the batched analytic kernels (each
  /// visits the 2^dims corners of one grid cell).
  int64_t interp_queries = 0;
  /// Per-phase counters and timings of this solve.
  SolverProfile profile;
  /// Convergence trace of accepted steps (only when
  /// SolverOptions::record_trace; under multi-start, the winning seed's).
  std::vector<SolverTracePoint> trace;
  bool feasible = false;    ///< capacity constraints satisfied

  SolverResult() : layout(1, 1), max_utilization(0) {}
};

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_LAYOUT_NLP_H_
