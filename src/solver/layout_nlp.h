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
/// minimize max_j µ_j(L) over valid layouts L. The paper plugs its non-AMPL
/// target models into MINOS as black-box external functions; here the
/// target model also supplies ∂µ_j/∂L_·j in closed form, through one fused
/// value+gradient evaluator per column.
struct LayoutNlpProblem {
  int num_objects = 0;
  int num_targets = 0;
  std::vector<int64_t> object_sizes;      ///< s_i, bytes
  std::vector<int64_t> target_capacities; ///< c_j, bytes

  /// Scalar µ_j under layout L, for any L with entries in [0,1]. The
  /// randomized-search baseline prices layouts with it; the projected-
  /// gradient solver does not read it.
  std::function<double(const Layout& layout, int j)> target_utilization;

  /// Factory for the per-column value+gradient evaluators the
  /// projected-gradient solver prices every layout with (see
  /// model/column_eval.h). Required by that solver. Evaluators returned for
  /// distinct columns must be independently usable from different threads.
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
};

/// Tuning knobs of the projected-gradient layout solver.
struct SolverOptions {
  /// Cap on the gradient steps of one annealing round; a round that
  /// converges first ends early.
  int max_iterations_per_round = 60;
  int annealing_rounds = 6;           ///< smooth-max / penalty schedule length
  double smoothmax_t0 = 30.0;      ///< initial log-sum-exp temperature
  double smoothmax_growth = 2.5;   ///< temperature multiplier per round

  /// Worker threads for the evaluation engine: 1 = fully serial (default),
  /// 0 = one per hardware core, n > 1 = exactly n. Results are
  /// bit-identical across thread counts — the per-column passes and
  /// the raced multi-start seeds are partitioned into index-addressed
  /// slots and all reductions run serially in index order.
  int num_threads = 1;
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
  /// Per-step gradient work: the SmoothMax/penalty composition only (the
  /// column passes run with the trials).
  SolverPhaseStats gradient;
  SolverPhaseStats line_search;  ///< backtracking trial evaluations
  SolverPhaseStats refresh;      ///< seed pricing and accepted-state adoption

  void Accumulate(const SolverProfile& o) {
    gradient.Accumulate(o.gradient);
    line_search.Accumulate(o.line_search);
    refresh.Accumulate(o.refresh);
  }
};

/// One seed's annealing record: the true max_j µ_j after each round it
/// finished, the gradient steps each of those rounds took (below
/// SolverOptions::max_iterations_per_round when the round converged or
/// its line search found no descent), and the round after which racing
/// seed 0 stopped it.
struct SeedTrajectory {
  std::vector<double> round_max;
  std::vector<int> round_steps;
  int stopped_round = -1;  ///< -1 = ran to completion

  bool stopped() const { return stopped_round >= 0; }
};

/// Outcome of one solver run.
struct SolverResult {
  Layout layout;            ///< optimized (generally non-regular) layout
  double max_utilization;   ///< true max_j µ_j of `layout`
  int iterations = 0;       ///< gradient steps taken
  /// Objective-only max_j µ_j evaluations (RandomizedSearchSolver); the
  /// projected-gradient solver counts its passes in gradient_evaluations.
  int64_t objective_evaluations = 0;
  /// Fused value+gradient column passes that ran: one per column for the
  /// seed, for every line-search trial and after a capacity repair.
  int64_t gradient_evaluations = 0;
  /// Cost-table lookups the column kernels performed (each visits the
  /// 2^dims corners of one grid cell); lookups an evaluator's memo
  /// answered do not count.
  int64_t interp_queries = 0;
  /// Per-phase counters and timings of this solve.
  SolverProfile profile;
  bool feasible = false;    ///< capacity constraints satisfied
  /// Per-seed trajectories in seed order: one entry for a single-seed
  /// solve, one per initial layout for a multi-start solve.
  std::vector<SeedTrajectory> seeds;

  SolverResult() : layout(1, 1), max_utilization(0) {}
};

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_LAYOUT_NLP_H_
