#ifndef LAYOUTDB_SOLVER_PROJECTED_GRADIENT_H_
#define LAYOUTDB_SOLVER_PROJECTED_GRADIENT_H_

#include <vector>

#include "solver/layout_nlp.h"
#include "util/status.h"

namespace ldb {

/// Generic local NLP solver for the layout problem, playing the role MINOS
/// plays in the paper: given an initial valid layout, locally minimize the
/// (non-convex) max-utilization objective subject to the integrity and
/// capacity constraints.
///
/// Method:
///  * the non-smooth max_j µ_j is replaced by a log-sum-exp smooth max
///    whose temperature is annealed upward across rounds;
///  * capacity constraints enter as a quadratic penalty whose weight is
///    annealed upward in lock-step;
///  * each iteration takes a projected-gradient step: a backtracking
///    Armijo line search along the negative gradient, with per-row
///    Euclidean projection back onto the (allowed-target) unit simplex;
///  * a round ends once its steps stop moving the layout: after every 5
///    accepted steps the layout is compared with the one 5 steps earlier,
///    and the round ends when no entry moved by 0.3% of its object or
///    more (the file-local kMoveWindow and kMoveTolerance). A round that
///    never settles ends at SolverOptions::max_iterations_per_round; one
///    whose line search finds no descent ends at once. The projected-
///    gradient stationarity ‖x − P(x − ∇F)‖∞ is no usable test here: after
///    round 0 it ends a full 60-step round at 0.3–1.5× its round-start
///    value on advise-shaped problems, because the steps crawl along the
///    sharpening smooth max rather than settle;
///  * the gradient is analytic: the seed and every line-search trial are
///    priced by one fused value+gradient pass per column
///    (ColumnEvaluator::EvaluateWithGradient from the problem's
///    make_column_eval), so an accepted trial already carries ∂µ_j/∂L_·j
///    for the next step and a step costs one column pass per trial. The
///    SmoothMax and penalty terms are chain-ruled around those column
///    gradients;
///  * with SolverOptions::num_threads != 1 the per-column passes run
///    concurrently. Each column writes its own µ slot and gradient span,
///    and every reduction is serial in index order, so the result is
///    bit-identical for every thread count;
///  * like MINOS, the result is a locally optimal, generally non-regular
///    layout that depends on the initial point;
///  * the true max_j µ_j and the step count of every annealing round are
///    recorded in SolverResult::seeds, and a solve given a rival's
///    per-round record stops once it cannot catch up (see Solve).
class ProjectedGradientSolver {
 public:
  /// First 0-based round after which a raced solve may stop. At the low
  /// early temperatures a seed can sit flat for two rounds and then
  /// overtake (measured on autopilot re-advises of the deployed layout),
  /// so rounds 0 and 1 never stop a seed.
  static constexpr int kRaceFirstRound = 2;

  explicit ProjectedGradientSolver(SolverOptions options = {});

  /// Runs the solver from `initial` (rows are projected onto the simplex
  /// first, so any non-negative seed is acceptable).
  ///
  /// `rival` is another solve's per-round true max (its
  /// SeedTrajectory::round_max, one entry per annealing round); empty =
  /// no race. After round r ≥ kRaceFirstRound this solve stops when it
  /// trails the rival, µ(r) > rival(r), by more than it could close by
  /// repeating its last round's gain in every round left:
  /// µ(r) − rival(r) > (µ(r−1) − µ(r)) · (R − 1 − r). A stopped solve
  /// skips the capacity repair, reports feasible = false and its
  /// stopped_round, and keeps its effort counters.
  ///
  /// \returns InvalidArgument for malformed problems (dimension mismatches,
  ///   no make_column_eval or a factory returning null, non-positive
  ///   sizes/capacities).
  Result<SolverResult> Solve(const LayoutNlpProblem& problem,
                             const Layout& initial,
                             const std::vector<double>& rival = {}) const;

 private:
  SolverOptions options_;
};

/// Projects row `i` (num_targets entries) onto its feasible simplex: the
/// full simplex when the object is unrestricted, else the sub-simplex
/// spanned by its allowed targets (disallowed coordinates are zeroed). The
/// solver's per-row projection; the two scratch vectors are reused across
/// calls so line-search projections allocate nothing after warm-up.
void ProjectRowConstrained(const LayoutNlpProblem& p, int i, double* row,
                           std::vector<double>* sub_scratch,
                           std::vector<double>* sort_scratch);

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_PROJECTED_GRADIENT_H_
