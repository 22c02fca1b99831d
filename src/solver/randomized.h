#ifndef LAYOUTDB_SOLVER_RANDOMIZED_H_
#define LAYOUTDB_SOLVER_RANDOMIZED_H_

#include "solver/layout_nlp.h"
#include "util/status.h"

namespace ldb {

/// Randomized (simulated-annealing) layout search — the alternative solver
/// the paper sketches in Section 7 after HP's Disk Array Designer: "It
/// should be possible to design a similar randomized search technique to
/// solve the layout problem faced by our layout advisor — this would be an
/// alternative to the NLP solver."
///
/// Unlike the NLP solver it searches *regular* layouts directly (each move
/// adds, removes, or swaps one target in one object's stripe set), so no
/// regularization step is needed; its output is immediately
/// LVM-implementable. Capacity and placement constraints are enforced per
/// move. Moves are evaluated incrementally: only the touched targets'
/// utilizations are recomputed. The move count (20,000) and the seed of
/// the move stream are fixed, so equal inputs give equal layouts.
class RandomizedSearchSolver {
 public:
  /// Runs the search from `initial`, which must be a valid regular layout.
  /// Returns the best feasible layout visited.
  Result<SolverResult> Solve(const LayoutNlpProblem& problem,
                             const Layout& initial) const;
};

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_RANDOMIZED_H_
