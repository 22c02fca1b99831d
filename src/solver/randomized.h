#ifndef LAYOUTDB_SOLVER_RANDOMIZED_H_
#define LAYOUTDB_SOLVER_RANDOMIZED_H_

#include <cstdint>

#include "solver/layout_nlp.h"
#include "util/status.h"

namespace ldb {

/// Options for the randomized layout search.
struct RandomizedSearchOptions {
  int iterations = 20000;
  uint64_t seed = 42;
};

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
/// utilizations are recomputed.
class RandomizedSearchSolver {
 public:
  explicit RandomizedSearchSolver(RandomizedSearchOptions options = {});

  /// Runs the search from `initial`, which must be a valid regular layout.
  /// Returns the best feasible layout visited.
  Result<SolverResult> Solve(const LayoutNlpProblem& problem,
                             const Layout& initial) const;

 private:
  RandomizedSearchOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_RANDOMIZED_H_
