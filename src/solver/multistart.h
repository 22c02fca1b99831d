#ifndef LAYOUTDB_SOLVER_MULTISTART_H_
#define LAYOUTDB_SOLVER_MULTISTART_H_

#include <vector>

#include "solver/projected_gradient.h"
#include "util/random.h"

namespace ldb {

/// Multi-start driver (the "repeat?" loop of the paper's Figure 4): runs
/// the local solver from several initial layouts and keeps the best
/// feasible result. Initial layouts are a convenient channel for domain
/// knowledge — a DBA's candidate layouts can simply be appended to the
/// seed list.
///
/// The seeds race seed 0 (the paper's heuristic initial layout in the
/// advisor): seed 0 always runs to completion, and when it ends feasible
/// every other seed is solved against its per-round true max and stops
/// once it cannot catch up (ProjectedGradientSolver::Solve). A stopped
/// seed is never a candidate, but its effort counters are still summed.
class MultiStartSolver {
 public:
  explicit MultiStartSolver(SolverOptions options = {});

  /// Solves from every seed in `initials`; returns the result with the
  /// lowest max-utilization among the seeds that ran to completion,
  /// preferring feasible results over infeasible ones (ties go to the
  /// lower seed). Effort counters are summed over all seeds and
  /// SolverResult::seeds holds every seed's trajectory in seed order.
  /// `initials` must be non-empty.
  ///
  /// With `options.num_threads` != 1, seed 0 runs on the column pool and
  /// seeds 1..k−1 then run concurrently, each per-seed solve forced serial
  /// so pools do not nest. The only rival is seed 0, so those seeds are
  /// independent of one another and of their schedule: results are
  /// bit-identical to the one-thread run for any thread count.
  Result<SolverResult> Solve(const LayoutNlpProblem& problem,
                             const std::vector<Layout>& initials) const;

  /// Generates `count` random valid-integrity seeds (each object assigned
  /// a random point on the simplex, biased toward sparse rows).
  static std::vector<Layout> RandomSeeds(const LayoutNlpProblem& problem,
                                         int count, Rng* rng);

 private:
  SolverOptions options_;
  ProjectedGradientSolver solver_;
};

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_MULTISTART_H_
