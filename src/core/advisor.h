#ifndef LAYOUTDB_CORE_ADVISOR_H_
#define LAYOUTDB_CORE_ADVISOR_H_

#include <vector>

#include "core/problem.h"
#include "core/regularize.h"
#include "model/layout.h"
#include "solver/layout_nlp.h"
#include "util/status.h"

namespace ldb {

/// Advisor configuration.
struct AdvisorOptions {
  /// Solver knobs, including the evaluation engine's `num_threads`
  /// (seed 0's column passes, then the other multi-start seeds racing it
  /// in parallel; results are identical for every thread count).
  SolverOptions solver;
  RegularizerOptions regularizer;
  /// Produce a regular (LVM-implementable) final layout. When false the
  /// solver's non-regular layout is returned as final (for layout
  /// mechanisms that support arbitrary fractions).
  bool regularize = true;
  /// Extra random initial layouts beyond the Section 4.2 heuristic seed
  /// (the paper's optional multi-start loop, Figure 4). Our local solver
  /// benefits from a couple of restarts where MINOS used one seed. The
  /// heuristic seed is seed 0: every other seed races it and stops once
  /// it cannot catch up (MultiStartSolver).
  int extra_random_seeds = 2;
  /// Additional multi-start seeds solved alongside the heuristic and
  /// random ones — the warm-start channel. A DBA's candidate layouts, or
  /// the layout currently deployed (the autopilot passes it so a re-advise
  /// can keep most data where it already lives when that is near-optimal).
  std::vector<Layout> warm_seeds;
  uint64_t seed = 42;
};

/// Everything the advisor produced, including intermediate stages — the
/// data behind the paper's Figure 13 stage-by-stage utilization bars.
struct AdvisorResult {
  Layout initial_layout;       ///< Section 4.2 heuristic seed
  Layout solver_layout;        ///< NLP solver output (non-regular)
  Layout final_layout;         ///< regularized (== solver_layout if
                               ///< regularization is disabled)
  std::vector<double> utilization_initial;  ///< estimated µ_j per stage
  std::vector<double> utilization_solver;
  std::vector<double> utilization_final;
  double max_utilization_final = 0.0;
  double initial_seconds = 0.0;  ///< wall-clock cost of each stage
  double solver_seconds = 0.0;
  double regularization_seconds = 0.0;
  SolverResult solver_stats;

  AdvisorResult()
      : initial_layout(1, 1), solver_layout(1, 1), final_layout(1, 1) {}

  double total_seconds() const {
    return initial_seconds + solver_seconds + regularization_seconds;
  }
};

/// The workload-aware database storage layout advisor — the paper's core
/// contribution (Figure 4): heuristic initial layout → generic NLP solver
/// → optional regularization, all driven by Rome-style workload
/// descriptions and calibrated storage target models.
class LayoutAdvisor {
 public:
  explicit LayoutAdvisor(AdvisorOptions options = {});

  /// Recommends a layout for `problem`.
  Result<AdvisorResult> Recommend(const LayoutProblem& problem) const;

 private:
  AdvisorOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_CORE_ADVISOR_H_
