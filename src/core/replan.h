#ifndef LAYOUTDB_CORE_REPLAN_H_
#define LAYOUTDB_CORE_REPLAN_H_

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "core/regularize.h"
#include "model/layout.h"
#include "solver/layout_nlp.h"
#include "storage/fault.h"
#include "util/status.h"

namespace ldb {

/// Health of the storage targets as seen by the re-layout step.
struct TargetHealth {
  /// Fraction of healthy service capacity target j still delivers, in
  /// [0, 1]. 0 means failed: the target serves nothing (fail-stopped RAID0
  /// member, or a RAID group past its redundancy) and all of its data must
  /// move. A limping or rebuilding group is derated, in (0, 1): its data
  /// *may* move if that lowers the maximum effective utilization. This is
  /// the vector the re-layout ranks candidates by
  /// (RegularizerOptions::target_derate).
  std::vector<double> derate;

  static TargetHealth Healthy(int num_targets) {
    TargetHealth h;
    h.derate.assign(static_cast<size_t>(num_targets), 1.0);
    return h;
  }

  int num_targets() const { return static_cast<int>(derate.size()); }
  bool IsFailed(int j) const { return derate[static_cast<size_t>(j)] <= 0.0; }
  void MarkFailed(int j) { derate[static_cast<size_t>(j)] = 0.0; }
  void Derate(int j, double factor) {
    derate[static_cast<size_t>(j)] *= factor;
  }

  bool AllHealthy() const;
  Status Validate(int num_targets) const;
};

/// Distills a fault plan into per-target health for the re-layout step.
/// Fail-stops are folded per the target's RAID level (RAID0 → failed;
/// RAID1/5 → derated survivors, failed past redundancy), sticky limps
/// derate by 1/scale, sticky transient windows by (1-p) (each attempt
/// succeeds with probability 1-p, so effective service rate scales by it).
/// Rebuild/recover events and faults with a finite duration are treated as
/// transient conditions that do not justify moving data.
TargetHealth HealthFromFaultPlan(const FaultPlan& plan,
                                 const std::vector<AdvisorTarget>& targets);

/// Bytes that must move to adopt a replanned layout.
struct MigrationPlan {
  /// moved_in_bytes[i][j]: bytes of object i newly written onto target j
  /// (size_i * max(0, L_new[i][j] - L_old[i][j])).
  std::vector<std::vector<double>> moved_in_bytes;
  double total_bytes = 0.0;
  int objects_moved = 0;  ///< rows whose target set changed
};

/// Prices the data movement needed to go from layout `from` to layout `to`.
///
/// Rows that are regular in both layouts (the advisor's output always is)
/// are priced on the *exact* 1/k fractions implied by their target sets, so
/// solver noise below kLayoutZeroTolerance can never produce phantom
/// moves: a row whose target set is unchanged prices zero bytes. Non-regular
/// rows fall back to raw fraction deltas with sub-tolerance deltas skipped.
/// Placement uses the same tolerance, so the two agree on what counts as
/// zero.
MigrationPlan PriceMigration(const LayoutProblem& problem, const Layout& from,
                             const Layout& to);

/// A re-planned row move, and the polished layout, must beat the incumbent
/// maximum effective utilization by more than this.
inline constexpr double kReplanImprovementMargin = 1e-9;

struct ReplanOptions {
  /// Candidate generation knobs for the place-and-refine pass. The
  /// target_derate field is overwritten from TargetHealth.
  RegularizerOptions regularize;
  /// Options for the polish solve that re-optimizes the displaced rows
  /// (see ReplanAfterFailure). num_threads is honored; results stay
  /// bit-identical across thread counts (solver guarantee).
  SolverOptions solver;
};

/// Rescales `nlp` to the objective failure re-planning minimizes:
/// µ_j / derate[j] on derated targets (derate[j] in (0, 1)), µ_j unchanged
/// at derate[j] >= 1, and 0 on failed targets (derate[j] <= 0), which the
/// allowed-target constraints keep empty. Both the scalar
/// target_utilization and the column evaluators are wrapped; the wrapped
/// evaluators scale value and gradient alike and forward interp_queries,
/// so the projected-gradient solver prices the derated objective with its
/// analytic engine. `derate` is sized num_targets.
void ApplyTargetDerate(const std::vector<double>& derate,
                       LayoutNlpProblem* nlp);

/// Outcome of failure-aware re-layout.
struct ReplanResult {
  Layout layout;  ///< regular layout with zero mass on failed targets
  MigrationPlan migration;
  /// max_j µ_j / derate_j of `layout` under the degraded model.
  double max_utilization = 0.0;
  /// Same for the input layout (infinite when it uses a failed target).
  double previous_max_utilization = 0.0;
  bool replanned = false;  ///< false: input healthy, layout == input

  ReplanResult() : layout(1, 1) {}
};

/// Failure-aware re-layout: rebuilds the placement around failed/derated
/// targets while moving as little data as possible.
///
/// `current` must be the regular layout in effect (every row sums to 1).
/// Rows with mass on a failed target are displaced and re-placed greedily
/// (decreasing request rate, best regular candidate under the derated
/// model, failed targets excluded via allowed-target constraints). Every
/// other row is frozen — it never moves — unless it sits on a *derated*
/// target and a refinement sweep finds a strictly better home for it.
/// A warm-started projected-gradient solve (frozen_rows pins every other
/// row) then polishes the displaced rows; the polished layout is
/// re-regularized and kept only when it strictly lowers the effective
/// maximum utilization.
///
/// The result's migration plan prices the move; a healthy TargetHealth is
/// a guaranteed no-op (layout returned unchanged, zero bytes).
///
/// \returns Infeasible when the surviving capacity cannot hold the data or
///   a displaced object has no feasible candidate; InvalidArgument for
///   malformed inputs, including a `current` whose rows off the failed
///   targets break a pin or separation (those rows are not re-placed, so
///   the replan could not honor the policy).
Result<ReplanResult> ReplanAfterFailure(const LayoutProblem& problem,
                                        const Layout& current,
                                        const TargetHealth& health,
                                        const ReplanOptions& options = {});

}  // namespace ldb

#endif  // LAYOUTDB_CORE_REPLAN_H_
