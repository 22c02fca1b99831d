#ifndef LAYOUTDB_MODEL_TARGET_MODEL_H_
#define LAYOUTDB_MODEL_TARGET_MODEL_H_

#include <memory>
#include <vector>

#include "model/column_eval.h"
#include "model/cost_model.h"
#include "model/layout.h"
#include "model/layout_model.h"
#include "model/workload.h"
#include "storage/target.h"

namespace ldb {

/// Model-side description of one storage target: which calibrated cost
/// model applies and how many member devices the target stripes over.
struct TargetModelInfo {
  const CostModel* cost_model = nullptr;
  int num_members = 1;
  /// RAID chunk size of the target (used to estimate how many members a
  /// large request touches).
  int64_t stripe_bytes = 64 * kKiB;
  /// RAID organization: RAID1 fans writes out to every member; RAID5 adds
  /// the parity read-modify-write to each written row.
  RaidLevel raid_level = RaidLevel::kRaid0;
};

/// The storage-system performance model of paper Section 5.2 (Figure 6):
/// applies the layout model to every (object, target) pair, computes the
/// contention factor χ_ij (Eq. 2), looks up per-request costs in the
/// target's calibrated cost model, and produces the per-target utilizations
///
///   µ_ij = λ^R_ij · Cost^R_j + λ^W_ij · Cost^W_j        (Eq. 1)
///   µ_j  = Σ_i µ_ij
///
/// µ_j is the quantity the layout optimizer minimizes the maximum of.
class TargetModel {
 public:
  /// \param targets one entry per storage target (cost models must outlive
  ///   this object).
  /// \param layout_model the LVM layout model (stripe size of the volume
  ///   manager implementing layouts).
  TargetModel(std::vector<TargetModelInfo> targets,
              LvmLayoutModel layout_model);

  int num_targets() const { return static_cast<int>(targets_.size()); }
  const LvmLayoutModel& layout_model() const { return layout_model_; }

  /// Computes all target utilizations µ_j under `layout`.
  ///
  /// \param workloads one description per object (ValidateWorkloadSet).
  /// \param mu_ij optional out-param: per-object contribution matrix,
  ///   row-major N x M (the µ_ij used by the regularizer's ordering).
  std::vector<double> Utilizations(const WorkloadSet& workloads,
                                   const Layout& layout,
                                   std::vector<double>* mu_ij = nullptr) const;

  /// Computes µ_j for a single target: the scalar reference the fused
  /// column kernel, the regularizer's pricer and the tests are checked
  /// against.
  double TargetUtilization(const WorkloadSet& workloads, const Layout& layout,
                           int j) const;

  /// max_j µ_j, the layout problem objective.
  double MaxUtilization(const WorkloadSet& workloads,
                        const Layout& layout) const;

  /// µ_ij of object `i` on target `j`: the contention factor χ_ij (Eq. 2)
  /// from the on-target total rates `rates[k]` of every object k (objects
  /// at or below the presence threshold excluded, overlap terms in row
  /// order), then the Eq. 1 term for its transformed workload `wij`.
  /// Returns 0 when `wij`'s own rate is below the threshold (object absent
  /// from the target). TargetUtilization and the regularizer's incremental
  /// candidate pricer both price through this one computation, which is
  /// what keeps the two bit-identical.
  double ObjectUtilization(const WorkloadSet& workloads, int i, int j,
                           const PerTargetWorkload& wij,
                           const double* rates) const;

  const TargetModelInfo& target_info(int j) const {
    return targets_[static_cast<size_t>(j)];
  }

  /// Creates the fused value+gradient evaluator for column `j` (see
  /// model/column_eval.h). `workloads` must outlive the evaluator.
  /// Evaluators are independent — the solver holds one per column and uses
  /// them concurrently.
  std::unique_ptr<ColumnEvaluator> MakeColumnEvaluator(
      const WorkloadSet& workloads, int j) const;

 private:
  /// Shared implementation: µ_j for one target, optionally with the
  /// per-object contributions µ_ij (mu_i sized N on return).
  double TargetUtilizationInternal(const WorkloadSet& workloads,
                                   const Layout& layout, int j,
                                   std::vector<double>* mu_i) const;

  /// µ_ij of one already-transformed per-target workload under contention
  /// factor `chi` (the Eq. 1 term, including the RAID member-cost
  /// accounting).
  double PerObjectUtilization(const TargetModelInfo& target,
                              const PerTargetWorkload& wij, double chi) const;

  std::vector<TargetModelInfo> targets_;
  LvmLayoutModel layout_model_;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_TARGET_MODEL_H_
