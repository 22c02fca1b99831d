#ifndef LAYOUTDB_CORE_REGULARIZE_H_
#define LAYOUTDB_CORE_REGULARIZE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "model/layout.h"
#include "model/target_model.h"
#include "util/status.h"

namespace ldb {

/// Layout entries at or below this count as "not placed" when checking a
/// separation partner, and as solver noise when re-planning and migration
/// pricing read a layout.
inline constexpr double kLayoutZeroTolerance = 1e-4;

/// Options for the regularization post-processing step.
struct RegularizerOptions {
  /// After the greedy pass, up to this many refinement sweeps re-evaluate
  /// every object's candidate set against the now-regular layout and move
  /// objects while the maximum utilization improves. This corrects the
  /// greedy pass's myopia when the solver's layout is far from regular
  /// (each sweep stops early at a fixpoint).
  int refinement_passes = 3;
  /// Generate the second candidate class (balancing layouts on the
  /// currently least-loaded targets). Disabling leaves only the
  /// consistent-with-solver candidates — an ablation of the design choice
  /// discussed in paper Section 4.3.
  bool balancing_candidates = true;
  /// Per-target service derating for failure-aware re-layout: target j
  /// effectively delivers `target_derate[j]` of its healthy throughput, so
  /// candidates are ranked by µ_j / derate_j. Empty = all healthy (1.0).
  /// A derate of 0 marks a failed target: any load on it scores as
  /// (effectively) infinite utilization. Size must equal the target count
  /// when non-empty.
  std::vector<double> target_derate;
};

/// µ_j adjusted for the derating in `options` (µ_j / derate_j; huge when
/// a failed target carries load, µ_j unchanged when no derating is set).
double EffectiveTargetUtilization(const RegularizerOptions& options,
                                  double mu_j, int j);

/// max_j of EffectiveTargetUtilization over `mu` (one entry per target):
/// the objective every regular-row choice minimizes.
double MaxEffectiveUtilization(const RegularizerOptions& options,
                               const std::vector<double>& mu);

/// Exact incremental pricing of regular candidate rows against a layout:
/// the regularizer's inner loop.
///
/// The pricer caches, for its current layout, every object's transformed
/// per-target workload W_kj, on-target rate and µ_kj, each target's µ_j,
/// and each target's integer byte total. Changing object i's row moves
/// only µ_ij and the µ_kj of i's overlap partners (the objects k ≠ i with
/// O_k[i] ≠ 0), and only on targets whose entry L_ij changes. A candidate
/// therefore reprices just those terms through
/// TargetModel::ObjectUtilization and re-sums each touched column's
/// nonzero terms in object order. Every other object's χ only gains or
/// loses a rate_ij · 0 term, and x + 0.0 == x, so the trial µ_j is
/// bit-identical to TargetModel::TargetUtilization on the trial layout.
/// The capacity check swaps the row's per-entry ceil bytes into the cached
/// totals, which is exact because the totals are integers.
class CandidatePricer {
 public:
  /// `problem` and `model` must outlive the pricer. Construction prices
  /// every column once.
  CandidatePricer(const LayoutProblem* problem, const TargetModel* model,
                  Layout layout);

  const LayoutProblem& problem() const { return *problem_; }
  const Layout& layout() const { return layout_; }
  /// µ_j of the current layout, one entry per target.
  const std::vector<double>& mu() const { return mu_; }
  /// µ_ij of the current layout.
  double mu_ij(int i, int j) const {
    return mu_kj_[static_cast<size_t>(j) * static_cast<size_t>(n_) +
                  static_cast<size_t>(i)];
  }

  /// Object i's overlap partners: the k ≠ i with O_k[i] ≠ 0, ascending.
  std::vector<int> partners(int i) const {
    const size_t u = static_cast<size_t>(i);
    return std::vector<int>(partners_.begin() + partner_begin_[u],
                            partners_.begin() + partner_begin_[u + 1]);
  }

  /// Prices striping object `i` evenly over `targets` against `bound`.
  /// Returns the candidate's MaxEffectiveUtilization under `options` when
  /// the layout fits every capacity and that maximum is strictly below
  /// `bound`; otherwise nullopt. Checks capacity first, then the columns
  /// the candidate leaves alone (their cached µ_j, no repricing), then
  /// reprices the touched columns hottest cached effective µ_j first and
  /// stops at the first one at or above `bound`. With an infinite bound
  /// every fitting candidate is priced in full. The current layout and
  /// every cache are left unchanged.
  std::optional<double> Price(const RegularizerOptions& options, int i,
                              std::span<const int> targets, double bound);

  /// Moves object `i` onto the regular row over `targets`.
  void Apply(int i, const std::vector<int>& targets);

  /// Columns repriced so far, by Price and Apply: the pricer's effort.
  int64_t columns_repriced() const { return columns_repriced_; }

 private:
  /// Fills row_ with the regular row over `targets`, exactly as
  /// Layout::SetRowRegular writes it.
  void SetTrialRow(std::span<const int> targets);
  /// µ_j with object i's fraction on target j set to `fraction`; keeps the
  /// repriced terms when `commit`, else restores the caches.
  double RepriceColumn(int i, int j, double fraction, bool commit);

  const LayoutProblem* problem_;
  const TargetModel* model_;
  Layout layout_;
  int n_;
  int m_;
  std::vector<int64_t> capacities_;
  std::vector<int64_t> bytes_;
  std::vector<double> mu_;
  // Column-major caches, entry j * N + k.
  std::vector<PerTargetWorkload> per_;
  std::vector<double> rate_;
  std::vector<double> mu_kj_;
  // Per target, the objects with µ_kj ≠ 0, ascending: the only terms the
  // object-order sum of µ_j needs.
  std::vector<std::vector<int>> nonzero_;
  // Overlap partners of object i: partners_[partner_begin_[i] ..
  // partner_begin_[i + 1]), ascending.
  std::vector<size_t> partner_begin_;
  std::vector<int> partners_;
  int64_t columns_repriced_ = 0;
  // Scratch.
  std::vector<double> row_;
  std::vector<std::pair<int, double>> undo_;
  // Columns a candidate touches, as (cached effective µ_j, j).
  std::vector<std::pair<double, int>> touched_;
};

/// The one place-and-refine pass over regular rows, shared by the
/// regularizer and failure re-planning. Places each row of `place`, in
/// order, on the best of its 2M regular candidates (see Regularizer) under
/// the derated objective MaxEffectiveUtilization. Then sweeps `refine`, in
/// order, up to `options.refinement_passes` times (stopping at a fixpoint),
/// moving a row only when its winner beats the current maximum effective
/// utilization by more than `margin` and changes its target set. Returns
/// the first row of `place` with no feasible candidate (the pricer then
/// holds the rows placed before it), or -1.
int RelayoutRows(const RegularizerOptions& options, CandidatePricer* pricer,
                 const std::vector<int>& place, const std::vector<int>& refine,
                 double margin);

/// Regularization post-processor (paper Section 4.3): converts the
/// solver's optimized but generally non-regular layout into a regular one
/// implementable by round-robin striping.
///
/// Objects are regularized one at a time in decreasing order of the total
/// load Σ_j µ_ij they impose, so imbalances introduced early can be
/// corrected by later objects. For each object, 2M candidate regular rows
/// are evaluated:
///  * M "consistent" candidates — the object striped across its top-k
///    targets by solver fraction (k = 1..M, ties broken by target id);
///  * M "balancing" candidates — the object striped across the k currently
///    least-loaded targets.
/// Candidates violating capacity are dropped; the first one minimizing the
/// maximum estimated target utilization wins.
class Regularizer {
 public:
  /// `problem` and `model` must outlive the regularizer.
  Regularizer(const LayoutProblem* problem, const TargetModel* model,
              RegularizerOptions options = {});

  /// Returns the regularized layout, or Infeasible if some object admits
  /// no capacity-respecting candidate (the paper's "manual intervention"
  /// case, only expected under very tight space constraints). When
  /// `columns_repriced` is set it receives the pricer's effort
  /// (CandidatePricer::columns_repriced).
  Result<Layout> Regularize(const Layout& solver_layout,
                            int64_t* columns_repriced = nullptr) const;

 private:
  const LayoutProblem* problem_;
  const TargetModel* model_;
  RegularizerOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_CORE_REGULARIZE_H_
