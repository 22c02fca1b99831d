#ifndef LAYOUTDB_MODEL_COLUMN_EVAL_H_
#define LAYOUTDB_MODEL_COLUMN_EVAL_H_

#include <cstdint>

#include "util/check.h"

namespace ldb {

class Layout;

/// Incremental evaluator for one target utilization µ_j — the contract
/// between a performance model and the NLP solver's finite-difference hot
/// path.
///
/// The solver perturbs a single layout entry L_ij at a time (2·N·M times per
/// gradient step). A from-scratch µ_j evaluation is O(N²) because of the
/// pairwise interference term; an implementation of this interface caches
/// the per-object rates and interference accumulators of a *base* layout so
/// each perturbation becomes a rank-1 update that costs O(N).
///
/// Invariants implementations must keep:
///  * Rebuild(L) must make Base() equal a from-scratch µ_j(L) evaluation;
///  * WithObject(i, f) must equal the from-scratch µ_j of the base layout
///    with entry (i, j) replaced by f (up to floating-point rounding of the
///    reassociated sums), and must not mutate the base state — repeated
///    calls never drift;
///  * WithObject must be safe to call concurrently with other evaluators
///    (the solver uses one evaluator per column, each owned by one task).
class ColumnEvaluator {
 public:
  virtual ~ColumnEvaluator() = default;

  /// Recomputes all cached state for a new base layout (one full O(N²)
  /// column evaluation).
  virtual void Rebuild(const Layout& layout) = 0;

  /// µ_j of the base layout (cached; free).
  virtual double Base() const = 0;

  /// µ_j as if entry (i, j) of the base layout were `fraction`, every other
  /// entry unchanged. Const: the base state is not modified.
  virtual double WithObject(int i, double fraction) const = 0;

  // ---- Analytic / batched fast path (optional) ----
  //
  // Performance models whose µ_j has a closed-form gradient implement the
  // two methods below; the solver's analytic gradient mode then replaces
  // the 2·N·M finite-difference perturbations per step with one fused
  // value+gradient pass per column and line-search trial. A pass costs one
  // O(N²) interference product plus O(N) table lookups.

  /// True when EvaluateWithGradient is implemented. The solver checks this
  /// before entering analytic mode and silently falls back to finite
  /// differences otherwise (e.g. wrapped or derated objectives).
  virtual bool SupportsGradient() const { return false; }

  /// Fused pass: returns µ_j(layout) and fills grad[i] = ∂µ_j/∂L_ij for
  /// every object i (`grad` sized num_objects). Pure function of `layout`:
  /// it neither reads nor disturbs the Rebuild/WithObject incremental
  /// state. At kinks of the piecewise model (clamped interpolator axes,
  /// run-count branch boundaries, the presence threshold) a valid
  /// subgradient is produced.
  virtual double EvaluateWithGradient(const Layout& layout, double* grad) {
    (void)layout;
    (void)grad;
    LDB_CHECK_MSG(false, "ColumnEvaluator::EvaluateWithGradient not supported");
    return 0.0;
  }

  /// Interpolator queries issued by the batched kernels since construction
  /// (profiling counter; 0 when unsupported).
  virtual int64_t interp_queries() const { return 0; }
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_COLUMN_EVAL_H_
