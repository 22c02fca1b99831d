#ifndef LAYOUTDB_MODEL_COLUMN_EVAL_H_
#define LAYOUTDB_MODEL_COLUMN_EVAL_H_

#include <cstdint>

namespace ldb {

class Layout;

/// Evaluator for one target utilization µ_j and its gradient — the
/// contract between a performance model and the NLP solver.
///
/// The solver prices every layout it visits (the seed and each
/// line-search trial) with one fused value+gradient pass per column. A pass
/// costs one O(N²) interference product plus at most O(N) cost-table
/// lookups. Evaluators for distinct columns must be usable concurrently
/// (the solver holds one per column, each driven by one task at a time).
///
/// An evaluator may keep state between passes only to skip work — the
/// target model's kernel remembers each object's last lookup inputs and
/// results, keyed on exact equality — never in a way that changes a
/// result: every pass returns the doubles a fresh evaluator would for the
/// same layout, whatever layouts came before. That is what lets the solver
/// price trials and adopted layouts on different evaluators.
class ColumnEvaluator {
 public:
  virtual ~ColumnEvaluator() = default;

  /// Fused pass: returns µ_j(layout) and fills grad[i] = ∂µ_j/∂L_ij for
  /// every object i (`grad` sized num_objects). A pure function of
  /// `layout`. At kinks of the piecewise model (clamped interpolator axes,
  /// run-count branch boundaries, the presence threshold) a valid
  /// subgradient is produced.
  virtual double EvaluateWithGradient(const Layout& layout, double* grad) = 0;

  /// Cost-table lookups the kernel actually performed since construction
  /// (profiling counter; lookups skipped by a memo do not count; 0 when
  /// the evaluator has no cost tables).
  virtual int64_t interp_queries() const { return 0; }
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_COLUMN_EVAL_H_
