#ifndef LAYOUTDB_MODEL_LAYOUT_MODEL_H_
#define LAYOUTDB_MODEL_LAYOUT_MODEL_H_

#include <cstdint>

#include "model/workload.h"
#include "util/check.h"
#include "util/units.h"

namespace ldb {

/// The workload parameters object i imposes on one target under a layout
/// (the W_ij of the paper). Overlap is not materialized here: per Figure 7
/// it is O_i[k] gated by co-location, which the target model applies
/// directly.
struct PerTargetWorkload {
  double read_rate = 0.0;
  double write_rate = 0.0;
  double read_size = 0.0;
  double write_size = 0.0;
  double run_count = 1.0;

  double total_rate() const { return read_rate + write_rate; }
};

/// Layout model for an LVM that stripes objects round-robin over targets
/// (paper Figure 7). Transforms an object workload W_i into the per-target
/// workload W_ij implied by assigning fraction `fraction` of the object to
/// the target.
class LvmLayoutModel {
 public:
  explicit LvmLayoutModel(int64_t stripe_bytes = kMiB);

  /// Computes W_ij for L_ij = `fraction`. A zero fraction yields an
  /// all-zero workload. Inline, with TransformRunDerivative: the column
  /// kernel calls both once per object per pass.
  inline PerTargetWorkload Transform(const WorkloadDesc& w,
                                     double fraction) const;

  /// d(run_count)/d(fraction) of Transform at `fraction` — the analytic
  /// counterpart used by the solver's closed-form gradient. The run count
  /// is piecewise in the fraction: it moves only on the round-robin-split
  /// branch (run = Q_i · L_ij) and only while the result is above the
  /// clamp at 1; every other branch is constant. At branch boundaries the
  /// slope of the branch Transform itself takes is returned — a valid
  /// subgradient.
  inline double TransformRunDerivative(const WorkloadDesc& w,
                                       double fraction) const;

  /// Transform's run count in the fraction → 0+ limit, where the
  /// round-robin split branch (run ∝ fraction) is unreachable: the run
  /// count an absent object's gradient is priced at. Equal to
  /// Transform(w, f).run_count for every f small enough to stay off the
  /// split branch.
  inline double LimitRunCount(const WorkloadDesc& w) const;

  int64_t stripe_bytes() const { return stripe_bytes_; }

 private:
  /// w.mean_size(), computed out of line. Inline, its mul-add would be
  /// contracted to an FMA in the translation units built with -mfma (the
  /// batched kernels) and rounded separately everywhere else; one copy
  /// keeps Transform's and LimitRunCount's result the same in every
  /// caller, which is what keeps TargetUtilization and the regularizer's
  /// pricer bit-identical, and an absent object on Transform's branch.
  static double MeanSize(const WorkloadDesc& w);

  int64_t stripe_bytes_;
};

PerTargetWorkload LvmLayoutModel::Transform(const WorkloadDesc& w,
                                            double fraction) const {
  LDB_CHECK_GE(fraction, 0.0);
  LDB_CHECK_LE(fraction, 1.0 + 1e-9);
  PerTargetWorkload out;
  if (fraction <= 0.0) return out;

  // Request sizes are unchanged by striping; rates scale with the fraction
  // of the object (and hence of its accesses) on this target.
  out.read_size = w.read_size;
  out.write_size = w.write_size;
  out.read_rate = w.read_rate * fraction;
  out.write_rate = w.write_rate * fraction;

  // Run count (Figure 7). A run of Q_i requests of mean size B_i covers
  // Q_i*B_i bytes:
  //  * fits within one stripe               -> stays intact: Q_i;
  //  * spans more than StripeSize/L_ij      -> split round-robin over the
  //    object's targets, this target sees its share: Q_i * L_ij;
  //  * otherwise the stripe boundary caps the run: StripeSize / B_i.
  const double stripe = static_cast<double>(stripe_bytes_);
  const double b = MeanSize(w);
  if (b <= 0.0) {
    out.run_count = w.run_count;
  } else if (w.run_count * b < stripe) {
    out.run_count = w.run_count;
  } else if (w.run_count * b > stripe / fraction) {
    out.run_count = w.run_count * fraction;
  } else {
    out.run_count = stripe / b;
  }
  if (out.run_count < 1.0) out.run_count = 1.0;
  return out;
}

double LvmLayoutModel::LimitRunCount(const WorkloadDesc& w) const {
  const double stripe = static_cast<double>(stripe_bytes_);
  const double b = MeanSize(w);
  double run = w.run_count;
  if (b > 0.0 && w.run_count * b >= stripe) run = stripe / b;
  return run < 1.0 ? 1.0 : run;
}

double LvmLayoutModel::TransformRunDerivative(const WorkloadDesc& w,
                                              double fraction) const {
  LDB_CHECK_GE(fraction, 0.0);
  LDB_CHECK_LE(fraction, 1.0 + 1e-9);
  if (fraction <= 0.0) return 0.0;
  const double stripe = static_cast<double>(stripe_bytes_);
  const double b = MeanSize(w);
  // Mirror Transform's branch structure: only the round-robin split branch
  // moves with the fraction, and the clamp at 1 flattens it again.
  if (b <= 0.0) return 0.0;
  if (w.run_count * b < stripe) return 0.0;
  if (w.run_count * b > stripe / fraction) {
    return w.run_count * fraction < 1.0 ? 0.0 : w.run_count;
  }
  return 0.0;
}

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_LAYOUT_MODEL_H_
