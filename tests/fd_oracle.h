// Test-side finite-difference oracle: a ColumnEvaluator over a scalar µ_j
// whose gradient is the central difference. It gives toy problems (no
// target model) a column factory, and it is the independent reference the
// analytic column kernels are checked against.

#ifndef LAYOUTDB_TESTS_FD_ORACLE_H_
#define LAYOUTDB_TESTS_FD_ORACLE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "model/column_eval.h"
#include "model/layout.h"

namespace ldb {

using ScalarUtilization = std::function<double(const Layout&, int)>;

/// µ_j from `mu`, and ∂µ_j/∂L_ij as the central difference over
/// [max(0, L_ij − h), min(1, L_ij + h)].
class FdColumnEvaluator final : public ColumnEvaluator {
 public:
  FdColumnEvaluator(ScalarUtilization mu, int j, double h = 1e-4)
      : mu_(std::move(mu)), j_(j), h_(h) {}

  double EvaluateWithGradient(const Layout& layout, double* grad) override {
    Layout x = layout;
    for (int i = 0; i < x.num_objects(); ++i) {
      const double v = x.At(i, j_);
      const double lo = std::max(0.0, v - h_);
      const double hi = std::min(1.0, v + h_);
      x.Set(i, j_, hi);
      const double mu_hi = mu_(x, j_);
      x.Set(i, j_, lo);
      const double mu_lo = mu_(x, j_);
      x.Set(i, j_, v);
      grad[i] = (mu_hi - mu_lo) / (hi - lo);
    }
    return mu_(layout, j_);
  }

 private:
  ScalarUtilization mu_;
  int j_;
  double h_;
};

/// A make_column_eval factory pricing `mu` through FdColumnEvaluator.
inline std::function<std::unique_ptr<ColumnEvaluator>(int)> FdColumnFactory(
    ScalarUtilization mu) {
  return [mu = std::move(mu)](int j) -> std::unique_ptr<ColumnEvaluator> {
    return std::make_unique<FdColumnEvaluator>(mu, j);
  };
}

}  // namespace ldb

#endif  // LAYOUTDB_TESTS_FD_ORACLE_H_
