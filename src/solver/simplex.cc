#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace ldb {

namespace {

/// Longest row sorted in a stack array instead of the scratch vector.
constexpr size_t kSmallRow = 16;

/// The threshold step: with `u` the n entries of `v` in descending order,
/// finds rho = max { k : u_k - (cumsum_k - radius)/k > 0 } and shifts `v`
/// by θ = (cumsum_rho - radius)/rho onto the simplex.
void ShiftBySortedThreshold(double* v, size_t n, double radius,
                            const double* u) {
  double cumsum = 0.0;
  size_t rho = 0;
  double running = 0.0;
  for (size_t k = 0; k < n; ++k) {
    running += u[k];
    const double t = (running - radius) / static_cast<double>(k + 1);
    if (u[k] - t > 0.0) {
      rho = k + 1;
      cumsum = running;
    }
  }
  LDB_CHECK_GT(rho, 0u);
  const double theta = (cumsum - radius) / static_cast<double>(rho);

  for (size_t i = 0; i < n; ++i) v[i] = std::max(0.0, v[i] - theta);
}

}  // namespace

void ProjectToSimplex(double* v, size_t n, double radius,
                      std::vector<double>* scratch) {
  LDB_CHECK(v != nullptr);
  LDB_CHECK_GT(n, 0u);
  LDB_CHECK_GT(radius, 0.0);

  // Rows up to kSmallRow entries (a solver row has one entry per target)
  // are insertion-sorted on the stack. Entries the two sorts may order
  // differently compare equal, ±0 included, and leave every running sum
  // and θ unchanged, so the result is the std::sort path's bit for bit.
  if (n <= kSmallRow) {
    double u[kSmallRow] = {};
    for (size_t k = 0; k < n; ++k) {
      const double x = v[k];
      size_t p = k;
      for (; p > 0 && u[p - 1] < x; --p) u[p] = u[p - 1];
      u[p] = x;
    }
    ShiftBySortedThreshold(v, n, radius, u);
    return;
  }
  std::vector<double> local;
  std::vector<double>& u = scratch != nullptr ? *scratch : local;
  u.assign(v, v + n);
  std::sort(u.begin(), u.end(), std::greater<double>());
  ShiftBySortedThreshold(v, n, radius, u.data());
}

double SmoothMax(const double* values, size_t n, double t) {
  LDB_CHECK(values != nullptr);
  LDB_CHECK_GT(n, 0u);
  LDB_CHECK_GT(t, 0.0);
  const double vmax = *std::max_element(values, values + n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::exp(t * (values[i] - vmax));
  return vmax + std::log(sum) / t;
}

}  // namespace ldb
