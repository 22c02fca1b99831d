#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace ldb {

void ProjectToSimplex(double* v, size_t n, double radius,
                      std::vector<double>* scratch) {
  LDB_CHECK(v != nullptr);
  LDB_CHECK_GT(n, 0u);
  LDB_CHECK_GT(radius, 0.0);

  std::vector<double> local;
  std::vector<double>& u = scratch != nullptr ? *scratch : local;
  u.assign(v, v + n);
  std::sort(u.begin(), u.end(), std::greater<double>());

  // Find rho = max { k : u_k - (cumsum_k - radius)/k > 0 }.
  double cumsum = 0.0;
  double theta = 0.0;
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
  theta = (cumsum - radius) / static_cast<double>(rho);

  for (size_t i = 0; i < n; ++i) v[i] = std::max(0.0, v[i] - theta);
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
