#ifndef LAYOUTDB_SOLVER_SIMPLEX_H_
#define LAYOUTDB_SOLVER_SIMPLEX_H_

#include <cstddef>
#include <vector>

namespace ldb {

/// Euclidean projection of `v` (length n, modified in place) onto the
/// scaled probability simplex { x : x >= 0, sum x = radius }.
///
/// Implements the O(n log n) sort-and-threshold algorithm (Held/Wolfe/
/// Crowder; popularized by Duchi et al.). This is the feasibility engine of
/// the projected-gradient layout solver: every layout row must stay on the
/// unit simplex (the paper's integrity constraint).
///
/// Rows of up to 16 entries sort in a stack array and allocate nothing.
/// For longer rows `scratch`, when provided, is reused for the internal
/// sort buffer so repeated projections allocate nothing after warm-up.
void ProjectToSimplex(double* v, size_t n, double radius = 1.0,
                      std::vector<double>* scratch = nullptr);

/// log-sum-exp smooth approximation of max(values):
///   smoothmax_t(v) = (1/t) * log(sum_j exp(t * v_j))
/// computed stably. As t grows the approximation tightens from above
/// (error <= log(n)/t). The layout solver anneals t upward to optimize the
/// non-smooth max-utilization objective with gradient steps.
double SmoothMax(const double* values, size_t n, double t);

}  // namespace ldb

#endif  // LAYOUTDB_SOLVER_SIMPLEX_H_
