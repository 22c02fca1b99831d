#ifndef LAYOUTDB_UTIL_INTERP_H_
#define LAYOUTDB_UTIL_INTERP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace ldb {

/// Multilinear interpolation over a rectilinear grid of tabulated values.
///
/// Axes are strictly increasing coordinate vectors; values are stored in
/// row-major order (last axis fastest). Queries outside the grid are clamped
/// to the boundary, which matches how the paper's black-box cost models are
/// used: calibration covers the operating range, and queries beyond it
/// saturate rather than extrapolate.
///
/// This is the interpolation engine behind the tabulated device cost models
/// (Section 5.2.2 of the paper).
class GridInterpolator {
 public:
  /// Creates an interpolator.
  ///
  /// \param axes one strictly-increasing coordinate vector per dimension
  ///   (each with at least one entry).
  /// \param values row-major value array; size must equal the product of
  ///   the axis lengths.
  static Result<GridInterpolator> Create(std::vector<std::vector<double>> axes,
                                         std::vector<double> values);

  /// Evaluates the interpolant at `point` (size must equal dimensions()).
  double At(const std::vector<double>& point) const;

  /// Allocation-free variant: `point` must hold dimensions() coordinates.
  /// This is the form used by hot paths (the solver evaluates cost models
  /// millions of times per run).
  double At(const double* point, size_t dims) const;

  /// Fused value + gradient: evaluates the interpolant and its partial
  /// derivative along every axis in one cell-location pass. `grad_out`
  /// receives dimensions() entries. This is the analytic-gradient hot
  /// path: pricing value and slopes separately would locate the cell (one
  /// binary search per axis) multiple times for the same query.
  ///
  /// Outside the grid the interpolant clamps and is therefore constant, so
  /// the derivative along a clamped axis is 0. Exactly on the boundary the
  /// interior one-sided slope is returned — a valid subgradient of the
  /// clamped interpolant.
  double AtWithGrad(const double* point, size_t dims, double* grad_out) const;

  /// A coordinate located on one axis: flat offsets into the value array
  /// of the cell's lower and upper knots (`hi == lo` on a single-entry
  /// axis, whose upper corner does not exist), the upper knot's weight `w`,
  /// and d(w)/d(coordinate) `dw` — 0 where the query clamps or the axis is
  /// degenerate, the interior one-sided slope exactly on the boundary.
  struct Cell {
    size_t lo;
    size_t hi;
    double w;
    double dw;
  };

  /// Locates `x` on axis `d` (one binary search; `d` < dimensions()).
  /// Cells depend only on the axis, so a cell located once prices every
  /// grid built on the same axes and every query sharing that coordinate.
  /// Inline, like ValueGrad3: both sit in the solver's per-lookup loop.
  inline Cell Locate(size_t d, double x) const;

  /// Value and partial derivative along each axis (`grad_out` gets 3
  /// entries) of a 3-axis grid at cells located on its axes 0, 1, 2: a
  /// straight-line trilinear lerp chain, innermost axis first, instead of
  /// the generic 2^dims corner sweep. Agrees with At()/AtWithGrad() to
  /// rounding (different association order); those keep their historical
  /// bit patterns. The grid must have exactly 3 axes — this is the solver's
  /// per-lookup kernel, so callers check that once, not per query.
  inline double ValueGrad3(const Cell& c0, const Cell& c1, const Cell& c2,
                           double* grad_out) const;

  size_t dimensions() const { return axes_.size(); }
  const std::vector<std::vector<double>>& axes() const { return axes_; }
  const std::vector<double>& values() const { return values_; }

 private:
  GridInterpolator(std::vector<std::vector<double>> axes,
                   std::vector<double> values, std::vector<size_t> strides);

  std::vector<std::vector<double>> axes_;
  std::vector<double> values_;
  std::vector<size_t> strides_;  // row-major strides per axis
};

/// Finds the cell `[i, i+1]` of a strictly increasing axis containing `x`
/// and the interpolation weight `w` of the upper edge, clamping out-of-range
/// queries. With a single-entry axis returns i=0, w=0.
inline void LocateOnAxis(const std::vector<double>& axis, double x,
                         size_t* index, double* weight) {
  LDB_CHECK(!axis.empty());
  if (axis.size() == 1 || x <= axis.front()) {
    *index = 0;
    *weight = 0.0;
    return;
  }
  if (x >= axis.back()) {
    *index = axis.size() - 2;
    *weight = 1.0;
    return;
  }
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  const size_t hi = static_cast<size_t>(it - axis.begin());
  const size_t lo = hi - 1;
  *index = lo;
  *weight = (x - axis[lo]) / (axis[hi] - axis[lo]);
}

GridInterpolator::Cell GridInterpolator::Locate(size_t d, double x) const {
  const std::vector<double>& axis = axes_[d];
  size_t i;
  double w;
  LocateOnAxis(axis, x, &i, &w);
  // A single-entry axis locates to i=0, w=0; aliasing its upper corner to
  // the lower one keeps the lerp exact without branching in the gather.
  const size_t j = axis.size() == 1 ? i : i + 1;
  // 0 where the query clamps (the interpolant is constant there) or the
  // axis is degenerate; otherwise d(weight)/d(coordinate) on the cell.
  const double dw = (axis.size() < 2 || x < axis.front() || x > axis.back())
                        ? 0.0
                        : 1.0 / (axis[j] - axis[i]);
  return {i * strides_[d], j * strides_[d], w, dw};
}

double GridInterpolator::ValueGrad3(const Cell& c0, const Cell& c1,
                                    const Cell& c2, double* grad_out) const {
  const double* v = values_.data();
  const double v000 = v[c0.lo + c1.lo + c2.lo], v001 = v[c0.lo + c1.lo + c2.hi];
  const double v010 = v[c0.lo + c1.hi + c2.lo], v011 = v[c0.lo + c1.hi + c2.hi];
  const double v100 = v[c0.hi + c1.lo + c2.lo], v101 = v[c0.hi + c1.lo + c2.hi];
  const double v110 = v[c0.hi + c1.hi + c2.lo], v111 = v[c0.hi + c1.hi + c2.hi];
  const double w0 = c0.w, w1 = c1.w, w2 = c2.w;
  // Lerp chain, innermost axis first.
  const double a00 = v000 + w2 * (v001 - v000);
  const double a01 = v010 + w2 * (v011 - v010);
  const double a10 = v100 + w2 * (v101 - v100);
  const double a11 = v110 + w2 * (v111 - v110);
  const double b0 = a00 + w1 * (a01 - a00);
  const double b1 = a10 + w1 * (a11 - a10);
  // ∂value/∂w2 collapses the per-corner differences through the same
  // chain.
  const double e0 = (v001 - v000) + w1 * ((v011 - v010) - (v001 - v000));
  const double e1 = (v101 - v100) + w1 * ((v111 - v110) - (v101 - v100));
  grad_out[0] = (b1 - b0) * c0.dw;
  grad_out[1] = ((a01 - a00) + w0 * ((a11 - a10) - (a01 - a00))) * c1.dw;
  grad_out[2] = (e0 + w0 * (e1 - e0)) * c2.dw;
  return b0 + w0 * (b1 - b0);
}

}  // namespace ldb

#endif  // LAYOUTDB_UTIL_INTERP_H_
