#include "util/interp.h"

#include <algorithm>

#include "util/check.h"

namespace ldb {

namespace {

/// Stack-array bound for per-axis cell state: grid models in this codebase
/// are low-dimensional (cost models use 3 axes) and these functions sit
/// inside the solver's inner loop.
constexpr size_t kMaxDims = 8;

}  // namespace

void LocateOnAxis(const std::vector<double>& axis, double x, size_t* index,
                  double* weight) {
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

Result<GridInterpolator> GridInterpolator::Create(
    std::vector<std::vector<double>> axes, std::vector<double> values) {
  if (axes.empty()) {
    return Status::InvalidArgument("interpolator needs at least one axis");
  }
  size_t expected = 1;
  for (const auto& axis : axes) {
    if (axis.empty()) {
      return Status::InvalidArgument("empty interpolation axis");
    }
    for (size_t i = 1; i < axis.size(); ++i) {
      if (axis[i] <= axis[i - 1]) {
        return Status::InvalidArgument(
            "interpolation axis must be strictly increasing");
      }
    }
    expected *= axis.size();
  }
  if (values.size() != expected) {
    return Status::InvalidArgument("value array size does not match grid");
  }
  std::vector<size_t> strides(axes.size());
  size_t stride = 1;
  for (size_t d = axes.size(); d-- > 0;) {
    strides[d] = stride;
    stride *= axes[d].size();
  }
  return GridInterpolator(std::move(axes), std::move(values),
                          std::move(strides));
}

GridInterpolator::GridInterpolator(std::vector<std::vector<double>> axes,
                                   std::vector<double> values,
                                   std::vector<size_t> strides)
    : axes_(std::move(axes)),
      values_(std::move(values)),
      strides_(std::move(strides)) {}

double GridInterpolator::At(const std::vector<double>& point) const {
  return At(point.data(), point.size());
}

double GridInterpolator::At(const double* point, size_t dims) const {
  LDB_CHECK_EQ(dims, axes_.size());
  LDB_CHECK_LE(dims, kMaxDims);
  // Per-axis cell index and upper-edge weight, on the stack.
  size_t idx[kMaxDims];
  double w[kMaxDims];
  for (size_t d = 0; d < dims; ++d) {
    LocateOnAxis(axes_[d], point[d], &idx[d], &w[d]);
  }
  // Sum over the 2^dims cell corners.
  const size_t corners = size_t{1} << dims;
  double acc = 0.0;
  for (size_t corner = 0; corner < corners; ++corner) {
    double cw = 1.0;
    size_t offset = 0;
    for (size_t d = 0; d < dims; ++d) {
      const bool upper = (corner >> d) & 1;
      if (upper && axes_[d].size() == 1) {
        cw = 0.0;  // degenerate axis: only the lower corner exists
        break;
      }
      cw *= upper ? w[d] : (1.0 - w[d]);
      offset += (idx[d] + (upper ? 1 : 0)) * strides_[d];
    }
    if (cw > 0.0) acc += cw * values_[offset];
  }
  return acc;
}

double GridInterpolator::AtWithGrad(const double* point, size_t dims,
                                    double* grad_out) const {
  LDB_CHECK_EQ(dims, axes_.size());
  LDB_CHECK_LE(dims, kMaxDims);
  LDB_CHECK(grad_out != nullptr);
  size_t idx[kMaxDims];
  double w[kMaxDims];
  double dwdx[kMaxDims];  // d(weight)/d(coordinate); 0 where clamped
  for (size_t d = 0; d < dims; ++d) {
    const std::vector<double>& axis = axes_[d];
    LocateOnAxis(axis, point[d], &idx[d], &w[d]);
    dwdx[d] = (axis.size() < 2 || point[d] < axis.front() ||
               point[d] > axis.back())
                  ? 0.0
                  : 1.0 / (axis[idx[d] + 1] - axis[idx[d]]);
  }
  const size_t corners = size_t{1} << dims;
  double acc = 0.0;
  double dacc[kMaxDims] = {0.0};
  for (size_t corner = 0; corner < corners; ++corner) {
    double factor[kMaxDims];
    double cw = 1.0;
    size_t offset = 0;
    bool degenerate = false;
    for (size_t d = 0; d < dims; ++d) {
      const bool upper = (corner >> d) & 1;
      if (upper && axes_[d].size() == 1) {
        degenerate = true;  // corner does not exist; contributes nothing
        break;
      }
      factor[d] = upper ? w[d] : (1.0 - w[d]);
      cw *= factor[d];
      offset += (idx[d] + (upper ? 1 : 0)) * strides_[d];
    }
    if (degenerate) continue;
    const double v = values_[offset];
    if (cw > 0.0) acc += cw * v;
    // d(cw)/d(w_d) = ±Π_{e≠d} factor_e; recomputing the small product per
    // axis avoids dividing by factors that may be exactly zero.
    for (size_t d = 0; d < dims; ++d) {
      if (dwdx[d] == 0.0) continue;
      double others = 1.0;
      for (size_t e = 0; e < dims; ++e) {
        if (e != d) others *= factor[e];
      }
      if (others == 0.0) continue;
      const bool upper = (corner >> d) & 1;
      dacc[d] += (upper ? others : -others) * v;
    }
  }
  for (size_t d = 0; d < dims; ++d) grad_out[d] = dacc[d] * dwdx[d];
  return acc;
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
