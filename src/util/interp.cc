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

}  // namespace ldb
