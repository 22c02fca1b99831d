#include "model/cost_model.h"

#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

std::vector<double> Log2Axis(const std::vector<double>& axis) {
  std::vector<double> out;
  out.reserve(axis.size());
  for (double v : axis) out.push_back(std::log2(v));
  return out;
}

}  // namespace

Result<CostModel> CostModel::Create(std::string device_model,
                                    std::vector<double> size_axis,
                                    std::vector<double> run_axis,
                                    std::vector<double> contention_axis,
                                    std::vector<double> read_costs,
                                    std::vector<double> write_costs) {
  if (device_model.empty()) {
    return Status::InvalidArgument("device model name required");
  }
  for (double s : size_axis) {
    if (s <= 0) return Status::InvalidArgument("sizes must be positive");
  }
  for (double q : run_axis) {
    if (q < 1) return Status::InvalidArgument("run counts must be >= 1");
  }
  for (double c : contention_axis) {
    if (c < 0) return Status::InvalidArgument("contention must be >= 0");
  }
  for (double v : read_costs) {
    if (!(v > 0) || !std::isfinite(v)) {
      return Status::InvalidArgument("read costs must be positive finite");
    }
  }
  for (double v : write_costs) {
    if (!(v > 0) || !std::isfinite(v)) {
      return Status::InvalidArgument("write costs must be positive finite");
    }
  }
  auto read = GridInterpolator::Create(
      {Log2Axis(size_axis), Log2Axis(run_axis), contention_axis}, read_costs);
  if (!read.ok()) return read.status();
  auto write = GridInterpolator::Create(
      {Log2Axis(size_axis), Log2Axis(run_axis), contention_axis},
      write_costs);
  if (!write.ok()) return write.status();
  return CostModel(std::move(device_model), std::move(size_axis),
                   std::move(run_axis), std::move(contention_axis),
                   std::move(read).value(), std::move(write).value());
}

CostModel::CostModel(std::string device_model, std::vector<double> size_axis,
                     std::vector<double> run_axis,
                     std::vector<double> contention_axis,
                     GridInterpolator read, GridInterpolator write)
    : device_model_(std::move(device_model)),
      size_axis_(std::move(size_axis)),
      run_axis_(std::move(run_axis)),
      contention_axis_(std::move(contention_axis)),
      read_(std::move(read)),
      write_(std::move(write)) {
  // The cell lookups need 3-axis tables on shared axes; checked once here
  // rather than in the per-query kernel.
  LDB_CHECK_EQ(read_.dimensions(), size_t{3});
  LDB_CHECK(read_.axes() == write_.axes());
}

double CostModel::Cost(bool is_write, double request_size_bytes,
                       double run_count, double contention) const {
  LDB_CHECK_GT(request_size_bytes, 0.0);
  LDB_CHECK_GE(run_count, 1.0);
  LDB_CHECK_GE(contention, 0.0);
  const double point[3] = {std::log2(request_size_bytes),
                           std::log2(run_count), contention};
  return is_write ? write_.At(point, 3) : read_.At(point, 3);
}

double CostModel::CostWithGrad(bool is_write, double request_size_bytes,
                               double run_count, double contention,
                               double* d_run, double* d_chi) const {
  LDB_CHECK_GT(request_size_bytes, 0.0);
  LDB_CHECK_GE(run_count, 1.0);
  LDB_CHECK_GE(contention, 0.0);
  const double point[3] = {std::log2(request_size_bytes),
                           std::log2(run_count), contention};
  double grad[3];
  const double cost = (is_write ? write_ : read_).AtWithGrad(point, 3, grad);
  *d_run = grad[1] / (run_count * kLn2);
  *d_chi = grad[2];
  return cost;
}

std::string CostModel::ToText() const {
  std::ostringstream out;
  out.precision(17);
  out << "costmodel v1 " << device_model_ << "\n";
  auto dump = [&out](const char* tag, const std::vector<double>& v) {
    out << tag << " " << v.size();
    for (double x : v) out << " " << x;
    out << "\n";
  };
  dump("sizes", size_axis_);
  dump("runs", run_axis_);
  dump("contention", contention_axis_);
  dump("read", read_.values());
  dump("write", write_.values());
  return out.str();
}

Result<CostModel> CostModel::FromText(const std::string& text) {
  std::istringstream in(text);
  std::string magic, version, device;
  in >> magic >> version >> device;
  if (magic != "costmodel" || version != "v1" || device.empty()) {
    return Status::InvalidArgument("bad cost model header");
  }
  auto load = [&in](const char* tag,
                    std::vector<double>* v) -> Status {
    std::string seen;
    size_t n = 0;
    if (!(in >> seen >> n) || seen != tag) {
      return Status::InvalidArgument(
          StrFormat("bad cost model section, expected %s", tag));
    }
    v->resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (!(in >> (*v)[i])) {
        return Status::InvalidArgument("truncated cost model section");
      }
    }
    return Status::Ok();
  };
  std::vector<double> sizes, runs, chi, reads, writes;
  LDB_RETURN_IF_ERROR(load("sizes", &sizes));
  LDB_RETURN_IF_ERROR(load("runs", &runs));
  LDB_RETURN_IF_ERROR(load("contention", &chi));
  LDB_RETURN_IF_ERROR(load("read", &reads));
  LDB_RETURN_IF_ERROR(load("write", &writes));
  return Create(device, std::move(sizes), std::move(runs), std::move(chi),
                std::move(reads), std::move(writes));
}

}  // namespace ldb
