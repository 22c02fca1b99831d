#include "io/calibrate.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <vector>

#include "util/fnv.h"
#include "util/random.h"
#include "util/table.h"

namespace ldb {

namespace {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times the mean primary service time of one real grid point.
Result<double> MeasureRealPoint(FileBackend* backend, int target,
                                double request_size, double run_count,
                                double contention, bool primary_is_write,
                                const CalibrationOptions& opts, Rng* rng,
                                std::vector<char>* buf) {
  const int64_t lbs = backend->geometry().logical_block_bytes;
  const int64_t capacity =
      backend->geometry().capacity_bytes[static_cast<size_t>(target)];
  const int64_t size =
      std::max(lbs, static_cast<int64_t>(request_size) / lbs * lbs);
  if (capacity <= size) {
    return Status::InvalidArgument(
        StrFormat("target %d capacity %lld too small for %lld-byte "
                  "calibration requests",
                  target, (long long)capacity, (long long)size));
  }
  const int64_t run_len =
      std::max<int64_t>(1, static_cast<int64_t>(run_count));
  const int64_t interferer_size = std::max(
      lbs, static_cast<int64_t>(opts.interferer_size_bytes) / lbs * lbs);
  buf->resize(static_cast<size_t>(std::max(size, interferer_size)));

  auto random_offset = [&](int64_t req_size) {
    const int64_t slots = (capacity - req_size) / req_size;
    return rng->UniformInt(int64_t{0}, slots) * req_size;
  };

  int64_t next_offset = random_offset(size);
  int64_t run_pos = 0;
  double interferer_credit = 0.0;
  double total = 0.0;
  int measured = 0;
  const int rounds = opts.warmup_requests + opts.sample_requests;
  for (int round = 0; round < rounds; ++round) {
    // Interferers first: they are the queue the primary contends with.
    interferer_credit += contention;
    while (interferer_credit >= 1.0) {
      LDB_RETURN_IF_ERROR(backend->ReadSync(
          target, random_offset(interferer_size), interferer_size,
          buf->data()));
      interferer_credit -= 1.0;
    }
    if (run_pos >= run_len || next_offset + size > capacity) {
      next_offset = random_offset(size);
      run_pos = 0;
    }
    const double start = NowS();
    if (primary_is_write) {
      LDB_RETURN_IF_ERROR(
          backend->WriteSync(target, next_offset, size, buf->data()));
    } else {
      LDB_RETURN_IF_ERROR(
          backend->ReadSync(target, next_offset, size, buf->data()));
    }
    if (round >= opts.warmup_requests) {
      total += NowS() - start;
      ++measured;
    }
    next_offset += size;
    ++run_pos;
  }
  if (measured == 0) {
    return Status::InvalidArgument("sample_requests must be positive");
  }
  return total / measured;
}

Status CheckTarget(const FileBackend& backend, int target) {
  if (target < 0 || target >= backend.geometry().num_targets) {
    return Status::InvalidArgument(
        StrFormat("calibration target %d out of range", target));
  }
  return Status::Ok();
}

}  // namespace

Result<CostModel> CalibrateBackendTarget(FileBackend* backend, int target,
                                         const std::string& model_name,
                                         const CalibrationOptions& options) {
  if (options.size_axis.empty() || options.run_axis.empty() ||
      options.contention_axis.empty()) {
    return Status::InvalidArgument("calibration axes must be non-empty");
  }
  if (options.sample_requests <= 0) {
    return Status::InvalidArgument("sample_requests must be positive");
  }
  LDB_RETURN_IF_ERROR(CheckTarget(*backend, target));
  const size_t n_run = options.run_axis.size();
  const size_t n_chi = options.contention_axis.size();
  const size_t points = options.size_axis.size() * n_run * n_chi;
  std::vector<double> read_costs(points), write_costs(points);
  std::vector<char> buf;
  for (size_t p = 0; p < points; ++p) {
    const double size = options.size_axis[p / (n_run * n_chi)];
    const double run = options.run_axis[(p / n_chi) % n_run];
    const double chi = options.contention_axis[p % n_chi];
    Rng rng(MixSeed(options.seed, p));
    auto r = MeasureRealPoint(backend, target, size, run, chi, false,
                              options, &rng, &buf);
    if (!r.ok()) return r.status();
    read_costs[p] = *r;
    auto w = MeasureRealPoint(backend, target, size, run, chi, true,
                              options, &rng, &buf);
    if (!w.ok()) return w.status();
    write_costs[p] = *w;
  }
  return CostModel::Create(model_name, options.size_axis, options.run_axis,
                           options.contention_axis, std::move(read_costs),
                           std::move(write_costs));
}

uint64_t BackendCalibrationKey(const FileBackend& backend, int target,
                               const std::string& model_name,
                               const CalibrationOptions& options) {
  const BackendGeometry& g = backend.geometry();
  std::ostringstream text;
  text.precision(17);
  // "kind file" keeps keys of existing cache files valid.
  text << "calib-real-v1|" << model_name << "|kind file|target " << target
       << "|capacity " << g.capacity_bytes[static_cast<size_t>(target)]
       << "|lbs "
       << g.logical_block_bytes << "|direct " << (g.direct_io ? 1 : 0)
       << "|sizes";
  for (double v : options.size_axis) text << " " << v;
  text << "|runs";
  for (double v : options.run_axis) text << " " << v;
  text << "|chi";
  for (double v : options.contention_axis) text << " " << v;
  text << "|warmup " << options.warmup_requests << "|samples "
       << options.sample_requests << "|intf " << options.interferer_size_bytes
       << "|seed " << options.seed;
  return FnvMixBytes(kFnvOffsetBasis, text.str());
}

Result<CostModel> CalibrateBackendTargetCached(
    FileBackend* backend, int target, const std::string& model_name,
    const CalibrationOptions& options) {
  // BackendCalibrationKey indexes the target's geometry.
  LDB_RETURN_IF_ERROR(CheckTarget(*backend, target));
  return CalibrateThroughCache(
      options, model_name,
      [&] {
        return BackendCalibrationKey(*backend, target, model_name, options);
      },
      [&] {
        return CalibrateBackendTarget(backend, target, model_name, options);
      });
}

}  // namespace ldb
