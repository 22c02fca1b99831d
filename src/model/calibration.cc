#include "model/calibration.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "util/check.h"
#include "util/fnv.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/wal.h"

namespace ldb {

namespace {

std::atomic<uint64_t> g_measure_points{0};

/// Size of each interfering random read. Part of the cache key text.
constexpr int64_t kInterfererSizeBytes = 8 * kKiB;

/// Primary requests served and discarded at each grid point before
/// measuring. Part of the cache key text.
constexpr int kWarmupRequests = 32;

/// Measures the mean primary-request service time at one grid point.
///
/// Each "round" consists of one primary request plus `contention`
/// interfering random requests (fractional contention accumulates across
/// rounds). The round's requests are served shortest-positioning-first
/// against the stateful device, emulating a loaded device queue; the
/// primary's own service time is recorded.
double MeasurePoint(BlockDevice* dev, double request_size, double run_count,
                    double contention, bool primary_is_write,
                    const CalibrationOptions& opts, Rng* rng) {
  g_measure_points.fetch_add(1, std::memory_order_relaxed);
  dev->Reset();
  const int64_t size = static_cast<int64_t>(request_size);
  const int64_t capacity = dev->capacity_bytes();
  LDB_CHECK_GT(capacity, size);
  const int64_t run_len = std::max<int64_t>(1, static_cast<int64_t>(run_count));

  auto random_offset = [&](int64_t req_size) {
    // Align to the request size to mimic block-aligned access.
    const int64_t slots = (capacity - req_size) / req_size;
    return rng->UniformInt(int64_t{0}, slots) * req_size;
  };

  int64_t next_offset = random_offset(size);
  int64_t run_pos = 0;
  double interferer_credit = 0.0;

  double total = 0.0;
  int measured = 0;
  const int rounds = kWarmupRequests + opts.sample_requests;
  // Pending requests of one round with their positioning estimates; the
  // estimate is taken once when the round's queue forms (the state the
  // scheduler would order on), not re-queried after every serve, which
  // keeps the round O(B) estimate calls instead of O(B²).
  struct Pending {
    double estimate;
    uint32_t order;  ///< arrival index; primary is 0
    DeviceRequest req;
  };
  std::vector<DeviceRequest> batch;
  std::vector<Pending> pending;
  for (int round = 0; round < rounds; ++round) {
    batch.clear();
    // Primary request: continue the current sequential run or jump.
    if (run_pos >= run_len || next_offset + size > capacity) {
      next_offset = random_offset(size);
      run_pos = 0;
    }
    const DeviceRequest primary{next_offset, size, primary_is_write};
    next_offset += size;
    ++run_pos;
    batch.push_back(primary);

    // Interfering requests: `contention` random reads per primary request.
    interferer_credit += contention;
    while (interferer_credit >= 1.0) {
      batch.push_back(DeviceRequest{random_offset(kInterfererSizeBytes),
                                    kInterfererSizeBytes, false});
      interferer_credit -= 1.0;
    }

    // Serve the round shortest-positioning-first, breaking estimate ties
    // by arrival order; swap-remove keeps the scan cheap.
    pending.clear();
    for (size_t b = 0; b < batch.size(); ++b) {
      pending.push_back(Pending{dev->PositioningEstimate(batch[b]),
                                static_cast<uint32_t>(b), batch[b]});
    }
    while (!pending.empty()) {
      size_t best = 0;
      for (size_t b = 1; b < pending.size(); ++b) {
        if (pending[b].estimate < pending[best].estimate ||
            (pending[b].estimate == pending[best].estimate &&
             pending[b].order < pending[best].order)) {
          best = b;
        }
      }
      const double t = dev->ServiceTime(pending[best].req);
      if (pending[best].order == 0 && round >= kWarmupRequests) {
        total += t;
        ++measured;
      }
      pending[best] = pending.back();
      pending.pop_back();
    }
  }
  LDB_CHECK_GT(measured, 0);
  return total / measured;
}

std::string KeyHex(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::string CachePath(const std::string& dir, const std::string& model_name,
                      uint64_t key) {
  return dir + "/" + model_name + "-" + KeyHex(key) + ".costmodel";
}

}  // namespace

Result<CostModel> CalibrateDevice(const BlockDevice& prototype,
                                  const CalibrationOptions& options) {
  if (options.size_axis.empty() || options.run_axis.empty() ||
      options.contention_axis.empty()) {
    return Status::InvalidArgument("calibration axes must be non-empty");
  }
  if (options.sample_requests <= 0) {
    return Status::InvalidArgument("sample_requests must be positive");
  }
  const size_t n_run = options.run_axis.size();
  const size_t n_chi = options.contention_axis.size();
  const size_t points = options.size_axis.size() * n_run * n_chi;
  std::vector<double> read_costs(points), write_costs(points);

  // One independent task per grid point: its own RNG stream (seeded from
  // the point index, not the schedule) and a device clone reset by
  // MeasurePoint, writing to index-addressed slots — the same determinism
  // discipline as the solver's parallel paths, so the tables are
  // bit-identical for every thread count.
  auto measure = [&](BlockDevice* dev, size_t p) {
    const double size = options.size_axis[p / (n_run * n_chi)];
    const double run = options.run_axis[(p / n_chi) % n_run];
    const double chi = options.contention_axis[p % n_chi];
    Rng rng(MixSeed(options.seed, p));
    read_costs[p] = MeasurePoint(dev, size, run, chi, false, options, &rng);
    write_costs[p] = MeasurePoint(dev, size, run, chi, true, options, &rng);
  };

  const int threads = std::min<int64_t>(
      ThreadPool::EffectiveThreads(options.num_threads),
      static_cast<int64_t>(points));
  if (threads <= 1) {
    std::unique_ptr<BlockDevice> dev = prototype.Clone();
    for (size_t p = 0; p < points; ++p) measure(dev.get(), p);
  } else {
    std::vector<std::unique_ptr<BlockDevice>> devs(
        static_cast<size_t>(threads));
    for (auto& dev : devs) dev = prototype.Clone();
    ThreadPool pool(threads);
    pool.ParallelFor(static_cast<int64_t>(points),
                     [&](int rank, int64_t p) {
                       measure(devs[static_cast<size_t>(rank)].get(),
                               static_cast<size_t>(p));
                     });
  }
  return CostModel::Create(prototype.model_name(), options.size_axis,
                           options.run_axis, options.contention_axis,
                           std::move(read_costs), std::move(write_costs));
}

uint64_t CalibrationCacheKey(const BlockDevice& prototype,
                             const CalibrationOptions& options) {
  std::ostringstream text;
  text.precision(17);
  text << "calib-v1|" << prototype.ParamsText() << "|sizes";
  for (double v : options.size_axis) text << " " << v;
  text << "|runs";
  for (double v : options.run_axis) text << " " << v;
  text << "|chi";
  for (double v : options.contention_axis) text << " " << v;
  text << "|warmup " << kWarmupRequests << "|samples "
       << options.sample_requests << "|intf " << kInterfererSizeBytes
       << "|seed " << options.seed;
  return FnvMixBytes(kFnvOffsetBasis, text.str());
}

std::string CalibrationCachePath(const std::string& dir,
                                 const BlockDevice& prototype,
                                 const CalibrationOptions& options) {
  return CachePath(dir, prototype.model_name(),
                   CalibrationCacheKey(prototype, options));
}

Status SaveCostModelCache(const std::string& path, uint64_t key,
                          const CostModel& model) {
  // Concurrent savers of the same key write identical bytes, so the only
  // in-process hazard is a reader seeing a partial file; the durable
  // write (tmp + fsync + rename + parent-dir fsync) also rules out a
  // crash leaving a zero-length cache that silently forces recalibration.
  return WriteFileDurable(path,
                          "calibcache v1 " + KeyHex(key) + "\n" +
                              model.ToText());
}

Result<CostModel> LoadCostModelCache(const std::string& path,
                                     uint64_t expected_key) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("no calibration cache file " + path);
  }
  std::string magic, version, key_hex;
  if (!(in >> magic >> version >> key_hex) || magic != "calibcache" ||
      version != "v1") {
    return Status::InvalidArgument("bad calibration cache header in " + path);
  }
  if (key_hex != KeyHex(expected_key)) {
    return Status::NotFound("stale calibration cache key in " + path);
  }
  in.ignore(1);  // the newline ending the header
  std::ostringstream body;
  body << in.rdbuf();
  return CostModel::FromText(body.str());
}

Result<CostModel> CalibrateDeviceCached(const BlockDevice& prototype,
                                        const CalibrationOptions& options) {
  // The explicit option wins, then the environment (how CI shares
  // calibrations across jobs and runs).
  std::string dir = options.cache_dir;
  if (dir.empty()) {
    const char* env = std::getenv("LDB_CALIBRATION_CACHE");
    if (env != nullptr) dir = env;
  }
  if (dir.empty()) return CalibrateDevice(prototype, options);
  const uint64_t key = CalibrationCacheKey(prototype, options);
  const std::string path = CachePath(dir, prototype.model_name(), key);
  auto cached = LoadCostModelCache(path, key);
  if (cached.ok()) return cached;
  auto model = CalibrateDevice(prototype, options);
  if (!model.ok()) return model;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  // Failure to persist only costs a future recalibration.
  (void)SaveCostModelCache(path, key, *model);
  return model;
}

uint64_t CalibrationMeasurePoints() {
  return g_measure_points.load(std::memory_order_relaxed);
}

void CostModelRegistry::Register(CostModel model) {
  const std::string name = model.device_model();
  models_.erase(name);
  models_.emplace(name, std::move(model));
}

const CostModel* CostModelRegistry::Find(
    const std::string& device_model) const {
  const auto it = models_.find(device_model);
  return it == models_.end() ? nullptr : &it->second;
}

Result<CostModelRegistry> CostModelRegistry::ForDevices(
    const std::vector<const BlockDevice*>& prototypes,
    const CalibrationOptions& options) {
  CostModelRegistry registry;
  for (const BlockDevice* proto : prototypes) {
    if (proto == nullptr) {
      return Status::InvalidArgument("null device prototype");
    }
    if (registry.Find(proto->model_name()) != nullptr) continue;
    auto model = CalibrateDeviceCached(*proto, options);
    if (!model.ok()) return model.status();
    registry.Register(std::move(model).value());
  }
  return registry;
}

}  // namespace ldb
