#ifndef LAYOUTDB_MODEL_CALIBRATION_H_
#define LAYOUTDB_MODEL_CALIBRATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "storage/device.h"
#include "util/units.h"

namespace ldb {

/// Calibration workload grid and sampling parameters.
struct CalibrationOptions {
  std::vector<double> size_axis = {
      static_cast<double>(4 * kKiB),   static_cast<double>(8 * kKiB),
      static_cast<double>(16 * kKiB),  static_cast<double>(32 * kKiB),
      static_cast<double>(64 * kKiB),  static_cast<double>(128 * kKiB),
      static_cast<double>(256 * kKiB), static_cast<double>(512 * kKiB),
      static_cast<double>(kMiB)};
  std::vector<double> run_axis = {1, 2, 4, 8, 16, 32, 64, 128};
  std::vector<double> contention_axis = {0, 0.5, 1, 2, 4, 8, 16};
  int sample_requests = 256;  ///< measured requests per grid point
  uint64_t seed = 1;
  /// Calibration parallelism over grid points: 0 = one lane per hardware
  /// core, n = exactly n. Every grid point runs against its own device
  /// clone with its own RNG derived from (seed, point index), so the
  /// tables are bit-identical for every thread count.
  int num_threads = 0;
  /// Directory of the on-disk cost-model cache used by
  /// CalibrateDeviceCached / CostModelRegistry::ForDevices; empty = the
  /// LDB_CALIBRATION_CACHE environment variable, or no caching when that
  /// is unset too. Does not affect measured values (excluded from the
  /// cache key, like num_threads).
  std::string cache_dir;
};

/// Builds a black-box cost model for a device type by measurement (paper
/// Section 5.2.2): for every (request size, run count, contention) grid
/// point, subjects a fresh copy of the device to a primary request stream
/// with those properties plus `contention` interfering random requests per
/// primary request, and tabulates the mean primary service time. Requests
/// are served shortest-positioning-first, mimicking a device queue under
/// concurrent load, which is what produces the paper's Figure 8 effects
/// (sequential advantage collapsing around χ=2; random cost decreasing
/// with queue depth).
Result<CostModel> CalibrateDevice(const BlockDevice& prototype,
                                  const CalibrationOptions& options = {});

/// CalibrateDevice behind the persistent cost-model cache in
/// options.cache_dir, else LDB_CALIBRATION_CACHE (no caching when neither
/// is set): returns the tables stored at CalibrationCachePath
/// bit-identically on a hit; on a miss — or any unreadable, corrupt, or
/// stale cache file — calibrates and stores the result. Cache I/O failures
/// never fail the call, they only cost a recalibration.
Result<CostModel> CalibrateDeviceCached(const BlockDevice& prototype,
                                        const CalibrationOptions& options = {});

/// 64-bit key identifying one calibration: a hash of the device's
/// ParamsText() and every CalibrationOptions field that affects the
/// measured tables (axes, sample count, seed — not num_threads or
/// cache_dir), plus the fixed warmup count and interfering-read size.
uint64_t CalibrationCacheKey(const BlockDevice& prototype,
                             const CalibrationOptions& options);

/// Cache file path for (prototype, options) under `dir`. The key is part
/// of the file name, so different device parameters or options never
/// collide.
std::string CalibrationCachePath(const std::string& dir,
                                 const BlockDevice& prototype,
                                 const CalibrationOptions& options);

/// Writes `model` to `path` in the versioned cache format (a
/// "calibcache v1 <key>" header followed by CostModel::ToText()), via a
/// temporary file and rename so concurrent readers never see partial
/// content.
Status SaveCostModelCache(const std::string& path, uint64_t key,
                          const CostModel& model);

/// Reads a model written by SaveCostModelCache, verifying the format
/// version and that the stored key equals `expected_key` (stale-key
/// detection). The text round-trip is exact, so the returned tables are
/// bit-identical to the saved ones.
Result<CostModel> LoadCostModelCache(const std::string& path,
                                     uint64_t expected_key);

/// Process-wide count of grid-point measurements performed by
/// CalibrateDevice (one per (point, table) pair). Monotone; tests and
/// benches use deltas to prove that warm-cache paths measure nothing.
uint64_t CalibrationMeasurePoints();

/// A set of calibrated cost models keyed by device model name. Benchmarks
/// calibrate each distinct device type once and share the registry across
/// advisor runs.
class CostModelRegistry {
 public:
  CostModelRegistry() = default;

  /// Adds (or replaces) a model under its device_model() name.
  void Register(CostModel model);

  /// Looks up the model for a device type; nullptr if absent.
  const CostModel* Find(const std::string& device_model) const;

  /// Calibrates every distinct device model among `prototypes` and returns
  /// the populated registry. Consults the calibration cache (see
  /// CalibrationOptions::cache_dir) before measuring.
  static Result<CostModelRegistry> ForDevices(
      const std::vector<const BlockDevice*>& prototypes,
      const CalibrationOptions& options = {});

 private:
  std::map<std::string, CostModel> models_;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_CALIBRATION_H_
