#ifndef LAYOUTDB_IO_CALIBRATE_H_
#define LAYOUTDB_IO_CALIBRATE_H_

#include <string>

#include "io/file_backend.h"
#include "model/calibration.h"

namespace ldb {

/// Real-measurement calibration: times actual I/O on one backend target
/// over the same (request size × run count × contention) grid that
/// CalibrateDevice sweeps in simulation, producing a CostModel
/// interchangeable with the simulated tables.
///
/// Semantics mirror the simulator's MeasurePoint: each round issues one
/// primary request (continuing a sequential run of `run_count` requests,
/// then jumping to a random aligned offset) plus `contention` interfering
/// random reads, and only the primary's wall-clock service time is
/// recorded. Measurement is synchronous and single-streamed — grid points
/// run serially so one point's queue pressure cannot leak into another,
/// which is why this does NOT parallelize like the simulated calibration.
///
/// Request sizes and offsets are aligned to the backend's logical block,
/// so the grid rides the O_DIRECT fast path where available; on a
/// buffered fallback the tables measure the page cache, which the caller
/// should treat as a lower bound (the probe's `direct_io` flag says
/// which).
Result<CostModel> CalibrateBackendTarget(FileBackend* backend, int target,
                                         const std::string& model_name,
                                         const CalibrationOptions& options);

/// Cache key for a real-backend calibration: hashes the backend geometry
/// (capacity, block size, direct-I/O flag) and the grid/options, in
/// a namespace ("calib-real-v1") disjoint from simulated keys so real and
/// simulated tables never alias in the calibcache.
uint64_t BackendCalibrationKey(const FileBackend& backend, int target,
                               const std::string& model_name,
                               const CalibrationOptions& options);

/// CalibrateBackendTarget behind CalibrateThroughCache, the persistent
/// cache protocol CalibrateDeviceCached uses, keyed by
/// BackendCalibrationKey.
Result<CostModel> CalibrateBackendTargetCached(
    FileBackend* backend, int target, const std::string& model_name,
    const CalibrationOptions& options);

}  // namespace ldb

#endif  // LAYOUTDB_IO_CALIBRATE_H_
