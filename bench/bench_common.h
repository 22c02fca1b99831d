#ifndef LAYOUTDB_BENCH_BENCH_COMMON_H_
#define LAYOUTDB_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/baselines.h"
#include "core/harness.h"
#include "model/layout.h"
#include "util/status.h"
#include "workload/catalog.h"
#include "workload/spec.h"

namespace ldb {
namespace bench {

/// Shared configuration for the paper-reproduction benchmark binaries.
///
/// `scale` proportionally shrinks database and device sizes (1.0 = the
/// paper's testbed; the default keeps every benchmark within seconds).
/// Absolute times therefore differ from the paper; the reported speedups
/// and orderings are the reproduction targets.
struct BenchEnv {
  double scale = 0.05;
  uint64_t seed = 7;
  /// Solver threads for the "parallel" benchmark configurations:
  /// 0 = one per hardware core (default), n = exactly n.
  int num_threads = 0;
  /// When --json is given, machine-readable results are written here
  /// ("-" = stdout) in addition to the human-readable tables.
  std::string json_path;
  bool json = false;
  /// Directory of the persistent device cost-model cache
  /// (--calibration-cache=<dir>); empty = no cache (or the
  /// LDB_CALIBRATION_CACHE environment variable).
  std::string calibration_cache;
};

/// Parses --scale=<f>, --seed=<n>, --threads=<n>, --json[=path], and
/// --calibration-cache=<dir> from argv (ignores anything else, so binaries
/// still run under blanket bench runners). A malformed number (see
/// util/spec_text.h) prints a message naming the flag and exits 2.
BenchEnv ParseBenchEnv(int argc, char** argv);

/// Calibration options implied by a BenchEnv (parallelism from --threads,
/// cache directory from --calibration-cache).
CalibrationOptions RigCalibration(const BenchEnv& env);

/// ExperimentRig::Create with the env's scale, seed, and calibration
/// options — every bench builds its rigs through this, so they all honor
/// --calibration-cache.
Result<ExperimentRig> MakeRig(const BenchEnv& env, Catalog catalog,
                              std::vector<RigTargetDef> targets);

/// Minimal JSON emitter for benchmark results: a flat array of objects
/// with string / double / integer fields. No dependency, no cleverness —
/// just enough for scripts to scrape benchmark output reliably.
class JsonRows {
 public:
  void BeginRow();
  void Field(const std::string& name, const std::string& value);
  void Field(const std::string& name, const char* value);
  void Field(const std::string& name, double value);
  void Field(const std::string& name, int64_t value);
  void Field(const std::string& name, int value);
  void Field(const std::string& name, bool value);

  /// The accumulated rows as a JSON array.
  std::string ToString() const;

  /// Writes ToString() to `path` ("-" or empty = stdout). Returns false on
  /// I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  void Append(const std::string& name, const std::string& rendered);

  std::vector<std::string> rows_;
};

/// Prints the standard benchmark banner.
void PrintHeader(const char* figure, const char* description,
                 const BenchEnv& env);

/// Builds the paper's homogeneous rig: TPC-H on four 15K-RPM disks.
Result<ExperimentRig> FourDiskTpchRig(const BenchEnv& env);

/// SEE layout for a rig.
Layout SeeLayout(const ExperimentRig& rig);

/// The full advisor pipeline of Section 6: trace the workloads under SEE,
/// fit workload descriptions, and recommend a layout. `oltp_duration_s` is
/// the trace length of an OLTP-only run (ExperimentRig::FitWorkloads); with
/// an OLAP spec the trace runs the OLAP streams to completion and ignores
/// it, so only OLTP-only callers pass one.
struct AdvisedLayout {
  LayoutProblem problem;
  AdvisorResult result;
};
Result<AdvisedLayout> AdviseForWorkload(const ExperimentRig& rig,
                                        const OlapSpec* olap,
                                        const OltpSpec* oltp,
                                        AdvisorOptions options = {},
                                        double oltp_duration_s = 0.0);

/// Renders the rows of `layout` restricted to the `count` objects with the
/// highest fitted request rates (the way the paper's layout figures show
/// only the most heavily accessed objects), in decreasing request-rate
/// order.
std::string TopObjectsLayoutString(const LayoutProblem& problem,
                                   const Layout& layout, int count);

}  // namespace bench
}  // namespace ldb

#endif  // LAYOUTDB_BENCH_BENCH_COMMON_H_
