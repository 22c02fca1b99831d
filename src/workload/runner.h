#ifndef LAYOUTDB_WORKLOAD_RUNNER_H_
#define LAYOUTDB_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/spec.h"

namespace ldb {

/// Outcome of a workload execution on the simulated storage system.
struct RunResult {
  double elapsed_seconds = 0.0;      ///< wall-clock (simulated) duration
  uint64_t olap_queries_completed = 0;
  uint64_t oltp_transactions = 0;    ///< counted after warmup
  double tpm = 0.0;                  ///< transactions/minute over the
                                     ///< measurement window (tpmC analogue)
  uint64_t total_requests = 0;       ///< target-level requests completed
  std::vector<double> utilization;   ///< measured per-target utilization
  /// Fault-path counters summed over targets (all-zero without a fault
  /// plan; see FaultInjector).
  FaultStats faults;
  /// Fault specs the injector skipped as invalid at fire time (filled by
  /// harness-level fault runs; empty without a fault plan).
  std::vector<std::string> skipped_faults;
};

/// Executes workload specs against a StorageSystem through a striped
/// volume manager — the simulated counterpart of PostgreSQL running the
/// paper's SQL workloads on real disks.
///
/// All I/O is closed-loop: each stream keeps `depth` requests outstanding
/// and issues the next one when a previous completes, so storage service
/// times directly determine workload elapsed time, as on the paper's
/// testbed.
///
/// The runner assumes a freshly-constructed (or Reset) StorageSystem so
/// that measured utilizations correspond to this run only.
class WorkloadRunner {
 public:
  /// `system` and `volumes` must outlive the runner. `volumes` must map
  /// every object referenced by the workloads.
  WorkloadRunner(StorageSystem* system, const StripedVolumeManager* volumes,
                 uint64_t seed = 42);

  /// Routes all foreground I/O through `router` instead of a fixed volume
  /// manager — the migration-aware path. `system` and `router` must
  /// outlive the runner.
  WorkloadRunner(StorageSystem* system, VolumeRouter* router,
                 uint64_t seed = 42);

  /// Installs a logical-level observer: called once per *object-level*
  /// request (pre-striping), with `target` set to -1. This is the level at
  /// which the paper's workload model describes objects; the per-target
  /// chunk stream is observable separately via StorageSystem's observer.
  void set_logical_observer(StorageSystem::Observer observer) {
    logical_observer_ = std::move(observer);
  }

  /// Installs a completion hook: called once, at the simulated time the
  /// workload logically finishes (last OLAP query done, or the OLTP
  /// duration stop), while in-flight requests may still be draining. This
  /// is how run-long periodic activities (the autopilot's drift ticks)
  /// know to stop rescheduling themselves so the event queue can idle.
  void set_on_finished(std::function<void()> hook) {
    on_finished_ = std::move(hook);
  }

  /// Runs an OLAP workload to completion.
  Result<RunResult> RunOlap(const OlapSpec& olap);

  /// Runs an OLTP workload for `duration_s` simulated seconds.
  Result<RunResult> RunOltp(const OltpSpec& oltp, double duration_s);

  /// Consolidation scenario: runs the OLAP workload to completion with the
  /// OLTP workload active alongside; OLTP terminals stop once the OLAP
  /// workload finishes (paper Section 6.3). The tpm window is
  /// [warmup, OLAP completion].
  Result<RunResult> RunMixed(const OlapSpec& olap, const OltpSpec& oltp);

  /// Dispatches on which workloads are given: both = RunMixed, OLAP only =
  /// RunOlap, OLTP only = RunOltp for `duration_s` (ignored otherwise).
  /// All run state lives on the stack because the event loop runs to
  /// completion before this returns.
  /// \returns InvalidArgument when neither workload is given, or when an
  ///   OLTP-only run has a non-positive duration.
  Result<RunResult> Run(const OlapSpec* olap, const OltpSpec* oltp,
                        double duration_s);

 private:
  StorageSystem* system_;
  std::unique_ptr<PassthroughRouter> owned_router_;  ///< legacy-ctor shim
  VolumeRouter* router_;
  Rng rng_;
  StorageSystem::Observer logical_observer_;
  std::function<void()> on_finished_;
  uint64_t next_logical_seq_ = 0;
  /// Per-object append cursors shared by kAppend streams (logs, temp).
  std::vector<int64_t> append_cursor_;
};

}  // namespace ldb

#endif  // LAYOUTDB_WORKLOAD_RUNNER_H_
