#ifndef LAYOUTDB_CORE_HARNESS_H_
#define LAYOUTDB_CORE_HARNESS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/autopilot.h"
#include "core/migrate.h"
#include "core/problem.h"
#include "model/calibration.h"
#include "storage/fault.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {

/// Declarative description of one storage target in an experiment rig:
/// either a group of 15K-RPM disks (RAID0 when members > 1) or an SSD.
struct RigTargetDef {
  std::string name;
  int disk_members = 1;      ///< number of 15K disks grouped together
  bool is_ssd = false;       ///< SSD target instead of disks
  int64_t ssd_capacity_bytes = 0;  ///< SSD capacity (pre-scaling); 0 = default
  RaidLevel raid_level = RaidLevel::kRaid0;  ///< grouping of disk members
};

/// Experiment rig reproducing the paper's testbed in simulation: a set of
/// storage targets built from 18.4 GB 15K-RPM disk models and an optional
/// SSD, calibrated cost models, and the trace→fit→advise→execute pipeline
/// of Sections 5–6.
///
/// `scale` proportionally shrinks database object sizes *and* device
/// capacities, preserving capacity pressure and seek geometry while making
/// simulations fast. Paper scale is 1.0.
class ExperimentRig {
 public:
  /// Builds a rig. Calibrates one cost model per distinct device type
  /// (cached inside the rig).
  static Result<ExperimentRig> Create(Catalog catalog,
                                      std::vector<RigTargetDef> targets,
                                      double scale = 1.0,
                                      uint64_t seed = 42);

  /// Same, with explicit calibration options — grid, parallelism, and the
  /// persistent cost-model cache (`--calibration-cache` in the CLIs). The
  /// rig seed overrides `calibration.seed` so one knob controls a run.
  static Result<ExperimentRig> Create(Catalog catalog,
                                      std::vector<RigTargetDef> targets,
                                      double scale, uint64_t seed,
                                      CalibrationOptions calibration);

  const Catalog& catalog() const { return catalog_; }
  int num_targets() const { return static_cast<int>(targets_.size()); }
  double scale() const { return scale_; }

  /// A fresh storage system with quiescent devices for one measured run.
  std::unique_ptr<StorageSystem> MakeSystem() const;

  /// Advisor-facing target descriptions (capacities, cost models).
  std::vector<AdvisorTarget> AdvisorTargets() const;

  /// Executes the given workloads under `layout` (must be regular and
  /// valid) on a fresh system; returns the measured results. Exactly one
  /// of `olap`/`oltp` may be null; with both set, runs the consolidation
  /// protocol (OLTP until OLAP completes).
  ///
  /// When the inputs equal those of the last FitWorkloads on this rig
  /// (same placements, equal specs, and for an OLTP-only run the same
  /// `oltp_duration_s`), the traced run already was this execution and its
  /// RunResult is returned without simulating again; the result is
  /// bit-identical either way.
  Result<RunResult> Execute(const Layout& layout, const OlapSpec* olap,
                            const OltpSpec* oltp,
                            double oltp_duration_s = 0.0) const;

  /// Execute with a deterministic fault plan armed on the fresh system
  /// before the run starts (fault times are relative to run start). An
  /// empty plan reproduces Execute exactly — the differential baseline the
  /// fault tests pin down. The run's FaultStats land in RunResult::faults.
  Result<RunResult> ExecuteWithFaults(const Layout& layout,
                                      const OlapSpec* olap,
                                      const OltpSpec* oltp,
                                      const FaultPlan& plan,
                                      double oltp_duration_s = 0.0) const;

  /// Executes the workloads while an online migration carries the layout
  /// from `from` to `to` in the background (both must be regular). Faults
  /// compose: the plan is armed on the same system, so a target can die
  /// mid-copy. With `from == to` the migration is an empty plan and the run
  /// reproduces Execute bit for bit.
  Result<MigrationRunReport> ExecuteWithMigration(
      const Layout& from, const Layout& to, const OlapSpec* olap,
      const OltpSpec* oltp, const FaultPlan& faults,
      const MigrateOptions& options, double oltp_duration_s = 0.0) const;

  /// Executes the workloads with the closed-loop layout autopilot engaged:
  /// `layout` is deployed, `reference` is the workload set it was advised
  /// for, and the monitor/drift/gate loop re-advises and migrates online
  /// when the live workload departs from the reference. Faults compose on
  /// the same system. With drift disabled (threshold = inf) the run is
  /// bit-identical to Execute(layout, ...).
  Result<AutopilotReport> ExecuteWithAutopilot(
      const Layout& layout, WorkloadSet reference, const OlapSpec* olap,
      const OltpSpec* oltp, const FaultPlan& faults,
      const AutopilotOptions& options, double oltp_duration_s = 0.0) const;

  /// The paper's workload-characterization pipeline (Section 5.1): runs
  /// the workloads under `trace_layout` with tracing enabled and fits
  /// Rome-style workload descriptions from the trace. The run's inputs and
  /// RunResult replace the rig's one remembered traced run, which a later
  /// Execute with the same inputs returns.
  Result<WorkloadSet> FitWorkloads(const Layout& trace_layout,
                                   const OlapSpec* olap,
                                   const OltpSpec* oltp,
                                   double oltp_duration_s = 0.0) const;

  /// Builds the layout problem from fitted workloads.
  Result<LayoutProblem> MakeProblem(WorkloadSet workloads) const;

 private:
  using Placements = std::vector<std::vector<int>>;

  /// The inputs and result of the last traced run. The logical observer
  /// draws no random numbers and schedules no events, so the traced run is
  /// the untraced run of the same inputs, bit for bit.
  struct TracedRun {
    Placements placements;
    std::optional<OlapSpec> olap;
    std::optional<OltpSpec> oltp;
    double oltp_duration_s = 0.0;  ///< 0 when an OLAP spec sets the length
    RunResult result;
  };
  /// Guards the one-entry memo, so const methods stay callable from
  /// several threads; held by pointer so the rig stays movable.
  struct TracedRunMemo {
    std::mutex mu;
    std::optional<TracedRun> entry;
  };

  ExperimentRig() = default;

  /// Runs the workloads on a fresh system with every object striped over
  /// its placement. A non-null `faults` is armed before the run starts; a
  /// non-empty `logical_observer` sees every object-level completion.
  Result<RunResult> RunPlaced(Placements placements, const OlapSpec* olap,
                              const OltpSpec* oltp, double oltp_duration_s,
                              const FaultPlan* faults,
                              StorageSystem::Observer logical_observer) const;

  Catalog catalog_;
  std::vector<TargetSpec> target_specs_;  ///< prototypes owned below
  std::vector<std::unique_ptr<BlockDevice>> prototypes_;
  CostModelRegistry cost_models_;
  std::vector<RigTargetDef> targets_;
  double scale_ = 1.0;
  uint64_t seed_ = 42;
  std::unique_ptr<TracedRunMemo> traced_ =
      std::make_unique<TracedRunMemo>();
};

/// Process-wide count of workload simulations started by ExperimentRig's
/// Execute, ExecuteWithFaults and FitWorkloads. Monotone; tests use deltas
/// to prove that an Execute was served from the traced run, or was not.
uint64_t RigSimulatedRuns();

}  // namespace ldb

#endif  // LAYOUTDB_CORE_HARNESS_H_
