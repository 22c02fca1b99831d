#ifndef LAYOUTDB_CORE_AUTOPILOT_H_
#define LAYOUTDB_CORE_AUTOPILOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/migrate.h"
#include "core/problem.h"
#include "model/layout.h"
#include "monitor/autopilot_spec.h"
#include "storage/fault.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {

/// Everything the closed-loop autopilot needs: the monitor/gate
/// configuration (sensor), the re-advise knobs (decision), and the
/// migration executor knobs (actuator).
struct AutopilotOptions {
  AutopilotConfig config;
  /// Throttle/backpressure of migrations the autopilot starts. Its
  /// bandwidth also prices the cost-benefit gate (the fallback bandwidth
  /// in `config` applies when unthrottled).
  MigrateOptions migrate;
  /// Re-advise configuration. The solver's num_threads is honored with
  /// bit-identical results across thread counts (solver guarantee), so
  /// autopilot runs are deterministic for any --threads. The current
  /// layout is automatically added to `advisor.warm_seeds` on every
  /// re-advise.
  AdvisorOptions advisor;
  /// Simulated times (seconds) at which the controller's deployed layout
  /// is sampled into AutopilotReport::sampled_layouts. The sampling events
  /// submit no I/O and touch no RNG, so they never perturb the foreground
  /// — bench_scenarios uses them to score the autopilot per scenario
  /// segment. Times past the end of the run record the final layout.
  std::vector<double> layout_sample_times;
  /// Durable control plane: path of the WAL the controller checkpoints
  /// adopted layouts (and the executor journals transitions) into. Empty =
  /// no durability; state lives and dies with the process.
  std::string journal_path;
  /// Deterministic crash injection for the journal writer (tests/CLI).
  WalCrashPolicy journal_crash;
  /// Recover `journal_path` on startup: deploy the last checkpointed (or
  /// committed-but-uncheckpointed) layout and its drift reference instead
  /// of the caller's initial layout. Requires a non-empty journal_path.
  bool resume = false;
  /// Scenario-clock recording: when >= 0 (and a journal is open), every
  /// tick appends an `spos` record carrying `offset + now` — the absolute
  /// scenario position — so a mid-scenario kill/resume can restart the
  /// player where the dead process left off. The offset is the position
  /// the scenario was resumed *at* (0 for a fresh run). < 0 disables
  /// recording (plain workload runs have no scenario clock).
  double scenario_position_offset_s = -1.0;
};

/// One controller decision, recorded at every drift trip.
struct AutopilotDecision {
  double time = 0.0;   ///< simulated seconds since run start
  double score = 0.0;  ///< drift score that tripped
  double current_max_util = 0.0;  ///< model max-util of the deployed layout
                                  ///< under the live window
  double advised_max_util = 0.0;  ///< model max-util of the re-advised one
  double migration_bytes = 0.0;   ///< priced data movement
  double migration_seconds = 0.0; ///< copy time under the gate bandwidth
  bool gate_passed = false;
  bool started = false;  ///< a migration was actually launched
  std::string note;      ///< human-readable gate verdict
};

/// The deployed layout observed at one requested sample time.
struct LayoutSample {
  double time;
  Layout layout;
};

/// Outcome of one autopilot run: the foreground results plus the full
/// decision log and actuator counters.
struct AutopilotReport {
  RunResult run;
  std::vector<AutopilotDecision> decisions;  ///< one per drift trip
  uint64_t ticks = 0;           ///< drift evaluations performed
  uint64_t monitor_events = 0;  ///< completions the analyzer ingested
  int migrations_started = 0;
  int migrations_completed = 0;
  int migrations_suppressed = 0;  ///< tripped, moved bytes priced, gate said no
  int migrations_rolled_back = 0;
  int migrations_aborted = 0;
  int64_t bytes_copied = 0;  ///< copy writes issued by all migrations
  uint64_t fg_requests = 0;
  double fg_mean_latency_s = 0.0;
  Layout initial_layout;
  Layout final_layout;  ///< layout in effect when the run ended
  double final_drift_score = 0.0;
  /// One entry per AutopilotOptions::layout_sample_times, in order.
  std::vector<LayoutSample> sampled_layouts;
  /// Durable journal accounting (zero/false without a journal_path).
  bool journal_crashed = false;  ///< injected crash froze the control plane
  int64_t journal_records = 0;   ///< records in the WAL at end of run
  int64_t journal_bytes = 0;     ///< WAL file size at end of run
  /// True when --resume recovered a deployed layout from the journal
  /// (initial_layout then reflects the recovered state, not the caller's).
  bool resumed_from_journal = false;
  /// Real data plane accounting (MigrateOptions::data_backend runs only).
  bool real_backend = false;        ///< a data backend carried the bytes
  Status real_readable;             ///< end-of-run pattern verification
  int64_t real_bytes_verified = 0;  ///< bytes checked against the pattern

  AutopilotReport() : initial_layout(1, 1), final_layout(1, 1) {}

  /// Deterministic digest of everything observable: run metrics, the
  /// decision log, and the final layout. Two runs with equal fingerprints
  /// behaved identically — the bit-identity tests compare these.
  std::string Fingerprint() const;
};

/// The foreground half of an autopilot run. RunAutopilotLoop builds the
/// controller (analyzer, drift detector, volume-manager chain, migration
/// executors) and then calls the driver exactly once to run the workload:
/// the driver must submit all foreground I/O through `router` (the splice
/// seam migrations are swapped into), report every logical completion to
/// `observe` (which feeds the streaming analyzer), invoke `on_finished`
/// when the workload logically completes (so the controller stops
/// rescheduling ticks and the event queue can idle), and pump the event
/// loop to completion before returning.
using AutopilotForegroundDriver = std::function<Result<RunResult>(
    VolumeRouter* router, const StorageSystem::Observer& observe,
    const std::function<void()>& on_finished)>;

/// The reusable sense→decide→act loop under any foreground driver:
/// WorkloadRunner (RunAutopilotSim) or a ScenarioPlayer (scenario/sim).
/// Handles controller construction, fault arming, periodic ticks, layout
/// sampling, terminal migration accounting, and report assembly.
Result<AutopilotReport> RunAutopilotLoop(
    StorageSystem* system, const LayoutProblem& problem,
    const Layout& initial_layout, const FaultPlan& faults,
    const AutopilotOptions& options,
    const AutopilotForegroundDriver& foreground);

/// Runs workloads on `system` with the full sense→decide→act loop closed:
/// a streaming analyzer taps the runner's object-level completions, a
/// drift detector compares the live window against `problem.workloads`
/// (the set `initial_layout` was advised for), and on a trip the advisor
/// is re-run — warm-started from the deployed layout — with the resulting
/// migration executed through MigrationExecutor iff the cost-benefit gate
/// passes:
///
///   (mu_old - mu_new) >= gate_min_gain   and
///   (mu_old - mu_new) * gate_horizon_s >= total_bytes / bandwidth.
///
/// Faults compose exactly as in RunMigrationSim. With drift disabled
/// (threshold = inf) the run is bit-for-bit identical to a plain Execute
/// of `initial_layout`.
Result<AutopilotReport> RunAutopilotSim(
    StorageSystem* system, const LayoutProblem& problem,
    const Layout& initial_layout, const OlapSpec* olap, const OltpSpec* oltp,
    double oltp_duration_s, const FaultPlan& faults,
    const AutopilotOptions& options, uint64_t seed);

/// CLI-facing autopilot simulation (sibling of SimulateProblemMigration):
/// rebuilds devices from the problem's calibrated cost-model names,
/// synthesizes a closed-loop foreground workload from the fitted
/// descriptions, and runs it under the autopilot with `current` deployed.
/// Note the synthetic foreground is random-access, so a problem fitted
/// from sequential scans can legitimately trip drift: the autopilot
/// re-fits what actually runs.
Result<AutopilotReport> SimulateProblemAutopilot(
    const LayoutProblem& problem, const Layout& current,
    const FaultPlan& faults, const AutopilotOptions& options,
    double duration_s = 30.0, uint64_t seed = 42);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_AUTOPILOT_H_
