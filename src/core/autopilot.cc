#include "core/autopilot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/journal.h"
#include "core/replan.h"
#include "core/sim_setup.h"
#include "io/pattern.h"
#include "model/target_model.h"
#include "monitor/drift.h"
#include "monitor/online_analyzer.h"
#include "storage/disk.h"
#include "storage/ssd.h"
#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

/// All controller state shared by the tick callback chain. Lives on
/// RunAutopilotSim's stack: the event loop runs to completion inside the
/// runner before the frame unwinds, exactly like the runner's own driver
/// state.
struct Controller {
  Controller(StorageSystem* system_in, const LayoutProblem* problem_in,
             const AutopilotOptions* options_in, const Layout& initial)
      : system(system_in),
        problem(problem_in),
        options(options_in),
        model(problem_in->MakeTargetModel()),
        analyzer(problem_in->num_objects(), options_in->config.analyzer),
        detector(problem_in->workloads, options_in->config.drift,
                 system_in->queue().Now()),
        current_layout(initial),
        pending_layout(initial),
        pending_reference(problem_in->workloads) {}

  StorageSystem* system;
  const LayoutProblem* problem;
  const AutopilotOptions* options;
  TargetModel model;
  OnlineAnalyzer analyzer;
  DriftDetector detector;

  /// Deployed-state chain: every adopted layout keeps its volume manager
  /// (and passthrough router) alive because in-flight and journaled state
  /// may still reference it.
  std::vector<std::unique_ptr<StripedVolumeManager>> managers;
  std::vector<std::unique_ptr<PassthroughRouter>> passthroughs;
  std::vector<std::unique_ptr<MigrationExecutor>> executors;

  SwitchableRouter* router = nullptr;       ///< foreground splice seam
  MigrationExecutor* active = nullptr;      ///< copy in flight, or null
  size_t current_manager = 0;               ///< index into `managers`
  size_t pending_manager = 0;
  Layout current_layout;
  Layout pending_layout;
  WorkloadSet pending_reference;  ///< live window the pending layout fits

  bool run_active = true;   ///< workload still logically running
  bool frozen = false;      ///< an abort froze routing; stop acting
  ControlJournal* journal = nullptr;  ///< durable control plane, or null
  AutopilotReport* report = nullptr;

  PassthroughRouter* current_passthrough() {
    return passthroughs[current_manager].get();
  }

  void AdoptCompleted() {
    if (journal != nullptr) {
      // Checkpoint before adopting (write-ahead). A failed append is
      // process death: the in-memory adoption still happens — the commit
      // record already switched authority durably, and the intent record
      // carries the same layout — but the controller stops acting.
      const Status ckpt = journal->AppendCheckpoint(
          system->queue().Now(), pending_layout, pending_reference);
      if (!ckpt.ok()) frozen = true;
    }
    current_layout = pending_layout;
    current_manager = pending_manager;
    router->set_delegate(current_passthrough());
    detector.Rearm(std::move(pending_reference), system->queue().Now());
    active = nullptr;
    ++report->migrations_completed;
  }

  void HandleRollback() {
    // The old layout is authoritative again; route around the executor and
    // take a fresh cooldown before trying anything else.
    router->set_delegate(current_passthrough());
    detector.Rearm(detector.reference(), system->queue().Now());
    active = nullptr;
    ++report->migrations_rolled_back;
  }

  void HandleAbort() {
    // Source lost mid-copy: the executor's per-chunk routing is the only
    // consistent view of where data lives, so it stays in the path and the
    // autopilot stops acting (failure-aware re-layout is the replan tool's
    // job, not the drift loop's).
    frozen = true;
    active = nullptr;
    ++report->migrations_aborted;
  }

  /// Settles the migration in flight (`active` non-null). An executor that
  /// froze on a journal crash stays spliced in, its per-chunk routing the
  /// last consistent view, and the control plane stops acting (recovery is
  /// a restarted process's job). A terminal outcome is adopted, rolled back
  /// or aborted; a copy still running is left alone.
  void SettleMigration() {
    if (active->journal_failed()) {
      frozen = true;
      active = nullptr;
      return;
    }
    switch (active->outcome()) {
      case MigrationOutcome::kNotStarted:
      case MigrationOutcome::kRunning:
        break;  // copy still in flight
      case MigrationOutcome::kCompleted:
        AdoptCompleted();
        break;
      case MigrationOutcome::kRolledBack:
        HandleRollback();
        break;
      case MigrationOutcome::kAborted:
        HandleAbort();
        break;
    }
  }

  /// A drift trip: re-advise for the live window (warm-started from the
  /// deployed layout), price the move, and act iff the gate passes.
  void Decide(WorkloadSet live, double now);
};

void Controller::Decide(WorkloadSet live, double now) {
  AutopilotDecision d;
  d.time = now;
  d.score = detector.last_score();

  LayoutProblem live_problem = *problem;
  live_problem.workloads = live;
  AdvisorOptions adv = options->advisor;
  adv.warm_seeds.push_back(current_layout);
  const auto suppress = [&](std::string note, bool count) {
    d.note = std::move(note);
    if (count) ++report->migrations_suppressed;
    // Keep the old reference: the workload drifted but we are not moving,
    // and the cooldown stops the same trip from re-firing every tick.
    detector.Rearm(detector.reference(), now);
    report->decisions.push_back(std::move(d));
  };

  auto advised = LayoutAdvisor(adv).Recommend(live_problem);
  if (!advised.ok()) {
    suppress(StrFormat("re-advise failed: %s",
                       advised.status().message().c_str()),
             /*count=*/false);
    return;
  }
  const Layout& candidate = advised.value().final_layout;
  const std::vector<double> mu_old =
      model.Utilizations(live, current_layout);
  d.current_max_util = *std::max_element(mu_old.begin(), mu_old.end());
  d.advised_max_util = advised.value().max_utilization_final;

  const MigrationPlan plan =
      PriceMigration(live_problem, current_layout, candidate);
  const double bandwidth = options->migrate.bandwidth_bytes_per_s > 0.0
                               ? options->migrate.bandwidth_bytes_per_s
                               : options->config.gate_fallback_bandwidth;
  d.migration_bytes = plan.total_bytes;
  d.migration_seconds = plan.total_bytes / bandwidth;

  if (plan.objects_moved == 0) {
    // The deployed layout is already (near-)optimal for the new workload:
    // adopt the live window as the reference so drift stops firing.
    d.note = "re-advise kept the deployed layout";
    detector.Rearm(std::move(live), now);
    report->decisions.push_back(std::move(d));
    return;
  }

  const double gain = d.current_max_util - d.advised_max_util;
  d.gate_passed = gain >= options->config.gate_min_gain &&
                  gain * options->config.gate_horizon_s >= d.migration_seconds;
  if (!d.gate_passed) {
    suppress(StrFormat("gate: gain %.4f does not amortize %.1f MiB "
                       "(%.1f s copy) within %.0f s horizon",
                       gain, plan.total_bytes / (1024.0 * 1024.0),
                       d.migration_seconds, options->config.gate_horizon_s),
             /*count=*/true);
    return;
  }

  // Act: build the destination and splice a migration executor in.
  auto to_placements = LayoutToPlacements(live_problem, candidate);
  if (!to_placements.ok()) {
    suppress(StrFormat("destination rejected: %s",
                       to_placements.status().message().c_str()),
             /*count=*/true);
    return;
  }
  uint64_t plan_digest = 0;
  if (journal != nullptr) {
    std::vector<std::vector<int>> from_placements;
    from_placements.reserve(problem->object_sizes.size());
    for (size_t i = 0; i < problem->object_sizes.size(); ++i) {
      from_placements.push_back(
          managers[current_manager]->targets_of(static_cast<int>(i)));
    }
    plan_digest =
        MigrationPlanDigest(problem->object_sizes, from_placements,
                            to_placements.value(), options->migrate.chunk_bytes);
  }
  auto dest = StripedVolumeManager::Create(
      problem->object_sizes, std::move(to_placements).value(),
      system->capacities(), problem->lvm_stripe_bytes);
  if (!dest.ok()) {
    suppress(StrFormat("destination rejected: %s",
                       dest.status().message().c_str()),
             /*count=*/true);
    return;
  }
  managers.push_back(
      std::make_unique<StripedVolumeManager>(std::move(dest).value()));
  // Real data plane: ping-pong the epoch so the live layout's extents and
  // the new destination's occupy disjoint file halves during the copy (at
  // most two layouts are ever live, so two epochs suffice forever).
  if (options->migrate.data_backend != nullptr) {
    managers.back()->set_data_epoch(
        1 - managers[current_manager]->data_epoch());
  }
  auto created = MigrationExecutor::Create(
      system, managers[current_manager].get(), managers.back().get(),
      options->migrate);
  if (!created.ok()) {
    managers.pop_back();
    suppress(StrFormat("executor rejected: %s",
                       created.status().message().c_str()),
             /*count=*/true);
    return;
  }
  passthroughs.push_back(
      std::make_unique<PassthroughRouter>(managers.back().get()));
  executors.push_back(std::move(created).value());
  if (journal != nullptr) {
    // Durable intent before any copy I/O: a restarted process can tell a
    // committed-but-uncheckpointed migration (intent + commit record →
    // deploy the intent layout) from an abandoned one (source is still
    // authoritative → deploy the last checkpoint).
    const Status intent =
        journal->AppendIntent(plan_digest, candidate, live);
    if (!intent.ok()) {
      // Process death before the migration started: nothing was copied,
      // the deployed layout stands. Freeze the control plane.
      frozen = true;
      executors.pop_back();
      passthroughs.pop_back();
      managers.pop_back();
      d.note = StrFormat("journal crash before migration start: %s",
                         intent.message().c_str());
      report->decisions.push_back(std::move(d));
      return;
    }
    executors.back()->set_journal_sink(journal);
  }
  active = executors.back().get();
  pending_layout = candidate;
  pending_manager = managers.size() - 1;
  pending_reference = std::move(live);
  router->set_delegate(active);
  active->Start();
  d.started = true;
  d.note = StrFormat("migration started: %d objects, %.1f MiB",
                     plan.objects_moved,
                     plan.total_bytes / (1024.0 * 1024.0));
  ++report->migrations_started;
  report->decisions.push_back(std::move(d));
}

/// The periodic sense→decide→act tick. Self-rescheduling; stops once the
/// workload logically finishes so the queue can idle (a still-running
/// migration keeps its own events alive until it terminates).
void Tick(Controller* c) {
  if (!c->run_active) return;
  ++c->report->ticks;
  const double now = c->system->queue().Now();

  // Scenario-clock heartbeat: record the absolute scenario position so a
  // kill after this instant resumes within one tick of it. Appended (and
  // synced) before any control decision this tick, mirroring write-ahead
  // order; a failed append is process death — freeze like the executor.
  if (c->journal != nullptr && !c->frozen &&
      c->options->scenario_position_offset_s >= 0.0) {
    const Status appended = c->journal->AppendScenarioPosition(
        c->options->scenario_position_offset_s + now);
    if (!appended.ok()) c->frozen = true;
  }

  if (c->active != nullptr) {
    // Sensing continues while a copy runs; deciding waits a tick.
    c->SettleMigration();
  } else if (!c->frozen) {
    WorkloadSet live = c->analyzer.Snapshot();
    if (c->detector.Evaluate(live, now)) {
      c->Decide(std::move(live), now);
    }
  }

  c->system->queue().ScheduleAfter(c->options->config.check_interval_s,
                                   [c]() { Tick(c); });
}

}  // namespace

std::string AutopilotReport::Fingerprint() const {
  std::string out = StrFormat(
      "elapsed=%.17g;requests=%llu;olap=%llu;oltp=%llu;tpm=%.17g;events=%llu",
      run.elapsed_seconds, static_cast<unsigned long long>(run.total_requests),
      static_cast<unsigned long long>(run.olap_queries_completed),
      static_cast<unsigned long long>(run.oltp_transactions), run.tpm,
      static_cast<unsigned long long>(monitor_events));
  out += ";util";
  for (double u : run.utilization) out += StrFormat("|%.17g", u);
  for (const AutopilotDecision& d : decisions) {
    out += StrFormat(";d:t=%.17g,s=%.17g,g=%d,st=%d,b=%.17g", d.time, d.score,
                     d.gate_passed ? 1 : 0, d.started ? 1 : 0,
                     d.migration_bytes);
  }
  out += ";layout";
  for (int i = 0; i < final_layout.num_objects(); ++i) {
    out += '|';
    for (int t : final_layout.TargetsOf(i)) out += StrFormat("%d,", t);
  }
  return out;
}

Result<AutopilotReport> RunAutopilotLoop(
    StorageSystem* system, const LayoutProblem& problem,
    const Layout& initial_layout, const FaultPlan& faults,
    const AutopilotOptions& options,
    const AutopilotForegroundDriver& foreground) {
  LDB_RETURN_IF_ERROR(problem.Validate());
  LDB_RETURN_IF_ERROR(options.config.Validate());
  if (options.resume && options.migrate.data_backend != nullptr) {
    // The recovered layout's data-plane epoch is not journaled, so a
    // resumed run cannot know which file half holds the live bytes.
    // Kill/resume with real files is exercised through --migrate, whose
    // epoch assignment (source 0, destination 1) is static.
    return Status::FailedPrecondition(
        "autopilot: resuming with a real data backend is not supported; "
        "use the file backend with a --migrate resume instead");
  }
  if (options.resume && options.journal_path.empty()) {
    return Status::InvalidArgument(
        "autopilot: --resume requires a journal path");
  }

  // Durable control plane: recover the deployed layout + drift reference
  // from the journal (resume), and bind the journal to this problem so a
  // later --resume against a different problem file is rejected.
  Layout deployed = initial_layout;
  WorkloadSet reference = problem.workloads;
  std::unique_ptr<ControlJournal> journal;
  bool resumed = false;
  if (!options.journal_path.empty()) {
    auto opened =
        ControlJournal::Open(options.journal_path, options.journal_crash);
    if (!opened.ok()) return opened.status();
    journal = std::move(opened).value();
    const uint64_t digest = ProblemStateDigest(problem);
    const RecoveredControlState& rec = journal->recovered();
    if (options.resume) {
      if (rec.has_problem && rec.problem_digest != digest) {
        return Status::FailedPrecondition(StrFormat(
            "journal %s was recorded for a different problem (journal "
            "digest %llx, problem digest %llx); refusing to resume",
            options.journal_path.c_str(),
            static_cast<unsigned long long>(rec.problem_digest),
            static_cast<unsigned long long>(digest)));
      }
      Layout recovered_layout(1, 1);
      WorkloadSet recovered_reference;
      if (ResolveDeployedState(rec, &recovered_layout,
                               &recovered_reference)) {
        if (recovered_layout.num_objects() != problem.num_objects() ||
            recovered_layout.num_targets() != problem.num_targets()) {
          return Status::FailedPrecondition(StrFormat(
              "journal %s checkpoints a %dx%d layout but the problem is "
              "%dx%d; refusing to resume",
              options.journal_path.c_str(), recovered_layout.num_objects(),
              recovered_layout.num_targets(), problem.num_objects(),
              problem.num_targets()));
        }
        deployed = std::move(recovered_layout);
        reference = std::move(recovered_reference);
        resumed = true;
      }
    }
    if (!rec.has_problem || rec.problem_digest != digest) {
      const Status bind = journal->AppendProblemBinding(digest);
      // A simulated crash during binding means the process died at t=0;
      // the run proceeds with a frozen control plane.
      if (!bind.ok() && !journal->crashed()) return bind;
    }
  }

  // The initial layout is pre-existing physical state; like a migration
  // source it need not honor pin/separate policy (that can be exactly what
  // drift-driven re-layout later fixes).
  auto placements = LayoutToPlacements(problem, deployed,
                                       /*check_placement_constraints=*/false);
  if (!placements.ok()) return placements.status();
  auto volumes = StripedVolumeManager::Create(
      problem.object_sizes, std::move(placements).value(),
      system->capacities(), problem.lvm_stripe_bytes);
  if (!volumes.ok()) return volumes.status();

  AutopilotReport report;
  report.initial_layout = deployed;
  report.final_layout = deployed;
  report.resumed_from_journal = resumed;

  Controller controller(system, &problem, &options, deployed);
  controller.journal = journal.get();
  controller.frozen = journal != nullptr && journal->crashed();
  if (resumed) {
    // Rearm the drift detector with the recovered reference (the window
    // the deployed layout was advised for), not the problem file's.
    controller.detector.Rearm(reference, system->queue().Now());
    controller.pending_reference = reference;
  }
  controller.report = &report;
  controller.managers.push_back(
      std::make_unique<StripedVolumeManager>(std::move(volumes).value()));
  controller.passthroughs.push_back(std::make_unique<PassthroughRouter>(
      controller.managers.front().get()));
  SwitchableRouter router(controller.passthroughs.front().get());
  controller.router = &router;

  // Real data plane: on a fresh run, lay the verification pattern down at
  // the deployed layout's locations before the loop starts migrating.
  // Resumed runs keep the bytes the killed process left behind.
  if (options.migrate.data_backend != nullptr && !options.resume) {
    LDB_RETURN_IF_ERROR(PopulateBackendPattern(
        options.migrate.data_backend, controller.passthroughs.front().get()));
  }

  // Faults compose exactly as in the plain and migration harness paths.
  FaultInjector injector(system, faults);
  LDB_RETURN_IF_ERROR(injector.Arm());

  // First tick one interval in; reschedules itself until the workload
  // logically finishes. Ticks never submit I/O or touch the runner's RNG,
  // so with drift disabled the run is bit-identical to a plain Execute.
  Controller* c = &controller;
  system->queue().ScheduleAfter(options.config.check_interval_s,
                                [c]() { Tick(c); });

  // Layout sampling: pure reads of controller state at fixed times. Like
  // ticks they submit no I/O and touch no RNG, so the foreground is
  // byte-for-byte unaffected by the sampling schedule.
  report.sampled_layouts.reserve(options.layout_sample_times.size());
  for (double t : options.layout_sample_times) {
    system->queue().ScheduleAt(t, [c, t]() {
      c->report->sampled_layouts.push_back(
          LayoutSample{t, c->current_layout});
    });
  }

  // Foreground latency mean: a count and a sum in completion order.
  struct {
    uint64_t requests = 0;
    double latency_sum = 0.0;
  } fg;
  Result<RunResult> run = foreground(
      &router,
      [c, &fg](const IoEvent& ev) {
        c->analyzer.Observe(ev);
        ++fg.requests;
        fg.latency_sum += ev.complete_time - ev.submit_time;
      },
      [c]() { c->run_active = false; });
  if (!run.ok()) return run.status();
  report.run = std::move(run).value();
  report.run.skipped_faults = injector.skipped();

  // A migration still in flight at the last tick drains inside the
  // runner's event loop (the pump only idles at a terminal state); account
  // for it here.
  if (controller.active != nullptr) controller.SettleMigration();

  report.final_layout = controller.current_layout;
  report.final_drift_score = controller.detector.last_score();
  report.monitor_events = controller.analyzer.events();
  for (const auto& exec : controller.executors) {
    report.bytes_copied += exec->stats().bytes_written;
  }
  report.fg_requests = fg.requests;
  if (fg.requests > 0) {
    report.fg_mean_latency_s =
        fg.latency_sum / static_cast<double>(fg.requests);
  }
  if (journal != nullptr) {
    report.journal_crashed = journal->crashed();
    report.journal_records = journal->records_total();
    report.journal_bytes = journal->file_bytes();
  }
  // "Every byte readable" on real media, through the live routing chain
  // (the router delegates to the last adopted manager or frozen executor).
  if (options.migrate.data_backend != nullptr) {
    report.real_backend = true;
    auto verified =
        VerifyBackendPattern(options.migrate.data_backend, &router);
    if (verified.ok()) {
      report.real_readable = Status::Ok();
      report.real_bytes_verified = *verified;
    } else {
      report.real_readable = verified.status();
    }
  }
  return report;
}

Result<AutopilotReport> RunAutopilotSim(
    StorageSystem* system, const LayoutProblem& problem,
    const Layout& initial_layout, const OlapSpec* olap, const OltpSpec* oltp,
    double oltp_duration_s, const FaultPlan& faults,
    const AutopilotOptions& options, uint64_t seed) {
  return RunAutopilotLoop(
      system, problem, initial_layout, faults, options,
      [&](VolumeRouter* router, const StorageSystem::Observer& observe,
          const std::function<void()>& on_finished) -> Result<RunResult> {
        WorkloadRunner runner(system, router, seed);
        runner.set_on_finished(on_finished);
        runner.set_logical_observer(observe);
        return runner.Run(olap, oltp, oltp_duration_s);
      });
}

Result<AutopilotReport> SimulateProblemAutopilot(
    const LayoutProblem& problem, const Layout& current,
    const FaultPlan& faults, const AutopilotOptions& options,
    double duration_s, uint64_t seed) {
  LDB_RETURN_IF_ERROR(problem.Validate());
  if (duration_s <= 0.0) {
    return Status::InvalidArgument("autopilot: duration must be positive");
  }

  // Rebuild simulated devices from the calibrated cost models' device
  // names, exactly as SimulateProblemMigration does. The synthetic
  // foreground is random-access: a problem fitted from sequential scans
  // will legitimately drift against it.
  auto rebuilt = BuildSystemForProblem(problem);
  if (!rebuilt.ok()) return rebuilt.status();
  auto fg = SyntheticForeground(problem, "autopilot-fg", "autopilot");
  if (!fg.ok()) return fg.status();

  return RunAutopilotSim(rebuilt->system.get(), problem, current,
                         /*olap=*/nullptr, &fg.value(), duration_s, faults,
                         options, seed);
}

}  // namespace ldb
