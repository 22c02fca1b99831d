// layout_advisor — the standalone database storage layout advisor CLI,
// the deployment mode the paper proposes (Section 8: "the technique could
// be deployed as a standalone storage layout advisor, whose output would
// guide the configuration of both the database system and the storage
// system").
//
// Usage:
//   layout_advisor <problem-file> [--no-regularize] [--seeds=<n>]
//                  [--compare-see] [--threads=<n>]
//                  [--calibration-cache=<dir>]
//                  [--faults=<spec>] [--replan]
//                  [--migrate] [--migrate-throttle=<MB/s>]
//                  [--autopilot[=<spec>]] [--drift-threshold=<x>]
//                  [--autopilot-duration=<s>] [--scenario]
//                  [--journal=<path>] [--resume] [--journal-crash=<spec>]
//                  [--backend=sim|file] [--backend-dir=<dir>]
//
// --faults=<spec> parses a deterministic fault plan (see
// src/storage/fault.h for the grammar, e.g.
// "t=1,target=0,member=0,kind=fail") and reports the surviving health of
// every target. A `faults` directive in the problem file is used when the
// flag is absent (the flag takes precedence). With --replan, the advisor additionally runs
// failure-aware re-layout: the recommended layout is replanned around the
// failed/derated targets and the migration plan (bytes to move) is
// printed. --replan without --faults replans against all-healthy targets
// and must be a no-op (printed as such).
//
// --threads=<n> sets the solver's evaluation-engine parallelism and the
// device-calibration parallelism (0 = one thread per hardware core). The
// recommended layout is identical for every thread count.
//
// --migrate simulates carrying the recommendation out *online*: the
// problem's targets are rebuilt as simulated devices, a foreground
// workload synthesized from the fitted descriptions keeps running, and a
// chunk-level migration executor copies every moving object from the SEE
// baseline layout to the recommended one in the background
// (src/core/migrate.h). --migrate-throttle=<MB/s> rate-limits the copy
// I/O; composing with --faults injects the fault plan into the same run,
// so a target can die mid-copy (the executor rolls back or freezes
// routing, and the report says which).
//
// --autopilot engages the closed-loop layout autopilot on the simulated
// rebuild of the problem's targets: the SEE baseline is deployed, a
// foreground synthesized from the fitted descriptions runs, and the
// monitor/drift/gate loop re-advises and migrates online (src/core/
// autopilot.h). The optional <spec> uses the ParseAutopilotSpec grammar
// ("interval=2;threshold=0.25,trip=2"); it overrides any `autopilot`
// directive in the problem file. --drift-threshold=<x> (x > 0, `inf`
// disables tripping) overrides the spec's threshold. Composes with
// --faults (same system, so a target can die mid-loop) and
// --migrate-throttle (rate-limits autopilot-started copies and prices the
// gate). --autopilot-duration=<s> sets the simulated foreground duration.
//
// --scenario plays the problem file's `scenario` directive (a declarative
// time-varying multi-tenant workload; see src/scenario/scenario.h for the
// grammar) against the simulated rebuild of the targets with the SEE
// baseline deployed: statically on its own, or under the closed autopilot
// loop when combined with --autopilot. Composes with --faults /
// `faults` directive (same simulated system).
//
// --journal=<path> makes the migration/autopilot control plane durable: a
// crash-recoverable WAL (src/util/wal.h) records every migration journal
// entry before it takes effect, plus autopilot intent/checkpoint records.
// Requires --migrate or --autopilot (with or without --scenario). --resume
// recovers the journal and continues: a --migrate run resumes the
// recorded migration from its last committed chunk; an --autopilot run
// deploys the last checkpointed (or committed-but-uncheckpointed) layout
// and drift reference. Resuming a journal recorded for a different
// problem or plan is refused with a digest diagnostic. --journal-crash=
// <spec> arms deterministic crash injection on the journal writer
// (grammar "after=N[,torn=K]" / "syncs=S", see ParseWalCrashPolicy); a
// fired crash exits with status 3 and prints the resume command.
//
// --backend=<sim|file> selects the execution backend for migration data.
// `sim` (the default) keeps everything on the event-queue simulator.
// `file` opens a real-I/O FileBackend under --backend-dir=<dir> (one
// `target-NNN.dat` file per target, O_DIRECT when the filesystem supports
// it, buffered + a warning otherwise): migration chunks are then *really
// copied* between the files while the simulator still drives timing, and
// the run ends by re-reading every object byte through the final routing
// and checking it against the seeded pattern. Requires --migrate or
// --autopilot; composes with --journal/--resume — a killed real-file
// migration resumes against the same directory and recopies only what the
// journal does not pin as committed.
//
// --calibration-cache=<dir> persists calibrated device cost models across
// invocations (keyed by device parameters + calibration options), so
// repeated runs skip the Section 5.2.2 measurement entirely.
//
// The problem file describes objects, workloads, targets and constraints;
// see src/core/problem_io.h for the format and examples/data/ for a
// sample.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include <cmath>

#include "core/advisor.h"
#include "core/autopilot.h"
#include "core/baselines.h"
#include "core/journal.h"
#include "core/migrate.h"
#include "core/problem_io.h"
#include "core/replan.h"
#include "io/file_backend.h"
#include "monitor/autopilot_spec.h"
#include "scenario/sim.h"
#include "storage/fault.h"
#include "util/spec_text.h"
#include "util/wal.h"

namespace {

/// Parses a whole argument as a decimal int >= 0 (no `+`, no trailing
/// text, no overflow).
bool ParseCount(const char* text, int* out) {
  return ldb::ParseInteger(text, out) && *out >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldb;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <problem-file> [--no-regularize] [--seeds=<n>] "
                 "[--compare-see] [--threads=<n>] "
                 "[--calibration-cache=<dir>] [--faults=<spec>] [--replan] "
                 "[--migrate] [--migrate-throttle=<MB/s>] "
                 "[--autopilot[=<spec>]] [--scenario] "
                 "[--journal=<path>] [--resume] [--journal-crash=<spec>] "
                 "[--backend=sim|file] [--backend-dir=<dir>]\n",
                 argv[0]);
    return 2;
  }
  AdvisorOptions options;
  ProblemIoOptions io_options;
  bool compare_see = false;
  bool replan = false;
  bool migrate = false;
  bool autopilot = false;
  bool scenario = false;
  bool has_autopilot_spec = false;
  bool has_drift_threshold = false;
  double migrate_throttle_mbps = 0.0;
  double drift_threshold = 0.0;
  double autopilot_duration_s = 30.0;
  std::string autopilot_spec;
  std::string faults_spec;
  std::string journal_path;
  std::string journal_crash_spec;
  bool resume = false;
  bool backend_file = false;
  std::string backend_dir;
  std::string path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--no-regularize") == 0) {
      options.regularize = false;
    } else if (std::strncmp(argv[a], "--seeds=", 8) == 0) {
      if (!ParseCount(argv[a] + 8, &options.extra_random_seeds)) {
        std::fprintf(stderr,
                     "--seeds needs a decimal integer >= 0 (extra random "
                     "restarts), got '%s'\n",
                     argv[a] + 8);
        return 2;
      }
    } else if (std::strcmp(argv[a], "--compare-see") == 0) {
      compare_see = true;
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      if (!ParseCount(argv[a] + 10, &options.solver.num_threads)) {
        std::fprintf(stderr,
                     "--threads needs a decimal integer >= 0 (0 = one per "
                     "core), got '%s'\n",
                     argv[a] + 10);
        return 2;
      }
      io_options.calibration.num_threads = options.solver.num_threads;
    } else if (std::strncmp(argv[a], "--calibration-cache=", 20) == 0) {
      io_options.calibration.cache_dir = argv[a] + 20;
    } else if (std::strncmp(argv[a], "--faults=", 9) == 0) {
      faults_spec = argv[a] + 9;
    } else if (std::strcmp(argv[a], "--replan") == 0) {
      replan = true;
    } else if (std::strcmp(argv[a], "--migrate") == 0) {
      migrate = true;
    } else if (std::strncmp(argv[a], "--migrate-throttle=", 19) == 0) {
      migrate = true;
      if (!ParseDecimal(argv[a] + 19, &migrate_throttle_mbps) ||
          !(migrate_throttle_mbps > 0.0) ||
          !std::isfinite(migrate_throttle_mbps)) {
        std::fprintf(stderr,
                     "--migrate-throttle needs a finite rate > 0 (MB/s), "
                     "got '%s'\n",
                     argv[a] + 19);
        return 2;
      }
    } else if (std::strncmp(argv[a], "--autopilot=", 12) == 0) {
      autopilot = true;
      has_autopilot_spec = true;
      autopilot_spec = argv[a] + 12;
    } else if (std::strcmp(argv[a], "--autopilot") == 0) {
      autopilot = true;
    } else if (std::strcmp(argv[a], "--scenario") == 0) {
      scenario = true;
    } else if (std::strncmp(argv[a], "--journal=", 10) == 0) {
      journal_path = argv[a] + 10;
      if (journal_path.empty()) {
        std::fprintf(stderr, "--journal needs a non-empty path\n");
        return 2;
      }
    } else if (std::strcmp(argv[a], "--resume") == 0) {
      resume = true;
    } else if (std::strncmp(argv[a], "--journal-crash=", 16) == 0) {
      journal_crash_spec = argv[a] + 16;
    } else if (std::strncmp(argv[a], "--backend=", 10) == 0) {
      const char* b = argv[a] + 10;
      if (std::strcmp(b, "sim") == 0) {
        backend_file = false;
      } else if (std::strcmp(b, "file") == 0) {
        backend_file = true;
      } else {
        std::fprintf(stderr, "--backend must be 'sim' or 'file', got '%s'\n",
                     b);
        return 2;
      }
    } else if (std::strncmp(argv[a], "--backend-dir=", 14) == 0) {
      backend_dir = argv[a] + 14;
    } else if (std::strncmp(argv[a], "--autopilot-duration=", 21) == 0) {
      autopilot = true;
      if (!ParseDecimal(argv[a] + 21, &autopilot_duration_s) ||
          !(autopilot_duration_s > 0.0) ||
          !std::isfinite(autopilot_duration_s)) {
        std::fprintf(stderr,
                     "--autopilot-duration needs a finite duration > 0 (s), "
                     "got '%s'\n",
                     argv[a] + 21);
        return 2;
      }
    } else if (std::strncmp(argv[a], "--drift-threshold=", 18) == 0) {
      autopilot = true;
      has_drift_threshold = true;
      if (!ParseDecimal(argv[a] + 18, &drift_threshold) ||
          !(drift_threshold > 0.0)) {
        // Mirrors the spec parser: > 0 required, inf allowed (disables
        // tripping).
        std::fprintf(stderr,
                     "--drift-threshold: threshold must be > 0 "
                     "(inf disables tripping), got '%s'\n",
                     argv[a] + 18);
        return 2;
      }
    } else if (argv[a][0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", argv[a]);
      return 2;
    } else {
      path = argv[a];
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "no problem file given\n");
    return 2;
  }
  // Journal flag consistency, ParseFaultPlan-style: each misuse names the
  // offending flag and what it needs.
  WalCrashPolicy journal_crash;
  if (resume && journal_path.empty()) {
    std::fprintf(stderr,
                 "--resume requires --journal=<path> (there is no journal "
                 "to recover without one)\n");
    return 2;
  }
  if (!journal_crash_spec.empty() && journal_path.empty()) {
    std::fprintf(stderr,
                 "--journal-crash requires --journal=<path> (crash "
                 "injection targets the journal writer)\n");
    return 2;
  }
  if (!journal_path.empty() && !migrate && !autopilot) {
    std::fprintf(stderr,
                 "--journal requires --migrate or --autopilot (only the "
                 "migration/autopilot control plane journals state)\n");
    return 2;
  }
  if (!journal_crash_spec.empty()) {
    auto parsed = ParseWalCrashPolicy(journal_crash_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--journal-crash: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    journal_crash = *parsed;
  }
  if (migrate && autopilot && !journal_path.empty()) {
    std::fprintf(stderr,
                 "--journal cannot serve --migrate and --autopilot in one "
                 "run (two control planes, one journal); pick one\n");
    return 2;
  }
  if (backend_file && backend_dir.empty()) {
    std::fprintf(stderr,
                 "--backend=file requires --backend-dir=<dir> (where the "
                 "target files live)\n");
    return 2;
  }
  if (!backend_dir.empty() && !backend_file) {
    std::fprintf(stderr,
                 "--backend-dir only applies with --backend=file (the sim "
                 "backend has no files)\n");
    return 2;
  }
  if (backend_file && !migrate && !autopilot) {
    std::fprintf(stderr,
                 "--backend=file requires --migrate or --autopilot (the "
                 "real data plane carries migration copies)\n");
    return 2;
  }

  auto loaded = LoadProblemFile(path, io_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded %d objects onto %d targets from %s\n",
              loaded->problem.num_objects(), loaded->problem.num_targets(),
              path.c_str());

  LayoutAdvisor advisor(options);
  auto result = advisor.Recommend(loaded->problem);
  if (!result.ok()) {
    std::fprintf(stderr, "advisor: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", FormatAdvisorReport(loaded->problem, *result).c_str());

  if (compare_see) {
    const TargetModel model = loaded->problem.MakeTargetModel();
    const Layout see = SeeBaseline(loaded->problem);
    std::printf(
        "SEE baseline estimated max utilization: %.1f%% (optimized: "
        "%.1f%%)\n",
        100 * model.MaxUtilization(loaded->problem.workloads, see),
        100 * result->max_utilization_final);
  }

  if (!faults_spec.empty() || loaded->has_faults || replan || migrate ||
      autopilot || scenario) {
    TargetHealth health =
        TargetHealth::Healthy(loaded->problem.num_targets());
    FaultPlan plan;
    if (!faults_spec.empty() || loaded->has_faults) {
      if (!faults_spec.empty()) {
        // The CLI flag takes precedence over a `faults` directive.
        auto parsed = ParseFaultPlan(faults_spec);
        if (!parsed.ok()) {
          std::fprintf(stderr, "--faults: %s\n",
                       parsed.status().ToString().c_str());
          return 1;
        }
        plan = *parsed;
      } else {
        plan = loaded->faults;
      }
      health = HealthFromFaultPlan(plan, loaded->problem.targets);
      std::printf("Fault plan: %s\n", FaultPlanToString(plan).c_str());
      for (int j = 0; j < loaded->problem.num_targets(); ++j) {
        if (health.IsFailed(j)) {
          std::printf("  target %-12s FAILED\n",
                      loaded->problem.targets[j].name.c_str());
        } else if (health.derate[j] < 1.0) {
          std::printf("  target %-12s derated to %.0f%% of healthy\n",
                      loaded->problem.targets[j].name.c_str(),
                      100 * health.derate[j]);
        }
      }
    }
    if (replan) {
      ReplanOptions ropts;
      ropts.solver = options.solver;
      auto replanned = ReplanAfterFailure(loaded->problem,
                                          result->final_layout, health,
                                          ropts);
      if (!replanned.ok()) {
        std::fprintf(stderr, "replan: %s\n",
                     replanned.status().ToString().c_str());
        return 1;
      }
      if (!replanned->replanned) {
        std::printf(
            "Replan: all targets healthy; layout unchanged, 0 bytes to "
            "move\n");
      } else {
        std::printf(
            "Replan: %d object(s) move, %.1f MB migration; estimated max "
            "effective utilization %.1f%% (was %.1f%%)\n",
            replanned->migration.objects_moved,
            replanned->migration.total_bytes / (1024.0 * 1024.0),
            100 * replanned->max_utilization,
            replanned->previous_max_utilization > 1e11
                ? 999.9
                : 100 * replanned->previous_max_utilization);
      }
    }
    std::unique_ptr<FileBackend> file_backend;
    if (backend_file) {
      FileBackendOptions fopts;
      fopts.dir = backend_dir;
      // Migration runs keep two layouts' extents live at once (source and
      // destination epochs), so each file is provisioned at 2x capacity.
      fopts.dual_epoch = true;
      for (const auto& t : loaded->problem.targets) {
        fopts.capacity_bytes.push_back(t.capacity_bytes);
      }
      auto fb = FileBackend::Open(fopts);
      if (!fb.ok()) {
        std::fprintf(stderr, "--backend=file: %s\n",
                     fb.status().ToString().c_str());
        return 1;
      }
      file_backend = std::move(*fb);
      const BackendGeometry& g = file_backend->geometry();
      std::printf(
          "Real-I/O backend: %d target file(s) under %s (%s, block %lld "
          "B)\n",
          g.num_targets, backend_dir.c_str(),
          g.direct_io ? "O_DIRECT" : "buffered",
          static_cast<long long>(g.logical_block_bytes));
    }
    if (migrate) {
      MigrateOptions mopts;
      mopts.data_backend = file_backend.get();
      if (migrate_throttle_mbps > 0.0) {
        mopts.bandwidth_bytes_per_s = migrate_throttle_mbps * 1024.0 * 1024.0;
      }
      mopts.max_bg_share = 0.5;
      mopts.journal_path = journal_path;
      mopts.journal_crash = journal_crash;
      mopts.resume = resume;
      const Layout see = SeeBaseline(loaded->problem);
      auto sim = SimulateProblemMigration(loaded->problem, see,
                                          result->final_layout, plan, mopts);
      if (!sim.ok()) {
        std::fprintf(stderr, "--migrate: %s\n",
                     sim.status().ToString().c_str());
        return 1;
      }
      const double duration =
          sim->stats.end_time >= 0.0 && sim->stats.start_time >= 0.0
              ? sim->stats.end_time - sim->stats.start_time
              : -1.0;
      std::printf(
          "Migration (SEE -> recommended): %s in %.2f s simulated; "
          "%lld/%lld chunks committed (%lld recopied), %.1f MB copied, "
          "%zu journal records\n",
          MigrationOutcomeName(sim->outcome), duration,
          static_cast<long long>(sim->stats.chunks_committed),
          static_cast<long long>(sim->stats.chunks_total),
          static_cast<long long>(sim->stats.chunks_recopied),
          sim->stats.bytes_written / (1024.0 * 1024.0),
          sim->journal.size());
      if (sim->failed_target >= 0 || !sim->failure_reason.empty()) {
        std::printf("  failure: %s\n", sim->failure_reason.c_str());
      }
      std::printf(
          "  foreground during migration: %llu requests, mean %.2f ms, "
          "p99 %.2f ms\n",
          static_cast<unsigned long long>(sim->fg_requests),
          1e3 * sim->fg_mean_s, 1e3 * sim->fg_p99_s);
      std::printf("  every byte readable at end: %s\n",
                  sim->readable.ok() ? "yes"
                                     : sim->readable.ToString().c_str());
      if (sim->real_backend) {
        std::printf(
            "  every object byte readable on real files: %s (%.1f MB "
            "verified)\n",
            sim->real_readable.ok() ? "yes"
                                    : sim->real_readable.ToString().c_str(),
            sim->real_bytes_verified / (1024.0 * 1024.0));
      }
      for (const std::string& s : sim->run.skipped_faults) {
        std::printf("  skipped fault: %s\n", s.c_str());
      }
      if (!journal_path.empty()) {
        std::printf(
            "  journal: %lld records (%lld recovered), %lld bytes at %s\n",
            static_cast<long long>(sim->journal_records),
            static_cast<long long>(sim->resumed_records),
            static_cast<long long>(sim->journal_bytes), journal_path.c_str());
        if (sim->journal_crashed) {
          std::printf(
              "  journal crash injected (%s); migration frozen pre-crash "
              "state is durable\n"
              "  resume with: %s %s --migrate --journal=%s --resume%s%s\n",
              sim->journal_error.c_str(), argv[0], path.c_str(),
              journal_path.c_str(),
              backend_file ? " --backend=file --backend-dir=" : "",
              backend_file ? backend_dir.c_str() : "");
          return 3;
        }
      }
      if (sim->real_backend && !sim->real_readable.ok()) return 1;
    }
    if (autopilot || scenario) {
      AutopilotOptions aopts;
      if (has_autopilot_spec) {
        auto cfg = ParseAutopilotSpec(autopilot_spec);
        if (!cfg.ok()) {
          std::fprintf(stderr, "--autopilot: %s\n",
                       cfg.status().ToString().c_str());
          return 2;
        }
        aopts.config = *cfg;
      } else if (loaded->has_autopilot) {
        aopts.config = loaded->autopilot;
      }
      if (has_drift_threshold) {
        aopts.config.drift.threshold = drift_threshold;
      }
      if (migrate_throttle_mbps > 0.0) {
        aopts.migrate.bandwidth_bytes_per_s =
            migrate_throttle_mbps * 1024.0 * 1024.0;
      }
      aopts.migrate.max_bg_share = 0.5;
      aopts.migrate.data_backend = file_backend.get();
      aopts.advisor = options;
      aopts.journal_path = journal_path;
      aopts.journal_crash = journal_crash;
      aopts.resume = resume;
      const Layout see = SeeBaseline(loaded->problem);
      if (scenario) {
        if (!loaded->has_scenario) {
          std::fprintf(stderr,
                       "--scenario: the problem file has no scenario "
                       "directive\n");
          return 2;
        }
        ScenarioPlayerOptions popts;
        if (resume) {
          // Read-only peek at the journal's scenario clock so the player
          // restarts where the dead process left off; the autopilot's own
          // recovery (layout, drift reference) happens inside the run.
          auto rec = RecoverControlState(journal_path);
          if (!rec.ok()) {
            std::fprintf(stderr, "--resume: %s\n",
                         rec.status().ToString().c_str());
            return 1;
          }
          if (rec->has_scenario_position) {
            popts.start_offset_s = rec->scenario_position_s;
            std::printf("Resuming scenario at t=%.2f s (journal clock)\n",
                        rec->scenario_position_s);
          }
        }
        auto out = SimulateProblemScenario(
            loaded->problem, see, loaded->scenario, plan,
            autopilot ? &aopts : nullptr, popts);
        if (!out.ok()) {
          std::fprintf(stderr, "--scenario: %s\n",
                       out.status().ToString().c_str());
          return 1;
        }
        std::printf(
            "Scenario (%s, %s): %llu arrivals, %llu requests submitted "
            "(%llu shed), %llu completed over %.2f s simulated\n",
            ScenarioToString(loaded->scenario).c_str(),
            autopilot ? "autopilot" : "static",
            static_cast<unsigned long long>(out->play.arrivals),
            static_cast<unsigned long long>(out->play.requests),
            static_cast<unsigned long long>(out->play.shed),
            static_cast<unsigned long long>(out->run.total_requests),
            out->run.elapsed_seconds);
        for (size_t j = 0; j < out->run.utilization.size(); ++j) {
          std::printf("  target %-12s measured utilization %.1f%%\n",
                      loaded->problem.targets[j].name.c_str(),
                      100 * out->run.utilization[j]);
        }
        if (out->has_autopilot) {
          for (const AutopilotDecision& d : out->autopilot.decisions) {
            std::printf(
                "  t=%7.2f drift=%.3f max-util %.1f%% -> %.1f%%, %.1f MB "
                "to move: %s\n",
                d.time, d.score, 100 * d.current_max_util,
                100 * d.advised_max_util,
                d.migration_bytes / (1024.0 * 1024.0), d.note.c_str());
          }
          std::printf(
              "  migrations: %d started, %d completed, %d suppressed by "
              "gate; %.1f MB copied\n",
              out->autopilot.migrations_started,
              out->autopilot.migrations_completed,
              out->autopilot.migrations_suppressed,
              out->autopilot.bytes_copied / (1024.0 * 1024.0));
          if (out->autopilot.real_backend) {
            std::printf(
                "  every object byte readable on real files: %s (%.1f MB "
                "verified)\n",
                out->autopilot.real_readable.ok()
                    ? "yes"
                    : out->autopilot.real_readable.ToString().c_str(),
                out->autopilot.real_bytes_verified / (1024.0 * 1024.0));
          }
          if (!journal_path.empty()) {
            std::printf("  journal: %lld records, %lld bytes at %s%s\n",
                        static_cast<long long>(out->autopilot.journal_records),
                        static_cast<long long>(out->autopilot.journal_bytes),
                        journal_path.c_str(),
                        out->autopilot.resumed_from_journal
                            ? " (resumed from journal)"
                            : "");
            if (out->autopilot.journal_crashed) {
              std::printf(
                  "  journal crash injected; control plane frozen, durable "
                  "state kept\n"
                  "  resume with: %s %s --scenario --autopilot "
                  "--journal=%s --resume\n",
                  argv[0], path.c_str(), journal_path.c_str());
              return 3;
            }
          }
          if (out->autopilot.real_backend &&
              !out->autopilot.real_readable.ok()) {
            return 1;
          }
        }
        return 0;
      }
      auto ap = SimulateProblemAutopilot(loaded->problem, see, plan, aopts,
                                         autopilot_duration_s);
      if (!ap.ok()) {
        std::fprintf(stderr, "--autopilot: %s\n",
                     ap.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "Autopilot (%s): %llu ticks, %llu monitored completions over "
          "%.2f s simulated\n",
          AutopilotConfigToString(aopts.config).c_str(),
          static_cast<unsigned long long>(ap->ticks),
          static_cast<unsigned long long>(ap->monitor_events),
          ap->run.elapsed_seconds);
      for (const AutopilotDecision& d : ap->decisions) {
        std::printf(
            "  t=%7.2f drift=%.3f max-util %.1f%% -> %.1f%%, %.1f MB to "
            "move: %s\n",
            d.time, d.score, 100 * d.current_max_util,
            100 * d.advised_max_util, d.migration_bytes / (1024.0 * 1024.0),
            d.note.c_str());
      }
      std::printf(
          "  migrations: %d started, %d completed, %d suppressed by gate, "
          "%d rolled back, %d frozen; %.1f MB copied\n",
          ap->migrations_started, ap->migrations_completed,
          ap->migrations_suppressed, ap->migrations_rolled_back,
          ap->migrations_aborted, ap->bytes_copied / (1024.0 * 1024.0));
      std::printf(
          "  foreground: %llu requests, mean %.2f ms; final drift score "
          "%.3f\n",
          static_cast<unsigned long long>(ap->fg_requests),
          1e3 * ap->fg_mean_latency_s, ap->final_drift_score);
      if (ap->real_backend) {
        std::printf(
            "  every object byte readable on real files: %s (%.1f MB "
            "verified)\n",
            ap->real_readable.ok() ? "yes"
                                   : ap->real_readable.ToString().c_str(),
            ap->real_bytes_verified / (1024.0 * 1024.0));
      }
      for (const std::string& s : ap->run.skipped_faults) {
        std::printf("  skipped fault: %s\n", s.c_str());
      }
      if (!journal_path.empty()) {
        std::printf("  journal: %lld records, %lld bytes at %s%s\n",
                    static_cast<long long>(ap->journal_records),
                    static_cast<long long>(ap->journal_bytes),
                    journal_path.c_str(),
                    ap->resumed_from_journal ? " (resumed from journal)" : "");
        if (ap->journal_crashed) {
          std::printf(
              "  journal crash injected; control plane frozen, durable "
              "state kept\n"
              "  resume with: %s %s --autopilot --journal=%s --resume\n",
              argv[0], path.c_str(), journal_path.c_str());
          return 3;
        }
      }
      if (ap->real_backend && !ap->real_readable.ok()) return 1;
    }
  }
  return 0;
}
