// Failover benchmark: what happens to the advised layout when a disk dies
// mid-run, and how much of the loss failure-aware re-layout wins back.
//
// Protocol (default 4-disk TPC-H rig, OLAP8):
//   1. Differential self-check: ExecuteWithFaults with an *empty* fault
//      plan must reproduce Execute exactly (exit 1 on mismatch).
//   2. Mid-run death: the advised layout runs with the busiest disk
//      fail-stopping halfway through the healthy elapsed time; the fault
//      counters (failed requests, degraded time) land in the JSON.
//   3. Transient window: the same disk instead flips 20% of completions to
//      I/O errors for the whole run; bounded retries mask all of them.
//   4. Post-failure comparison: the dead disk's objects either spill
//      evenly over the survivors (no_replan — what a naive volume manager
//      rebuild does) or are re-placed by ReplanAfterFailure (replan); both
//      layouts then run with the disk dead from t=0. Replan must end with
//      strictly lower measured max utilization.
//
// --json emits machine-readable rows for all four stages, each keyed
// `row` = "<scenario>/<config>"; the replan row's integer moved_bytes is an
// exact counter for tools/bench_record.py --compare-last.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/replan.h"
#include "storage/fault.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

namespace {

double MaxUtil(const std::vector<double>& u) {
  return *std::max_element(u.begin(), u.end());
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Failover",
              "fault injection + failure-aware re-layout vs naive spill",
              env);

  auto rig = FourDiskTpchRig(env);
  if (!rig.ok()) return 1;
  auto olap = MakeOlapSpec(rig->catalog(), 3, 8, env.seed);
  if (!olap.ok()) return 1;
  auto advised = AdviseForWorkload(*rig, &*olap, nullptr);
  if (!advised.ok()) {
    std::fprintf(stderr, "advisor: %s\n",
                 advised.status().ToString().c_str());
    return 1;
  }
  const LayoutProblem& problem = advised->problem;
  const Layout& layout = advised->result.final_layout;
  const int m = problem.num_targets();

  JsonRows json;
  const auto begin_row = [&json](const std::string& scenario,
                                 const std::string& config) {
    json.BeginRow();
    json.Field("row", scenario + "/" + config);
    json.Field("scenario", scenario);
    json.Field("config", config);
  };

  // ---- 1. Differential self-check: empty plan == no plan. ----
  auto healthy = rig->Execute(layout, &*olap, nullptr);
  if (!healthy.ok()) return 1;
  auto nofault = rig->ExecuteWithFaults(layout, &*olap, nullptr, FaultPlan{});
  if (!nofault.ok()) return 1;
  {
    const double tol = 1e-9;
    bool same =
        std::fabs(healthy->elapsed_seconds - nofault->elapsed_seconds) <=
            tol &&
        healthy->total_requests == nofault->total_requests;
    for (int j = 0; same && j < m; ++j) {
      same = std::fabs(healthy->utilization[j] - nofault->utilization[j]) <=
             tol;
    }
    std::printf("empty fault plan vs plain run: %s (%.3fs vs %.3fs)\n",
                same ? "[ok: identical]" : "[MISS: runs diverge]",
                healthy->elapsed_seconds, nofault->elapsed_seconds);
    begin_row("none", "differential_check");
    json.Field("identical", same);
    json.Field("elapsed_s", healthy->elapsed_seconds);
    if (!same) {
      std::printf("%s\n", json.ToString().c_str());
      return 1;
    }
  }

  // The victim: the busiest disk under the advised layout.
  const int victim = static_cast<int>(
      std::max_element(healthy->utilization.begin(),
                       healthy->utilization.end()) -
      healthy->utilization.begin());
  const double t_fail = 0.5 * healthy->elapsed_seconds;
  std::printf("victim: target %d (%.1f%% utilized), fails at t=%.3fs\n\n",
              victim, 100 * healthy->utilization[victim], t_fail);

  // ---- 2. Mid-run fail-stop on the advised layout (no reaction). ----
  {
    FaultPlan plan;
    plan.faults.push_back(
        {t_fail, victim, 0, FaultKind::kFailStop, 2.0, 0.1, 0.0});
    auto run = rig->ExecuteWithFaults(layout, &*olap, nullptr, plan);
    if (!run.ok()) return 1;
    std::printf(
        "mid-run death, no reaction: %.3fs elapsed, %llu requests failed, "
        "%.3fs degraded\n",
        run->elapsed_seconds,
        static_cast<unsigned long long>(run->faults.failed_requests),
        run->faults.degraded_time);
    for (const std::string& s : run->skipped_faults) {
      std::printf("  skipped fault: %s\n", s.c_str());
    }
    begin_row("midrun_disk_loss", "no_reaction");
    json.Field("elapsed_s", run->elapsed_seconds);
    json.Field("faults_injected",
               static_cast<int64_t>(run->faults.faults_injected));
    json.Field("failed_requests",
               static_cast<int64_t>(run->faults.failed_requests));
    json.Field("degraded_s", run->faults.degraded_time);
    json.Field("skipped_faults",
               static_cast<int64_t>(run->skipped_faults.size()));
  }

  // ---- 3. Transient error window, masked by bounded retries. ----
  {
    FaultPlan plan;
    plan.faults.push_back(
        {0.0, victim, 0, FaultKind::kTransient, 2.0, 0.2, 0.0});
    auto run = rig->ExecuteWithFaults(layout, &*olap, nullptr, plan);
    if (!run.ok()) return 1;
    std::printf(
        "transient errors (p=0.2): %llu errors, %llu retries, %llu "
        "requests surfaced failure\n",
        static_cast<unsigned long long>(run->faults.transient_errors),
        static_cast<unsigned long long>(run->faults.retries),
        static_cast<unsigned long long>(run->faults.failed_requests));
    for (const std::string& s : run->skipped_faults) {
      std::printf("  skipped fault: %s\n", s.c_str());
    }
    begin_row("transient", "retries");
    json.Field("elapsed_s", run->elapsed_seconds);
    json.Field("transient_errors",
               static_cast<int64_t>(run->faults.transient_errors));
    json.Field("retries", static_cast<int64_t>(run->faults.retries));
    json.Field("failed_requests",
               static_cast<int64_t>(run->faults.failed_requests));
    json.Field("skipped_faults",
               static_cast<int64_t>(run->skipped_faults.size()));
  }

  // ---- 4. Post-failure: naive spill vs failure-aware replan. ----
  TargetHealth health = TargetHealth::Healthy(m);
  health.MarkFailed(victim);

  // no_replan: workload-oblivious rebuild into free space — each displaced
  // object lands on the fewest emptiest survivors that have room for it
  // (largest objects first), exactly what a volume manager restoring onto
  // spare capacity does without workload knowledge.
  Layout spill = layout;
  std::vector<int> survivors;
  for (int j = 0; j < m; ++j) {
    if (j != victim) survivors.push_back(j);
  }
  {
    const std::vector<int64_t> capacities = problem.capacities();
    std::vector<int> displaced;
    for (int i = 0; i < problem.num_objects(); ++i) {
      if (layout.At(i, victim) > 1e-9) {
        displaced.push_back(i);
        for (int j = 0; j < m; ++j) spill.Set(i, j, 0.0);
      }
    }
    std::stable_sort(displaced.begin(), displaced.end(), [&](int a, int b) {
      return problem.object_sizes[a] > problem.object_sizes[b];
    });
    for (int i : displaced) {
      std::vector<double> used(m, 0.0);
      for (int o = 0; o < problem.num_objects(); ++o) {
        for (int j = 0; j < m; ++j) {
          used[j] += spill.At(o, j) *
                     static_cast<double>(problem.object_sizes[o]);
        }
      }
      std::vector<int> by_free = survivors;
      std::stable_sort(by_free.begin(), by_free.end(), [&](int a, int b) {
        return capacities[a] - used[a] > capacities[b] - used[b];
      });
      for (size_t k = 1; k <= by_free.size(); ++k) {
        spill.SetRowRegular(
            i, std::vector<int>(by_free.begin(), by_free.begin() + k));
        if (spill.SatisfiesCapacity(problem.object_sizes, capacities)) break;
      }
    }
  }

  ReplanOptions ropts;
  ropts.solver.num_threads = env.num_threads;
  auto replanned = ReplanAfterFailure(problem, layout, health, ropts);
  if (!replanned.ok()) {
    std::fprintf(stderr, "replan: %s\n",
                 replanned.status().ToString().c_str());
    return 1;
  }

  FaultPlan dead_from_start;
  dead_from_start.faults.push_back(
      {0.0, victim, 0, FaultKind::kFailStop, 2.0, 0.1, 0.0});

  const TargetModel model = problem.MakeTargetModel();
  TextTable table({"config", "est max util", "measured max util",
                   "elapsed", "moved MB"});
  struct Row {
    double est = 0, measured = 0;
  };
  Row rows[2];
  const Layout* candidates[2] = {&spill, &replanned->layout};
  const char* names[2] = {"no_replan", "replan"};
  double moved_mb[2] = {0.0, replanned->migration.total_bytes /
                                 (1024.0 * 1024.0)};
  for (int i = 0; i < problem.num_objects(); ++i) {
    moved_mb[0] += layout.At(i, victim) *
                   static_cast<double>(problem.object_sizes[i]) /
                   (1024.0 * 1024.0);
  }
  for (int c = 0; c < 2; ++c) {
    double est = 0.0;
    for (int j : survivors) {
      est = std::max(
          est, model.TargetUtilization(problem.workloads, *candidates[c], j));
    }
    auto run =
        rig->ExecuteWithFaults(*candidates[c], &*olap, nullptr,
                               dead_from_start);
    if (!run.ok()) return 1;
    for (const std::string& s : run->skipped_faults) {
      std::printf("  %s skipped fault: %s\n", names[c], s.c_str());
    }
    rows[c].est = est;
    rows[c].measured = MaxUtil(run->utilization);
    table.AddRow({names[c], StrFormat("%.1f%%", 100 * est),
                  StrFormat("%.1f%%", 100 * rows[c].measured),
                  StrFormat("%.3fs", run->elapsed_seconds),
                  StrFormat("%.1f", moved_mb[c])});
    begin_row("disk_loss", names[c]);
    json.Field("est_max_utilization", est);
    json.Field("max_utilization", rows[c].measured);
    json.Field("elapsed_s", run->elapsed_seconds);
    json.Field("migration_mb", moved_mb[c]);
    json.Field("objects_moved",
               c == 0 ? -1 : replanned->migration.objects_moved);
    if (c == 1) {
      json.Field("moved_bytes", static_cast<int64_t>(std::llround(
                                    replanned->migration.total_bytes)));
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  const bool ok = rows[1].measured < rows[0].measured;
  std::printf("replan vs spill measured max utilization: %.1f%% vs %.1f%% "
              "%s\n",
              100 * rows[1].measured, 100 * rows[0].measured,
              ok ? "[ok: replan lower]" : "[MISS]");

  if (env.json) json.WriteTo(env.json_path);
  return ok ? 0 : 1;
}
