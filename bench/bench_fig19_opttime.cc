// Reproduces paper Figure 19: the layout advisor's running time as the
// problem grows — N objects x M targets — split into NLP-solver time and
// regularization time.
//
// Paper rows: OLAP8-63 (N=20, M=4) 3.6s; consolidation (N=40) on M=4/10/
// 20/40 (12.6s/57.2s/129s/226s); and synthetic 2x/3x/4x replications of
// the consolidation workload (N=80/120/160) on M=10 (59s/380s/662s).
// Shapes to reproduce: seconds-to-minutes totals at these scales, time
// growing with both N and M, and solver time dominating regularization.
//
// Each row runs the advisor serially and with 2 and --threads solver
// workers; the solver's layout and max-utilization must be bit-identical
// across those thread counts, and the bench exits 1 ([MISMATCH]) when they
// are not.
//
// Flags beyond the common bench set:
//   --row=<substr>    run only rows whose workload name contains <substr>
//
// As in the paper's timing experiment, the advisor runs from a single
// initial layout (no multi-start).

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace ldb;
using namespace ldb::bench;

namespace {

/// Replicates a problem's objects `copies` times (the paper's synthetic
/// 2x/3x/4x consolidation workloads): workload descriptions and sizes are
/// duplicated; overlap matrices extend block-diagonally (copies never
/// co-access each other).
LayoutProblem ReplicateObjects(const LayoutProblem& base, int copies) {
  LayoutProblem out = base;
  const int n = base.num_objects();
  out.object_names.clear();
  out.object_sizes.clear();
  out.object_kinds.clear();
  out.workloads.clear();
  for (int c = 0; c < copies; ++c) {
    for (int i = 0; i < n; ++i) {
      out.object_names.push_back(
          StrFormat("%s#%d", base.object_names[static_cast<size_t>(i)].c_str(),
                    c));
      out.object_sizes.push_back(base.object_sizes[static_cast<size_t>(i)]);
      out.object_kinds.push_back(base.object_kinds[static_cast<size_t>(i)]);
      WorkloadDesc w = base.workloads[static_cast<size_t>(i)];
      std::vector<double> overlap(static_cast<size_t>(n * copies), 0.0);
      for (int k = 0; k < n; ++k) {
        overlap[static_cast<size_t>(c * n + k)] =
            w.overlap_with(static_cast<size_t>(k));
      }
      SetOverlapRow(&w, static_cast<size_t>(c * n + i), overlap);
      out.workloads.push_back(std::move(w));
    }
  }
  return out;
}

/// Swaps in `m` identical disk targets.
void UseTargets(LayoutProblem* problem, const AdvisorTarget& prototype,
                int m) {
  problem->targets.assign(static_cast<size_t>(m), prototype);
  for (int j = 0; j < m; ++j) {
    problem->targets[static_cast<size_t>(j)].name = StrFormat("disk%d", j);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  std::string row_filter;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--row=", 6) == 0) row_filter = argv[a] + 6;
  }
  PrintHeader("Figure 19", "advisor running time vs problem size", env);

  // Base problems: TPC-H under OLAP8-63 (N=20) and the consolidation
  // workload (N=40), both fitted on the standard four-disk rig.
  auto rig20 = FourDiskTpchRig(env);
  if (!rig20.ok()) return 1;
  auto olap8 = MakeOlapSpec(rig20->catalog(), 3, 8, env.seed);
  if (!olap8.ok()) return 1;
  auto ws20 = rig20->FitWorkloads(SeeLayout(*rig20), &*olap8, nullptr);
  if (!ws20.ok()) return 1;
  auto base20 = rig20->MakeProblem(std::move(ws20).value());
  if (!base20.ok()) return 1;

  Catalog merged = Catalog::Merge(Catalog::TpcH(env.scale),
                                  Catalog::TpcC(env.scale), "", "C_");
  auto rig40 = MakeRig(env, merged,
                       {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}});
  if (!rig40.ok()) return 1;
  auto olap21 = MakeOlapSpec(rig40->catalog(), 1, 1, env.seed);
  auto oltp = MakeOltpSpec(rig40->catalog(), "C_", 9, 5.0);
  if (!olap21.ok() || !oltp.ok()) return 1;
  auto ws40 = rig40->FitWorkloads(SeeLayout(*rig40), &*olap21, &*oltp);
  if (!ws40.ok()) return 1;
  auto base40 = rig40->MakeProblem(std::move(ws40).value());
  if (!base40.ok()) return 1;

  const AdvisorTarget disk_proto = base20->targets[0];

  struct Row {
    const char* workload;
    const LayoutProblem* base;
    int copies;
    int m;
  };
  const Row rows[] = {
      {"OLAP8-63", &*base20, 1, 4},       {"consolidation", &*base40, 1, 4},
      {"consolidation", &*base40, 1, 10}, {"consolidation", &*base40, 1, 20},
      {"consolidation", &*base40, 1, 40}, {"2xconsolidation", &*base40, 2, 10},
      {"3xconsolidation", &*base40, 3, 10},
      {"4xconsolidation", &*base40, 4, 10},
  };

  // Solver configurations per row: serial (the timed run), and 2 and
  // --threads workers for the invariance check.
  const int mt_threads = ThreadPool::EffectiveThreads(env.num_threads);
  AdvisorOptions serial_opts;
  serial_opts.extra_random_seeds = 0;  // paper timing runs: one seed
  serial_opts.solver.num_threads = 1;
  AdvisorOptions two_opts = serial_opts;
  two_opts.solver.num_threads = 2;
  AdvisorOptions mt_opts = serial_opts;
  mt_opts.solver.num_threads = mt_threads;
  const LayoutAdvisor serial_advisor(serial_opts);
  const LayoutAdvisor two_advisor(two_opts);
  const LayoutAdvisor mt_advisor(mt_opts);

  TextTable table({"Workload", "N", "M", "Solver (s)",
                   StrFormat("x%d thr (s)", mt_threads), "Steps",
                   "Grad evals", "Regular. (s)"});
  JsonRows json;
  double previous_total = 0.0;
  bool monotone = true;
  bool deterministic = true;
  for (const Row& row : rows) {
    if (!row_filter.empty() &&
        std::string(row.workload).find(row_filter) == std::string::npos) {
      continue;
    }
    LayoutProblem problem = row.copies == 1
                                ? *row.base
                                : ReplicateObjects(*row.base, row.copies);
    UseTargets(&problem, disk_proto, row.m);
    auto rec = serial_advisor.Recommend(problem);
    auto two_rec = two_advisor.Recommend(problem);
    auto mt_rec = mt_advisor.Recommend(problem);
    if (!rec.ok() || !two_rec.ok() || !mt_rec.ok()) {
      std::fprintf(stderr, "advisor (%s, M=%d): %s\n", row.workload, row.m,
                   (!rec.ok()       ? rec.status()
                    : !two_rec.ok() ? two_rec.status()
                                    : mt_rec.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    // Thread-count invariance: every run must land on exactly the serial
    // run's answer.
    const SolverResult& solve = rec->solver_stats;
    const bool same = two_rec->solver_stats.max_utilization ==
                          solve.max_utilization &&
                      two_rec->solver_stats.layout == solve.layout &&
                      mt_rec->solver_stats.max_utilization ==
                          solve.max_utilization &&
                      mt_rec->solver_stats.layout == solve.layout;
    deterministic = deterministic && same;

    const SolverProfile& prof = solve.profile;
    table.AddRow({row.workload, StrFormat("%d", problem.num_objects()),
                  StrFormat("%d", row.m),
                  StrFormat("%.3f", rec->solver_seconds),
                  StrFormat("%.3f%s", mt_rec->solver_seconds,
                            same ? "" : " [MISMATCH]"),
                  StrFormat("%d", solve.iterations),
                  StrFormat("%lld",
                            static_cast<long long>(solve.gradient_evaluations)),
                  StrFormat("%.2f", rec->regularization_seconds)});
    if (env.json) {
      json.BeginRow();
      json.Field("workload", row.workload);
      json.Field("n", problem.num_objects());
      json.Field("m", row.m);
      json.Field("threads", mt_threads);
      json.Field("analytic_solver_seconds", rec->solver_seconds);
      json.Field("analytic_mt_solver_seconds", mt_rec->solver_seconds);
      json.Field("gradient_evaluations", solve.gradient_evaluations);
      json.Field("interp_queries", solve.interp_queries);
      json.Field("gradient_ns", prof.gradient.ns);
      json.Field("line_search_ns", prof.line_search.ns);
      json.Field("refresh_ns", prof.refresh.ns);
      json.Field("analytic_iterations", solve.iterations);
      json.Field("regularization_seconds", rec->regularization_seconds);
      json.Field("total_seconds", rec->total_seconds());
      json.Field("analytic_max_utilization", solve.max_utilization);
      json.Field("analytic_thread_invariant", same);
    }
    if (row.copies > 1) {
      monotone = monotone && rec->total_seconds() >= previous_total;
      previous_total = rec->total_seconds();
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper shapes: totals grow with N and M; solver time dominates "
      "regularization; replicated workloads scale it further %s\n",
      monotone ? "[ok]" : "[check rows]");
  std::printf(
      "Solver: identical layouts and max-utilization across thread "
      "counts {1, 2, %d} %s\n",
      mt_threads, deterministic ? "[ok]" : "[MISMATCH]");
  if (env.json && !json.WriteTo(env.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
    return 1;
  }
  return deterministic ? 0 : 1;
}
