// Full advisor pipeline on the paper's homogeneous setup (Section 6.2):
//
//   1. build a TPC-H database on four simulated 15K-RPM disks;
//   2. run the OLAP1-63 workload under the stripe-everything-everywhere
//      (SEE) baseline, collecting an I/O trace;
//   3. fit Rome-style workload descriptions from the trace;
//   4. ask the layout advisor for an optimized layout;
//   5. re-run the workload under the recommended layout and compare.
//
// Usage: trace_pipeline [scale]   (default scale 0.05)

#include <cstdio>
#include <cstdlib>

#include "core/advisor.h"
#include "core/baselines.h"
#include "core/harness.h"
#include "util/table.h"
#include "util/units.h"
#include "workload/catalog.h"
#include "workload/spec.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;

  // 1. The rig: TPC-H catalog + four identical single-disk targets.
  ldb::Catalog catalog = ldb::Catalog::TpcH(scale);
  auto rig = ldb::ExperimentRig::Create(
      catalog,
      {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}}, scale);
  if (!rig.ok()) {
    std::fprintf(stderr, "rig: %s\n", rig.status().ToString().c_str());
    return 1;
  }

  auto olap = ldb::MakeOlapSpec(rig->catalog(), /*copies=*/3,
                                /*concurrency=*/1, /*shuffle_seed=*/7);
  if (!olap.ok()) {
    std::fprintf(stderr, "spec: %s\n", olap.status().ToString().c_str());
    return 1;
  }
  std::printf("Workload: %s (%zu queries), TPC-H scale %.3g\n",
              olap->name.c_str(), olap->queries.size(), scale);

  // 2-3. Trace under SEE and fit workload descriptions.
  const ldb::Layout see = ldb::Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), rig->num_targets());
  auto workloads = rig->FitWorkloads(see, &*olap, nullptr);
  if (!workloads.ok()) {
    std::fprintf(stderr, "fit: %s\n", workloads.status().ToString().c_str());
    return 1;
  }

  // 4. Recommend a layout.
  auto problem = rig->MakeProblem(*workloads);
  if (!problem.ok()) {
    std::fprintf(stderr, "problem: %s\n",
                 problem.status().ToString().c_str());
    return 1;
  }
  ldb::LayoutAdvisor advisor;
  auto rec = advisor.Recommend(*problem);
  if (!rec.ok()) {
    std::fprintf(stderr, "advisor: %s\n", rec.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nAdvisor time: %.1f ms (solver %.1f ms, regularization %.1f ms)\n",
      1e3 * rec->total_seconds(), 1e3 * rec->solver_seconds,
      1e3 * rec->regularization_seconds);
  std::printf("\nRecommended layout:\n%s\n",
              rec->final_layout.ToString(rig->catalog().names()).c_str());

  // 5. Execute both layouts.
  auto run_see = rig->Execute(see, &*olap, nullptr);
  auto run_opt = rig->Execute(rec->final_layout, &*olap, nullptr);
  if (!run_see.ok() || !run_opt.ok()) {
    std::fprintf(stderr, "execution failed\n");
    return 1;
  }
  ldb::TextTable table({"Layout", "Elapsed (s)", "Speedup"});
  table.AddRow({"SEE (baseline)",
                ldb::StrFormat("%.0f", run_see->elapsed_seconds), "1.00x"});
  table.AddRow({"Optimized",
                ldb::StrFormat("%.0f", run_opt->elapsed_seconds),
                ldb::StrFormat("%.2fx", run_see->elapsed_seconds /
                                            run_opt->elapsed_seconds)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}
