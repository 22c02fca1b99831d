// Quickstart: the layout advisor on a hand-specified problem.
//
// This example skips the simulation machinery entirely: you describe your
// database objects, their I/O workloads (Rome-style statistics), and your
// storage targets with calibrated cost models — then ask the advisor for a
// layout. This is the standalone-advisor deployment mode the paper
// proposes (Section 8).

#include <cstdio>

#include "core/advisor.h"
#include "core/baselines.h"
#include "model/calibration.h"
#include "storage/disk.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace ldb;

  // 1. Calibrate a cost model for the device type backing the targets.
  //    (With real hardware you would measure the calibration workloads on
  //    the device; here we calibrate the bundled 15K-RPM disk model.)
  DiskModel disk(Scsi15kParams());
  auto cost_model = CalibrateDevice(disk);
  if (!cost_model.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 cost_model.status().ToString().c_str());
    return 1;
  }

  // 2. Describe the layout problem: three objects on two disks.
  LayoutProblem problem;
  problem.object_names = {"SALES", "SALES_PKEY", "AUDIT_LOG"};
  problem.object_sizes = {6 * kGiB, kGiB, 2 * kGiB};
  problem.object_kinds = {ObjectKind::kTable, ObjectKind::kIndex,
                          ObjectKind::kLog};

  // SALES: heavy sequential scans; SALES_PKEY: random point reads that
  // always run while SALES is scanned; AUDIT_LOG: sequential appends.
  // Overlap rows give O_i[k] for every object k; SetOverlapRow keeps the
  // diagonal and the nonzero entries.
  WorkloadDesc sales;
  sales.read_rate = 300;
  sales.read_size = 128 * kKiB;
  sales.run_count = 200;
  SetOverlapRow(&sales, 0, {0.0, 0.9, 0.2});
  WorkloadDesc pkey;
  pkey.read_rate = 80;
  pkey.read_size = 8 * kKiB;
  pkey.run_count = 1;
  SetOverlapRow(&pkey, 1, {0.9, 0.0, 0.2});
  WorkloadDesc log;
  log.write_rate = 40;
  log.write_size = 16 * kKiB;
  log.run_count = 500;
  SetOverlapRow(&log, 2, {0.5, 0.5, 0.0});
  problem.workloads = {sales, pkey, log};

  for (int j = 0; j < 2; ++j) {
    AdvisorTarget t;
    t.name = StrFormat("disk%d", j);
    t.capacity_bytes = 18 * kGiB;
    t.cost_model = &*cost_model;
    problem.targets.push_back(t);
  }

  // 3. Recommend a layout and compare with SEE.
  LayoutAdvisor advisor;
  auto rec = advisor.Recommend(problem);
  if (!rec.ok()) {
    std::fprintf(stderr, "advisor failed: %s\n",
                 rec.status().ToString().c_str());
    return 1;
  }
  const TargetModel model = problem.MakeTargetModel();
  const Layout see = SeeBaseline(problem);

  std::printf("Recommended layout:\n%s\n",
              rec->final_layout.ToString(problem.object_names).c_str());
  std::printf("Estimated max utilization: SEE %.1f%% -> optimized %.1f%%\n",
              100 * model.MaxUtilization(problem.workloads, see),
              100 * rec->max_utilization_final);
  std::printf("Advisor time: %.1f ms (solver %.1f ms, regularization "
              "%.1f ms)\n",
              1e3 * rec->total_seconds(), 1e3 * rec->solver_seconds,
              1e3 * rec->regularization_seconds);
  return 0;
}
