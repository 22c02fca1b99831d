// workload_fit — runs the paper's workload-characterization pipeline on the
// simulated testbed and emits a layoutdb problem file.
//
// This is the front half of the advisor toolchain: it builds a TPC-H (or
// consolidated TPC-H + TPC-C) database on simulated disks, runs the chosen
// workload under the SEE baseline with tracing enabled, fits Rome-style
// workload descriptions from the trace (Section 5.1), and writes the
// resulting layout problem to stdout — ready for `layout_advisor`:
//
//   build/tools/workload_fit --workload=olap8-63 > problem.txt
//   build/tools/layout_advisor problem.txt --compare-see
//
// Options:
//   --workload=olap1-21|olap1-63|olap8-63|consolidation   (default olap1-63)
//   --scale=<f>    database/device scale (default 0.05)
//   --seed=<n>     workload shuffle / simulation seed (default 7)
//   --disks=<n>    number of single-disk targets (default 4)
//   --calibration-cache=<dir>   persistent device cost-model cache

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "core/harness.h"
#include "util/table.h"
#include "core/problem_io.h"
#include "util/spec_text.h"
#include "workload/catalog.h"
#include "workload/spec.h"

int main(int argc, char** argv) {
  using namespace ldb;
  std::string workload = "olap1-63";
  double scale = 0.05;
  uint64_t seed = 7;
  int disks = 4;
  CalibrationOptions calibration;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--workload=", 11) == 0) {
      workload = argv[a] + 11;
    } else if (std::strncmp(argv[a], "--scale=", 8) == 0) {
      if (!ParseDecimal(argv[a] + 8, &scale) || !(scale > 0.0) ||
          !std::isfinite(scale)) {
        std::fprintf(stderr, "--scale needs a finite number > 0, got '%s'\n",
                     argv[a] + 8);
        return 2;
      }
    } else if (std::strncmp(argv[a], "--seed=", 7) == 0) {
      int64_t parsed = 0;
      if (!ParseInteger(argv[a] + 7, &parsed) || parsed < 0) {
        std::fprintf(stderr,
                     "--seed needs a decimal integer >= 0, got '%s'\n",
                     argv[a] + 7);
        return 2;
      }
      seed = static_cast<uint64_t>(parsed);
    } else if (std::strncmp(argv[a], "--disks=", 8) == 0) {
      if (!ParseInteger(argv[a] + 8, &disks) || disks <= 0) {
        std::fprintf(stderr, "--disks needs a count > 0, got '%s'\n",
                     argv[a] + 8);
        return 2;
      }
    } else if (std::strncmp(argv[a], "--calibration-cache=", 20) == 0) {
      calibration.cache_dir = argv[a] + 20;
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[a]);
      return 2;
    }
  }

  const bool consolidation = workload == "consolidation";
  Catalog catalog =
      consolidation
          ? Catalog::Merge(Catalog::TpcH(scale), Catalog::TpcC(scale), "",
                           "C_")
          : Catalog::TpcH(scale);

  std::vector<RigTargetDef> targets;
  for (int j = 0; j < disks; ++j) {
    targets.push_back(RigTargetDef{StrFormat("disk%d", j)});
  }
  auto rig = ExperimentRig::Create(catalog, targets, scale, seed,
                                   std::move(calibration));
  if (!rig.ok()) {
    std::fprintf(stderr, "rig: %s\n", rig.status().ToString().c_str());
    return 1;
  }

  Result<OlapSpec> olap = Status::NotFound("unset");
  Result<OltpSpec> oltp = Status::NotFound("unset");
  if (workload == "olap1-21") {
    olap = MakeOlapSpec(rig->catalog(), 1, 1, seed);
  } else if (workload == "olap1-63") {
    olap = MakeOlapSpec(rig->catalog(), 3, 1, seed);
  } else if (workload == "olap8-63") {
    olap = MakeOlapSpec(rig->catalog(), 3, 8, seed);
  } else if (consolidation) {
    olap = MakeOlapSpec(rig->catalog(), 1, 1, seed);
    oltp = MakeOltpSpec(rig->catalog(), "C_", 9, 5.0);
    if (!oltp.ok()) {
      std::fprintf(stderr, "oltp: %s\n", oltp.status().ToString().c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (!olap.ok()) {
    std::fprintf(stderr, "spec: %s\n", olap.status().ToString().c_str());
    return 1;
  }

  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), rig->num_targets());
  auto workloads =
      rig->FitWorkloads(see, &*olap, oltp.ok() ? &*oltp : nullptr);
  if (!workloads.ok()) {
    std::fprintf(stderr, "fit: %s\n",
                 workloads.status().ToString().c_str());
    return 1;
  }
  auto problem = rig->MakeProblem(std::move(workloads).value());
  if (!problem.ok()) {
    std::fprintf(stderr, "problem: %s\n",
                 problem.status().ToString().c_str());
    return 1;
  }
  std::fputs(FormatProblemText(*problem).c_str(), stdout);
  std::fprintf(stderr, "fitted %d objects from %s at scale %.3g\n",
               problem->num_objects(), workload.c_str(), scale);
  return 0;
}
