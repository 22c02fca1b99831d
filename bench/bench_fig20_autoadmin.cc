// Reproduces paper Figure 20 / Section 6.6: comparison against the
// AutoAdmin relational-layout technique.
//
// Paper findings to reproduce:
//  * AutoAdmin's layout separates LINEITEM / ORDERS / I_L_ORDERKEY but,
//    misled by cardinality-estimate errors on temp space, keeps LINEITEM
//    on a single target so TEMP SPACE can be isolated;
//  * on OLAP1-63 the AutoAdmin layout performs about as well as the
//    advisor's (32634s vs 31789s; SEE 40927s);
//  * because AutoAdmin only sees SQL text, it recommends the *same* layout
//    for OLAP8-63 — where it is worse than SEE (19937s vs 16201s), while
//    the advisor's concurrency-aware layout is not;
//  * AutoAdmin produces its layout faster than the NLP-based advisor.

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "core/autoadmin.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 20 / Sec 6.6", "AutoAdmin layout tool comparison",
              env);

  auto rig = FourDiskTpchRig(env);
  if (!rig.ok()) return 1;
  auto olap1 = MakeOlapSpec(rig->catalog(), 3, 1, env.seed);
  auto olap8 = MakeOlapSpec(rig->catalog(), 3, 8, env.seed);
  if (!olap1.ok() || !olap8.ok()) return 1;

  // Advisor layouts (concurrency-aware: one per workload).
  auto advised1 = AdviseForWorkload(*rig, &*olap1, nullptr);
  auto advised8 = AdviseForWorkload(*rig, &*olap8, nullptr);
  if (!advised1.ok() || !advised8.ok()) return 1;

  // AutoAdmin layout: built from SQL-level estimates; identical for both
  // workloads by construction (it cannot see the concurrency level).
  AutoAdminAdvisor autoadmin;
  const auto t0 = std::chrono::steady_clock::now();
  auto estimates = EstimateQueriesFromSpec(
      *olap1, advised1->problem, kAutoAdminTempEstimateError);
  auto aa_layout = autoadmin.Recommend(advised1->problem, estimates);
  const double aa_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!aa_layout.ok()) return 1;

  std::printf("AutoAdmin layout (same for OLAP1-63 and OLAP8-63):\n%s\n",
              TopObjectsLayoutString(advised1->problem, *aa_layout, 8)
                  .c_str());

  TextTable table({"Workload", "SEE (s)", "AutoAdmin (s)", "Advisor (s)",
                   "Paper (SEE/AA/Advisor)"});
  double see8 = 0, aa8 = 0;
  for (int concurrency : {1, 8}) {
    const OlapSpec& olap = concurrency == 1 ? *olap1 : *olap8;
    const Layout& advisor_layout = concurrency == 1
                                       ? advised1->result.final_layout
                                       : advised8->result.final_layout;
    auto see_run = rig->Execute(SeeLayout(*rig), &olap, nullptr);
    auto aa_run = rig->Execute(*aa_layout, &olap, nullptr);
    auto adv_run = rig->Execute(advisor_layout, &olap, nullptr);
    if (!see_run.ok() || !aa_run.ok() || !adv_run.ok()) return 1;
    if (concurrency == 8) {
      see8 = see_run->elapsed_seconds;
      aa8 = aa_run->elapsed_seconds;
    }
    table.AddRow({olap.name, StrFormat("%.0f", see_run->elapsed_seconds),
                  StrFormat("%.0f", aa_run->elapsed_seconds),
                  StrFormat("%.0f", adv_run->elapsed_seconds),
                  concurrency == 1 ? "40927/32634/31789"
                                   : "16201/19937/13608"});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "AutoAdmin hurts under concurrency: OLAP8-63 AutoAdmin/SEE = %.2fx "
      "(paper 1.23x slower) %s\n",
      aa8 / see8, aa8 > see8 ? "[ok]" : "[MISS]");
  std::printf(
      "Tool running time: AutoAdmin %.3fs vs advisor %.3fs (paper: "
      "AutoAdmin about half the advisor's time) %s\n",
      aa_seconds, advised1->result.total_seconds(),
      aa_seconds < advised1->result.total_seconds() ? "[ok]" : "[MISS]");
  return 0;
}
