// Reproduces paper Figure 15: the consolidation scenario — a TPC-H
// instance running OLAP1-21 and a TPC-C instance running the OLTP workload
// share the same four disks (40 objects total).
//
// Paper numbers: OLAP1-21 24416s -> 17005s (1.43x); OLTP 304 -> 360 tpmC
// (1.18x). Shape to reproduce: the optimized layout improves the OLAP
// completion time substantially and does not sacrifice (ideally improves)
// OLTP throughput, primarily by separating the TPC-H scan tables from the
// TPC-C random-access tables.
//
// Exits 1 unless the advised layout's OLAP1-21 time is below SEE's.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("Figure 15", "consolidated OLAP + OLTP on four disks", env);

  Catalog merged = Catalog::Merge(Catalog::TpcH(env.scale),
                                  Catalog::TpcC(env.scale), "", "C_");
  auto rig = MakeRig(env, merged,
                     {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}});
  if (!rig.ok()) return 1;

  auto olap = MakeOlapSpec(rig->catalog(), 1, 1, env.seed);
  auto oltp = MakeOltpSpec(rig->catalog(), "C_", 9, /*warmup_s=*/5.0);
  if (!olap.ok() || !oltp.ok()) return 1;

  auto advised = AdviseForWorkload(*rig, &*olap, &*oltp);
  if (!advised.ok()) {
    std::fprintf(stderr, "advisor: %s\n",
                 advised.status().ToString().c_str());
    return 1;
  }
  auto see_run = rig->Execute(SeeLayout(*rig), &*olap, &*oltp);
  auto opt_run = rig->Execute(advised->result.final_layout, &*olap, &*oltp);
  if (!see_run.ok() || !opt_run.ok()) return 1;

  TextTable table({"Layout", "OLAP1-21 (s)", "OLTP (tpm)"});
  table.AddRow({"SEE baseline", StrFormat("%.0f", see_run->elapsed_seconds),
                StrFormat("%.0f", see_run->tpm)});
  table.AddRow({"Optimized", StrFormat("%.0f", opt_run->elapsed_seconds),
                StrFormat("%.0f", opt_run->tpm)});
  std::printf("%s\n", table.ToString().c_str());
  // The caption's claim: the advised layout finishes OLAP1-21 sooner.
  const bool olap_faster = opt_run->elapsed_seconds < see_run->elapsed_seconds;
  std::printf(
      "OLAP speedup %.2fx (paper 1.43x) %s; OLTP throughput ratio %.2fx "
      "(paper 1.18x)\n",
      see_run->elapsed_seconds / opt_run->elapsed_seconds,
      olap_faster ? "[ok]" : "[MISS]", opt_run->tpm / see_run->tpm);
  if (env.json) {
    JsonRows json;
    json.BeginRow();
    json.Field("workload", "consolidation-olap1-21");
    json.Field("see_seconds", see_run->elapsed_seconds);
    json.Field("optimized_seconds", opt_run->elapsed_seconds);
    json.Field("speedup",
               see_run->elapsed_seconds / opt_run->elapsed_seconds);
    json.Field("paper_speedup", 1.43);
    json.Field("olap_faster", olap_faster);
    json.Field("see_tpm", see_run->tpm);
    json.Field("optimized_tpm", opt_run->tpm);
    json.Field("tpm_ratio", opt_run->tpm / see_run->tpm);
    json.Field("paper_tpm_ratio", 1.18);
    json.Field("advisor_seconds", advised->result.total_seconds());
    // Target-level requests of both executions: deterministic for a build,
    // so tools/bench_record.py --compare-last gates it exactly.
    json.Field("simulated_requests",
               static_cast<int64_t>(see_run->total_requests +
                                    opt_run->total_requests));
    if (!json.WriteTo(env.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", env.json_path.c_str());
      return 1;
    }
  }
  return olap_faster ? 0 : 1;
}
