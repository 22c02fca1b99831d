// RAID-level ablation: the same four disks organized as RAID0 groups,
// RAID1 mirrored pairs, and one RAID5 group, under the OLAP8-63 workload
// (read-heavy) and the TPC-C OLTP workload (write-heavy).
//
// The paper's targets are RAID0 groups and single disks; this ablation
// exercises the library's RAID1/RAID5 support: mirrored pairs double read
// parallelism but halve capacity and pay full write fan-out; RAID5 pays
// the small-write parity penalty, which the write-heavy OLTP workload
// exposes.

#include <cstdio>

#include "bench/bench_common.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/spec.h"

using namespace ldb;
using namespace ldb::bench;

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  PrintHeader("RAID ablation",
              "four disks as RAID0 / RAID1 pairs / RAID5, advised layouts",
              env);

  struct Config {
    const char* name;
    std::vector<RigTargetDef> targets;
  };
  RigTargetDef raid1a{"mirrorA", 2};
  raid1a.raid_level = RaidLevel::kRaid1;
  RigTargetDef raid1b{"mirrorB", 2};
  raid1b.raid_level = RaidLevel::kRaid1;
  RigTargetDef raid5{"raid5x4", 4};
  raid5.raid_level = RaidLevel::kRaid5;
  const Config configs[] = {
      {"4 x single disk (RAID0)", {{"d0"}, {"d1"}, {"d2"}, {"d3"}}},
      {"2 x RAID0 pair", {{"pairA", 2}, {"pairB", 2}}},
      {"2 x RAID1 mirror", {raid1a, raid1b}},
      {"1 x RAID5 (4 disks)", {raid5}},
  };

  TextTable table({"Configuration", "Targets", "OLAP8-63 opt (s)",
                   "OLTP opt (tpm)"});
  for (const Config& config : configs) {
    // OLAP side (TPC-H).
    auto rig = MakeRig(env, Catalog::TpcH(env.scale), config.targets);
    if (!rig.ok()) {
      std::fprintf(stderr, "%s: %s\n", config.name,
                   rig.status().ToString().c_str());
      continue;
    }
    auto olap = MakeOlapSpec(rig->catalog(), 3, 8, env.seed);
    if (!olap.ok()) continue;
    auto advised = AdviseForWorkload(*rig, &*olap, nullptr);
    std::string olap_cell = "n/a";
    if (advised.ok()) {
      auto run = rig->Execute(advised->result.final_layout, &*olap, nullptr);
      if (run.ok()) olap_cell = StrFormat("%.0f", run->elapsed_seconds);
    }

    // OLTP side (TPC-C): write-heavy, exposes RAID5's parity penalty.
    auto oltp_rig = MakeRig(env, Catalog::TpcC(env.scale), config.targets);
    std::string oltp_cell = "n/a";
    if (oltp_rig.ok()) {
      auto oltp = MakeOltpSpec(oltp_rig->catalog(), "", 9, 5.0);
      if (oltp.ok()) {
        auto advised_oltp = AdviseForWorkload(*oltp_rig, nullptr, &*oltp,
                                              AdvisorOptions{},
                                              /*oltp_duration_s=*/60.0);
        if (advised_oltp.ok()) {
          auto run = oltp_rig->Execute(advised_oltp->result.final_layout,
                                       nullptr, &*oltp, /*duration=*/60.0);
          if (run.ok()) oltp_cell = StrFormat("%.0f", run->tpm);
        }
      }
    }
    table.AddRow({config.name,
                  StrFormat("%zu", config.targets.size()), olap_cell,
                  oltp_cell});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shapes: RAID1 mirrors competitive on the read-heavy OLAP "
      "workload; RAID5 clearly behind on write-heavy OLTP (parity "
      "read-modify-write).\n");
  return 0;
}
