// Adversarial scenario matrix: the declarative scenario library replayed
// as an oracle / static / autopilot validation grid.
//
// Five scenario classes from src/scenario (each a one-line declarative
// spec, the same grammar the `scenario` problem-file directive accepts):
//
//   phase_shift   two tenants swap dominance mid-run (×30 up, ×0.05 down)
//   tenant_churn  a second tenant arrives at t=50 at twice the rate
//   flash_crowd   a ×50 crowd descends on a quiet tenant for 30 s
//   graph_rewire  community co-access structure rewires every 40 s
//   slow_drift    a geometric ramp held just under the drift threshold
//                 (caught only by the sustained sub-threshold detector)
//
// For every class the analytic timeline (BuildTimeline) splits the run
// into segments. A calibration pass replays the scenario under SEE (the
// tracing layout) with an OnlineAnalyzer attached and snapshots fitted
// workload descriptions at every segment end — the same frame the
// autopilot's own analyzer sees, exactly how the other benches fit
// reference workloads. The matrix then scores three layouts per segment
// under the segment's fitted workloads (model max utilization):
//
//   oracle     LayoutAdvisor re-advised per segment (clairvoyant)
//   static     advised once for segment 0, never changed
//   autopilot  the closed loop's deployed layout, sampled at each
//              segment end via AutopilotOptions::layout_sample_times
//
// Acceptance (scale-gated at >= 0.05, like the other benches): on every
// class where the static layout degrades by more than 15% versus the
// oracle, the autopilot must land within 10% of the oracle. Enforced at
// every scale: each class's autopilot run is bit-identical across solver
// thread counts 1/2/8 (full report fingerprints). Exit is nonzero when
// either bar fails.
//
// --json emits one row per class for tools/bench_record.py. --journal=<dir>
// gives every autopilot replay a durable control journal under <dir>,
// running the whole matrix through the WAL write path (nightly CI does
// this); journaling must never change a fingerprint.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/advisor.h"
#include "core/autopilot.h"
#include "model/target_model.h"
#include "monitor/online_analyzer.h"
#include "scenario/scenario.h"
#include "scenario/sim.h"
#include "util/table.h"

using namespace ldb;
using namespace ldb::bench;

namespace {

// One scenario class: a name, the declarative spec, and the autopilot
// loop configuration it is validated under.
struct ScenarioClass {
  std::string name;
  std::string spec;
  // Sustained sub-threshold detection (0 = edge detector only). The
  // slow_drift class holds its score under the edge threshold, so it is
  // only caught when these are set.
  double sustained_ratio = 0.0;
  double sustained_s = 0.0;
  // Edge-trip threshold; slow_drift raises it so its ramp stays
  // sub-threshold and only the sustained path can catch it.
  double threshold = 0.3;
};

// Fast-reacting loop for the 120-160 s scenario runs: short analyzer
// memory, two consecutive trips, migrations fast enough (256 MB/s) that
// a re-layout lands well inside a segment.
AutopilotOptions LoopOptions(const BenchEnv& env, const ScenarioClass& sc) {
  AutopilotOptions o;
  o.config.analyzer.half_life_s = 5.0;
  o.config.check_interval_s = 2.0;
  o.config.drift.threshold = sc.threshold;
  o.config.drift.trip_evaluations = 2;
  o.config.drift.cooldown_s = 10.0;
  o.config.drift.sustained_ratio = sc.sustained_ratio;
  o.config.drift.sustained_s = sc.sustained_s;
  o.config.gate_min_gain = 0.01;
  o.config.gate_horizon_s = 2000.0;
  o.migrate.bandwidth_bytes_per_s = 256.0 * (1 << 20);
  o.advisor.solver.num_threads = env.num_threads;
  return o;
}

// Segment-weighted mean of per-segment max utilizations: the class-level
// score a layout policy gets for the whole scenario.
double WeightedMean(const std::vector<ScenarioSegment>& segments,
                    const std::vector<double>& utils) {
  double acc = 0.0, total = 0.0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const double w = segments[i].end_s - segments[i].start_s;
    acc += w * utils[i];
    total += w;
  }
  return total > 0.0 ? acc / total : 0.0;
}

struct ClassResult {
  std::vector<ScenarioSegment> segments;
  double oracle = 0.0;
  double stat = 0.0;
  double autopilot = 0.0;
  bool static_degraded = false;  ///< static > oracle * 1.15
  bool within = false;           ///< autopilot <= oracle * 1.10 + 0.01
  bool deterministic = false;    ///< fingerprints identical across threads
  int migrations = 0;
  double final_drift_score = 0.0;
  uint64_t requests = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = ParseBenchEnv(argc, argv);
  // --journal=<dir>: run every autopilot replay with a durable control
  // journal under <dir> (one WAL per class x thread count), exercising the
  // WAL write path — including the scenario-position records — under the
  // full matrix. Determinism is still enforced: journaling must never
  // perturb the simulation.
  std::string journal_dir;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--journal=", 10) == 0) {
      journal_dir = argv[a] + 10;
    }
  }
  if (!journal_dir.empty()) {
    ::mkdir(journal_dir.c_str(), 0755);  // best-effort; Open reports errors
  }
  PrintHeader("Scenarios",
              "adversarial scenario matrix: oracle/static/autopilot",
              env);

  // Synthetic multi-tenant catalog: 16 equal objects, two 8-object tenant
  // ranges, on the paper's four-disk testbed. Sizes scale with the bench
  // scale the same way the TPC catalogs do.
  const int64_t obj_bytes =
      std::max<int64_t>(1 << 20, static_cast<int64_t>(256.0 * (1 << 20) *
                                                      env.scale));
  Catalog catalog;
  for (int i = 0; i < 16; ++i) {
    catalog.Add(DbObject{StrFormat("obj%02d", i), ObjectKind::kTable,
                         obj_bytes});
  }
  auto rig = MakeRig(env, catalog,
                     {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}});
  if (!rig.ok()) {
    std::fprintf(stderr, "rig: %s\n", rig.status().ToString().c_str());
    return 1;
  }
  const int n = rig->catalog().num_objects();

  // The scenario library. Rates are arrivals/s per object; every arrival
  // issues a burst of community co-accessed requests, so the aggregate
  // load keeps the four disks busy without saturating them.
  std::vector<ScenarioClass> classes;
  classes.push_back(
      {"phase_shift",
       "duration=120;seed=13;"
       "tenant=alpha,objects=0:8,rate=10,bytes=65536,write=0.2,runs=4;"
       "tenant=beta,objects=8:16,rate=0.5,bytes=65536,write=0.2,runs=4;"
       "phase=alpha,start=60,end=120,x=0.05;"
       "phase=beta,start=60,end=120,x=30;"
       "graph=alpha,communities=4,coaccess=0.8,burst=3;"
       "graph=beta,communities=4,coaccess=0.8,burst=3"});
  classes.push_back(
      {"tenant_churn",
       "duration=120;seed=17;"
       "tenant=resident,objects=0:8,rate=7,bytes=65536,write=0.2,runs=4;"
       "tenant=newcomer,objects=8:16,rate=14,bytes=65536,write=0.2,"
       "runs=4,arrive=50;"
       "graph=resident,communities=4,coaccess=0.8,burst=3;"
       "graph=newcomer,communities=4,coaccess=0.8,burst=3"});
  classes.push_back(
      {"flash_crowd",
       "duration=120;seed=23;"
       "tenant=steady,objects=0:8,rate=6,bytes=65536,write=0.2,runs=4;"
       "tenant=spiky,objects=8:16,rate=0.3,bytes=65536,write=0.2,runs=4;"
       "flash=spiky,at=60,for=30,x=50;"
       "graph=steady,communities=4,coaccess=0.8,burst=3;"
       "graph=spiky,communities=4,coaccess=0.8,burst=3"});
  classes.push_back(
      {"graph_rewire",
       "duration=120;seed=29;"
       "tenant=social,objects=0:16,rate=3,bytes=262144,write=0.2,runs=4;"
       "graph=social,communities=2,coaccess=0.9,rewire=40,burst=4",
       /*sustained_ratio=*/0.0, /*sustained_s=*/0.0, /*threshold=*/0.2});
  classes.push_back(
      {"slow_drift",
       "duration=170;seed=31;"
       "tenant=base,objects=0:8,rate=5,bytes=65536,write=0.2,runs=4;"
       "tenant=creeper,objects=8:16,rate=0.2,bytes=65536,write=0.2,runs=4;"
       "drift=creeper,start=30,end=120,x=60;"
       "graph=base,communities=4,coaccess=0.8,burst=3;"
       "graph=creeper,communities=4,coaccess=0.8,burst=3",
       /*sustained_ratio=*/0.5, /*sustained_s=*/15.0, /*threshold=*/0.45});

  const bool enforce_quality_bars = env.scale >= 0.05 - 1e-12;
  bool all_ok = true;
  JsonRows json;
  TextTable table({"class", "segs", "oracle", "static", "autopilot",
                   "migr", "degraded", "within10%", "threads"});

  for (const ScenarioClass& sc : classes) {
    auto spec = ParseScenarioSpec(sc.spec);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s: %s\n", sc.name.c_str(),
                   spec.status().ToString().c_str());
      return 1;
    }
    ClassResult r;
    r.segments = BuildTimeline(*spec, n);

    // Calibration pass: replay the scenario statically under SEE with an
    // OnlineAnalyzer (same window as the loop's) and snapshot the fitted
    // workloads at every segment end. These are the per-segment reference
    // descriptions every layout in the matrix is scored under.
    auto seed_problem = rig->MakeProblem(r.segments.front().workloads);
    if (!seed_problem.ok()) {
      std::fprintf(stderr, "%s problem: %s\n", sc.name.c_str(),
                   seed_problem.status().ToString().c_str());
      return 1;
    }
    OnlineAnalyzerOptions an;
    an.half_life_s = 5.0;
    OnlineAnalyzer analyzer(n, an);
    std::vector<WorkloadSet> fitted;
    auto fit_system = rig->MakeSystem();
    for (const ScenarioSegment& seg : r.segments) {
      fit_system->queue().ScheduleAt(seg.end_s - 1e-6, [&analyzer, &fitted]() {
        fitted.push_back(analyzer.Snapshot());
      });
    }
    auto fit = PlayScenarioStatic(
        fit_system.get(), *seed_problem, SeeLayout(*rig), *spec,
        FaultPlan{}, ScenarioPlayerOptions{},
        [&analyzer](const IoEvent& ev) { analyzer.Observe(ev); });
    if (!fit.ok()) {
      std::fprintf(stderr, "%s fit pass: %s\n", sc.name.c_str(),
                   fit.status().ToString().c_str());
      return 1;
    }
    if (fitted.size() != r.segments.size()) {
      std::fprintf(stderr, "%s fit pass: %zu/%zu snapshots\n",
                   sc.name.c_str(), fitted.size(), r.segments.size());
      return 1;
    }

    // The deployed problem: segment 0's fitted workloads (what a DBA
    // would have advised for before the scenario unfolds). Also the
    // autopilot's drift reference.
    auto problem = rig->MakeProblem(fitted.front());
    if (!problem.ok()) {
      std::fprintf(stderr, "%s problem: %s\n", sc.name.c_str(),
                   problem.status().ToString().c_str());
      return 1;
    }
    const TargetModel model = problem->MakeTargetModel();

    AdvisorOptions aopts;
    aopts.solver.num_threads = env.num_threads;
    const LayoutAdvisor advisor(aopts);
    auto static_adv = advisor.Recommend(*problem);
    if (!static_adv.ok()) {
      std::fprintf(stderr, "%s static advise: %s\n", sc.name.c_str(),
                   static_adv.status().ToString().c_str());
      return 1;
    }
    const Layout static_layout = static_adv->final_layout;

    // Oracle column: re-advise per segment, score under the segment's
    // workloads.
    std::vector<double> oracle_u, static_u;
    for (const WorkloadSet& ws : fitted) {
      auto seg_problem = rig->MakeProblem(ws);
      if (!seg_problem.ok()) return 1;
      auto seg_adv = advisor.Recommend(*seg_problem);
      if (!seg_adv.ok()) {
        std::fprintf(stderr, "%s oracle advise: %s\n", sc.name.c_str(),
                     seg_adv.status().ToString().c_str());
        return 1;
      }
      oracle_u.push_back(
          model.MaxUtilization(ws, seg_adv->final_layout));
      static_u.push_back(model.MaxUtilization(ws, static_layout));
    }

    // Autopilot column: play the scenario under the closed loop with the
    // static layout deployed, sampling the deployed layout at every
    // segment end. Repeated at solver threads 1/2/8 — the full report
    // fingerprint must be bit-identical (enforced at every scale).
    std::vector<double> sample_times;
    for (const ScenarioSegment& seg : r.segments) {
      sample_times.push_back(seg.end_s - 1e-9);
    }
    std::vector<std::string> prints;
    ScenarioOutcome scored;
    for (int threads : {1, 2, 8}) {
      AutopilotOptions o = LoopOptions(env, sc);
      o.advisor.solver.num_threads = threads;
      o.layout_sample_times = sample_times;
      if (!journal_dir.empty()) {
        o.journal_path = journal_dir +
                         StrFormat("/%s-t%d.wal", sc.name.c_str(), threads);
        std::remove(o.journal_path.c_str());
      }
      auto system = rig->MakeSystem();
      auto out = PlayScenarioAutopilot(system.get(), *problem,
                                       static_layout, *spec, FaultPlan{},
                                       o);
      if (!out.ok()) {
        std::fprintf(stderr, "%s autopilot: %s\n", sc.name.c_str(),
                     out.status().ToString().c_str());
        return 1;
      }
      prints.push_back(out->Fingerprint());
      if (threads == 1) scored = std::move(*out);
    }
    r.deterministic = prints[0] == prints[1] && prints[0] == prints[2];

    std::vector<double> ap_u;
    for (size_t i = 0; i < r.segments.size(); ++i) {
      ap_u.push_back(model.MaxUtilization(
          fitted[i], scored.autopilot.sampled_layouts[i].layout));
    }

    r.oracle = WeightedMean(r.segments, oracle_u);
    r.stat = WeightedMean(r.segments, static_u);
    r.autopilot = WeightedMean(r.segments, ap_u);
    r.static_degraded = r.stat > r.oracle * 1.15;
    r.within = r.autopilot <= r.oracle * 1.10 + 0.01;
    r.migrations = scored.autopilot.migrations_completed;
    r.final_drift_score = scored.autopilot.final_drift_score;
    r.requests = scored.run.total_requests;

    const bool class_ok =
        r.deterministic &&
        (!enforce_quality_bars || !r.static_degraded || r.within);
    all_ok = all_ok && class_ok;

    table.AddRow({sc.name, StrFormat("%d", (int)r.segments.size()),
                  StrFormat("%.1f%%", 100 * r.oracle),
                  StrFormat("%.1f%%", 100 * r.stat),
                  StrFormat("%.1f%%", 100 * r.autopilot),
                  StrFormat("%d", r.migrations),
                  r.static_degraded ? "yes" : "no",
                  r.static_degraded ? (r.within ? "yes" : "NO") : "-",
                  r.deterministic ? "1=2=8" : "DIVERGED"});
    json.BeginRow();
    json.Field("row", sc.name);
    json.Field("segments", static_cast<int>(r.segments.size()));
    json.Field("oracle_max_util", r.oracle);
    json.Field("static_max_util", r.stat);
    json.Field("autopilot_max_util", r.autopilot);
    json.Field("static_degraded", r.static_degraded);
    json.Field("autopilot_within_10pct", r.within);
    json.Field("migrations_completed", r.migrations);
    json.Field("threads_identical", r.deterministic);
    json.Field("final_drift_score", r.final_drift_score);
    json.Field("requests", static_cast<int64_t>(r.requests));
  }

  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nBars: where static degrades >15%% vs the per-segment oracle the "
      "autopilot must land within 10%% of it (scale-gated%s); every class "
      "must be bit-identical across solver threads 1/2/8 (always "
      "enforced).\n%s\n",
      enforce_quality_bars ? ", active" : ", inactive at this scale",
      all_ok ? "[ok]" : "[MISS]");

  if (env.json && !json.WriteTo(env.json_path)) return 1;
  return all_ok ? 0 : 1;
}
