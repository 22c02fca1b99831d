// Micro-benchmarks (google-benchmark) of the hot kernels: device service
// times, the simulator's event throughput, LVM mapping, cost-model
// interpolation, the trace fit, the workload runner's request path, the
// target model's utilization computation (the solver's inner loop), the
// fused column kernel (at a fixed layout and as a line-search trial), the
// regularizer sweep, simplex projection, a small end-to-end solve, a full
// solve shaped like one advise_4x96 problem, single-seed and raced
// multi-start, the scenario player's open-loop replay, a WAL append +
// fsync, one aligned FileBackend write + read round-trip, the verification
// pattern's fill + check of one window, and one SEE-striped window written
// and read back through FileBackend::TransferChunks.
//
// --json[=path] maps onto google-benchmark's JSON reporters, so every
// benchmark binary in this repo shares one machine-readable flag.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/advisor.h"
#include "core/problem.h"
#include "core/regularize.h"
#include "io/file_backend.h"
#include "io/pattern.h"
#include "model/calibration.h"
#include "model/target_model.h"
#include "monitor/online_analyzer.h"
#include "scenario/player.h"
#include "scenario/scenario.h"
#include "solver/multistart.h"
#include "solver/projected_gradient.h"
#include "solver/simplex.h"
#include "storage/disk.h"
#include "storage/event_queue.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
#include "util/random.h"
#include "util/units.h"
#include "util/wal.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {
namespace {

const CostModel& SharedCostModel() {
  static const CostModel* model = [] {
    DiskModel disk(Scsi15kParams());
    CalibrationOptions options;
    options.sample_requests = 64;  // coarse is fine for micro-bench input
    auto m = CalibrateDevice(disk, options);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

void BM_DiskServiceTimeSequential(benchmark::State& state) {
  DiskModel disk(Scsi15kParams());
  int64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.ServiceTime({offset, 64 * kKiB, false}));
    offset += 64 * kKiB;
    if (offset + 64 * kKiB > disk.capacity_bytes()) offset = 0;
  }
}
BENCHMARK(BM_DiskServiceTimeSequential);

void BM_DiskServiceTimeRandom(benchmark::State& state) {
  DiskModel disk(Scsi15kParams());
  Rng rng(1);
  const int64_t slots = disk.capacity_bytes() / (8 * kKiB) - 1;
  for (auto _ : state) {
    const int64_t offset = rng.UniformInt(int64_t{0}, slots) * 8 * kKiB;
    benchmark::DoNotOptimize(disk.ServiceTime({offset, 8 * kKiB, false}));
  }
}
BENCHMARK(BM_DiskServiceTimeRandom);

void BM_CalibrationPoint(benchmark::State& state) {
  // One grid point of the calibration sweep at the heaviest contention
  // level — the unit of work CalibrateDevice parallelizes over.
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options;
  options.size_axis = {64 * kKiB};
  options.run_axis = {16};
  options.contention_axis = {16};
  for (auto _ : state) {
    auto m = CalibrateDevice(disk, options);
    benchmark::DoNotOptimize(m.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibrationPoint);

void BM_CalibrateDeviceDefaultGrid(benchmark::State& state) {
  // Full default grid (9 sizes x 8 run counts x 7 contention levels) with
  // num_threads = range(0). Arg(1) is the serial baseline; Arg(8) must show
  // the >=3x parallel speedup, with bit-identical tables (see
  // threading_test.cc).
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto m = CalibrateDevice(disk, options);
    benchmark::DoNotOptimize(m.ok());
  }
}
BENCHMARK(BM_CalibrateDeviceDefaultGrid)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_SimulatorEventThroughput(benchmark::State& state) {
  DiskModel proto(Scsi15kParams());
  for (auto _ : state) {
    state.PauseTiming();
    StorageSystem sys({{"d0", &proto, 1, 64 * kKiB},
                       {"d1", &proto, 1, 64 * kKiB}});
    state.ResumeTiming();
    int outstanding = 0;
    for (int i = 0; i < 1024; ++i) {
      sys.Submit(i % 2, {(i / 2) * 64 * kKiB, 64 * kKiB, false, 0, 0},
                 nullptr);
      ++outstanding;
    }
    sys.queue().RunUntilIdle();
    benchmark::DoNotOptimize(outstanding);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_EventQueueScheduleDrain(benchmark::State& state) {
  // Bulk schedule-then-drain: stresses the slab/free-list reuse path with
  // many outstanding events. Steady state performs zero callback heap
  // allocations (capture fits the inline buffer).
  const int kEvents = 1024;
  EventQueue q;
  uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEvents; ++i) {
      q.ScheduleAfter(static_cast<double>(i % 17) * 1e-6,
                      [&sink, i] { sink += static_cast<uint64_t>(i); });
    }
    q.RunUntilIdle();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventQueueScheduleDrain);

struct Ticker {
  EventQueue* q;
  uint64_t remaining;
  void Tick() {
    if (remaining-- > 0) q->ScheduleAfter(1e-6, [this] { Tick(); });
  }
};

void BM_EventQueueChainedTimers(benchmark::State& state) {
  // Self-rescheduling timer chain: the simulator's steady-state shape (one
  // completion schedules the next). A single pool slot is recycled for the
  // whole chain with no heap allocation per event.
  const uint64_t kChain = 4096;
  EventQueue q;
  for (auto _ : state) {
    Ticker t{&q, kChain};
    t.Tick();
    q.RunUntilIdle();
    benchmark::DoNotOptimize(t.remaining);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kChain));
}
BENCHMARK(BM_EventQueueChainedTimers);

void BM_LvmMap(benchmark::State& state) {
  auto mgr = StripedVolumeManager::Create(
      {10 * kGiB}, {{0, 1, 2, 3}}, {20 * kGiB, 20 * kGiB, 20 * kGiB, 20 * kGiB},
      64 * kKiB);
  LDB_CHECK(mgr.ok());
  std::vector<TargetChunk> chunks;
  int64_t offset = 0;
  for (auto _ : state) {
    chunks.clear();
    mgr->Map(0, offset, 256 * kKiB, &chunks);
    benchmark::DoNotOptimize(chunks.data());
    offset = (offset + 256 * kKiB) % (9 * kGiB);
  }
}
BENCHMARK(BM_LvmMap);

/// Runs `olap` (beside `oltp`, when given) on four fresh 15K disks with
/// every object striped over all of them; `observer` sees the runner's
/// logical completions.
RunResult RunOnFourDisks(const Catalog& catalog, const OlapSpec& olap,
                         const OltpSpec* oltp,
                         StorageSystem::Observer observer = nullptr) {
  DiskModel proto(Scsi15kParams());
  StorageSystem sys({{"d0", &proto, 1, 64 * kKiB},
                     {"d1", &proto, 1, 64 * kKiB},
                     {"d2", &proto, 1, 64 * kKiB},
                     {"d3", &proto, 1, 64 * kKiB}});
  std::vector<std::vector<int>> placements(
      static_cast<size_t>(catalog.num_objects()), std::vector<int>{0, 1, 2, 3});
  auto volumes = StripedVolumeManager::Create(
      catalog.sizes(), std::move(placements), sys.capacities(), 64 * kKiB);
  LDB_CHECK(volumes.ok());
  WorkloadRunner runner(&sys, &*volumes, 7);
  if (observer) runner.set_logical_observer(std::move(observer));
  auto run = oltp != nullptr ? runner.RunMixed(olap, *oltp)
                             : runner.RunOlap(olap);
  LDB_CHECK(run.ok());
  return std::move(run).value();
}

constexpr double kTraceFitScale = 0.2;

/// The object-level trace of OLAP1-21 over TPC-H at kTraceFitScale (~200k
/// events, in completion order), recorded once.
const IoTrace& RecordedOlapTrace() {
  static const IoTrace* trace = [] {
    const Catalog catalog = Catalog::TpcH(kTraceFitScale);
    auto olap = MakeOlapSpec(catalog, 1, 1, 7);
    LDB_CHECK(olap.ok());
    auto* t = new IoTrace();
    RunOnFourDisks(catalog, *olap, nullptr,
                   [t](const IoEvent& ev) { t->Add(ev); });
    return t;
  }();
  return *trace;
}

void BM_TraceFit(benchmark::State& state, bool streamed) {
  // The Rubicon fit of one recorded trace: `streamed` feeds the completions
  // through the reordering front end into the fitting core, as
  // ExperimentRig::FitWorkloads does while a run executes; otherwise
  // TraceAnalyzer::Analyze sorts the stored trace and fits it.
  const IoTrace& trace = RecordedOlapTrace();
  const int n = Catalog::TpcH(kTraceFitScale).num_objects();
  for (auto _ : state) {
    if (streamed) {
      ReorderingTraceFitter fitter(n);
      for (const IoEvent& ev : trace.events()) fitter.Observe(ev);
      auto ws = fitter.Finish();
      benchmark::DoNotOptimize(ws.ok());
    } else {
      auto ws = TraceAnalyzer().Analyze(trace, n);
      benchmark::DoNotOptimize(ws.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_TraceFit, analyze, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TraceFit, streamed, true)->Unit(benchmark::kMillisecond);

void BM_WorkloadRunnerRequests(benchmark::State& state) {
  // The closed-loop request path end to end: a small RunMixed (OLAP1-21
  // beside 9 OLTP terminals) through runner, volume manager, targets and
  // the event queue. Items are simulated target requests.
  const Catalog catalog = Catalog::Merge(Catalog::TpcH(0.02),
                                         Catalog::TpcC(0.02), "", "C_");
  auto olap = MakeOlapSpec(catalog, 1, 1, 7);
  auto oltp = MakeOltpSpec(catalog, "C_", 9);
  LDB_CHECK(olap.ok() && oltp.ok());
  uint64_t requests = 0;
  for (auto _ : state) {
    requests += RunOnFourDisks(catalog, *olap, &*oltp).total_requests;
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_WorkloadRunnerRequests)->Unit(benchmark::kMillisecond);

void BM_ScenarioPlayerSteps(benchmark::State& state) {
  // The open-loop scenario step kernel: per-tenant Poisson arrivals under
  // a phase shift, community co-access bursts with rewiring, through the
  // volume manager, four disks and the event queue — the foreground of
  // every scenario_autopilot replay. Items are logical requests.
  constexpr int kObjects = 16;
  auto spec = ParseScenarioSpec(
      "duration=20;seed=7;"
      "tenant=alpha,objects=0:8,rate=40,bytes=65536,write=0.2,runs=4;"
      "tenant=beta,objects=8:16,rate=10,bytes=8192,write=0.3;"
      "phase=beta,start=10,end=20,x=4;"
      "graph=alpha,communities=4,coaccess=0.8,rewire=5,burst=3");
  LDB_CHECK(spec.ok());
  const std::vector<int64_t> sizes(kObjects, 64 * kMiB);
  DiskModel proto(Scsi15kParams());
  uint64_t requests = 0;
  for (auto _ : state) {
    StorageSystem sys({{"d0", &proto, 1, 64 * kKiB},
                       {"d1", &proto, 1, 64 * kKiB},
                       {"d2", &proto, 1, 64 * kKiB},
                       {"d3", &proto, 1, 64 * kKiB}});
    std::vector<std::vector<int>> placements(kObjects,
                                             std::vector<int>{0, 1, 2, 3});
    auto volumes = StripedVolumeManager::Create(
        sizes, std::move(placements), sys.capacities(), 64 * kKiB);
    LDB_CHECK(volumes.ok());
    PassthroughRouter router(&*volumes);
    ScenarioPlayer player(&sys, &router, *spec);
    auto run = player.Play();
    LDB_CHECK(run.ok());
    requests += player.stats().requests;
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_ScenarioPlayerSteps)->Unit(benchmark::kMillisecond);

void BM_OnlineAnalyzerObserve(benchmark::State& state) {
  // The autopilot monitor's I/O hot path: one completion event through the
  // decayed trace fitter (reorder front end, rates, sizes, run detection, the
  // overlap row of each resolved submit), with a dense concurrent stream
  // so the overlap windows hold real work. The cost per event is the
  // monitor's whole per-I/O overhead; the acceptance
  // budget is <2% of a device I/O (hundreds of microseconds), checked
  // end-to-end by bench_autopilot's observer_overhead stage.
  // Arguments: n objects, and a reorder depth. Depth 0 feeds events in seq
  // order (the front end's in-order path); depth d > 1 shuffles each block
  // of d consecutive events, so completions arrive up to d - 1 places out
  // of seq order (the ring and far-map path live completions take) while
  // seq stays dense.
  const int n = static_cast<int>(state.range(0));
  const size_t depth = static_cast<size_t>(state.range(1));
  OnlineAnalyzer analyzer(n);
  Rng rng(7);
  // ~n active streams at ~1 krps each with overlapping in-flight windows.
  std::vector<IoEvent> events(8192);
  double t = 0.0;
  uint64_t seq = 0;
  for (IoEvent& ev : events) {
    t += 1e-3 / n;
    ev.submit_time = t;
    ev.complete_time = t + 2e-3;
    ev.seq = seq++;
    ev.target = -1;
    ev.object = static_cast<ObjectId>(rng.Uniform(0, n - 1));
    ev.logical_offset = rng.Uniform(0, 1024) * 8192;
    ev.size = 8192;
    ev.is_write = (ev.seq % 4) == 0;
  }
  if (depth > 1) {
    LDB_CHECK(events.size() % depth == 0);
    for (size_t block = 0; block < events.size(); block += depth) {
      for (size_t k = depth - 1; k > 0; --k) {
        std::swap(events[block + k],
                  events[block + static_cast<size_t>(rng.UniformInt(k + 1))]);
      }
    }
  }
  size_t i = 0;
  double shift = 0.0;
  uint64_t seq_shift = 0;
  for (auto _ : state) {
    IoEvent ev = events[i];
    // Keep simulated time moving forward and seq dense across passes over
    // the buffer.
    ev.submit_time += shift;
    ev.complete_time += shift;
    ev.seq += seq_shift;
    analyzer.Observe(ev);
    if (++i == events.size()) {
      i = 0;
      shift += events.back().complete_time;
      seq_shift += events.size();
    }
  }
  // Aborts on a duplicate seq instead of timing a fitter that stopped.
  WorkloadSet ws = analyzer.Snapshot();
  benchmark::DoNotOptimize(ws.data());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineAnalyzerObserve)
    ->ArgNames({"n", "depth"})
    ->Args({4, 0})
    ->Args({40, 0})
    ->Args({40, 32});

void BM_OnlineAnalyzerSnapshot(benchmark::State& state) {
  // The controller-tick path: the decayed fit of the stream so far, its
  // last overlap window resolved on a copy of the fitter (runs every
  // check_interval_s, not per I/O).
  const int n = 40;
  OnlineAnalyzer analyzer(n);
  Rng rng(7);
  double t = 0.0;
  for (int k = 0; k < 8192; ++k) {
    IoEvent ev;
    t += 1e-3 / n;
    ev.submit_time = t;
    ev.complete_time = t + 2e-3;
    ev.seq = static_cast<uint64_t>(k);
    ev.target = -1;
    ev.object = static_cast<ObjectId>(rng.Uniform(0, n - 1));
    ev.logical_offset = rng.Uniform(0, 1024) * 8192;
    ev.size = 8192;
    analyzer.Observe(ev);
  }
  for (auto _ : state) {
    WorkloadSet ws = analyzer.Snapshot();
    benchmark::DoNotOptimize(ws.data());
  }
}
BENCHMARK(BM_OnlineAnalyzerSnapshot);

void BM_CostModelLookup(benchmark::State& state) {
  const CostModel& model = SharedCostModel();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ReadCost(rng.Uniform(8192, 262144),
                                            rng.Uniform(1, 100),
                                            rng.Uniform(0, 8)));
  }
}
BENCHMARK(BM_CostModelLookup);

WorkloadSet MakeWorkloads(int n, Rng* rng) {
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 200);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 20);
    w.write_size = 64 * kKiB;
    w.run_count = rng->Uniform(1, 100);
    std::vector<double> row(static_cast<size_t>(n), 0.0);
    for (int k = 0; k < n; ++k) {
      if (k != i) row[static_cast<size_t>(k)] = rng->Uniform(0, 1);
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  return ws;
}

void BM_TargetModelUtilizations(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Utilizations(ws, layout));
  }
}
BENCHMARK(BM_TargetModelUtilizations)->Arg(20)->Arg(40)->Arg(160);

void BM_TargetModelColumnFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  // The scalar reference: one full O(N²) column evaluation after
  // perturbing one entry.
  int i = 0;
  for (auto _ : state) {
    layout.Set(i, 0, 0.7);
    benchmark::DoNotOptimize(model.TargetUtilization(ws, layout, 0));
    layout.Set(i, 0, 1.0 / m);
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_TargetModelColumnFull)->Arg(20)->Arg(40)->Arg(160);

void BM_GridInterpAt(benchmark::State& state) {
  // Baseline for BM_GridInterpAtWithGrad: value-only lookups. A central
  // difference needs 2·dims of these per gradient, the fused pass one.
  const CostModel& model = SharedCostModel();
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ReadCost(rng.Uniform(8192, 262144),
                                            rng.Uniform(1, 100),
                                            rng.Uniform(0, 8)));
  }
}
BENCHMARK(BM_GridInterpAt);

void BM_GridInterpAtWithGrad(benchmark::State& state) {
  // The fused value+gradient lookup: one cell location pass, value plus
  // all three partials. Compare against 1 + 2·dims = 7 At calls for the
  // same information via central differences.
  const CostModel& model = SharedCostModel();
  Rng rng(2);
  double d_run = 0.0, d_chi = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.CostWithGrad(false, rng.Uniform(8192, 262144),
                           rng.Uniform(1, 100), rng.Uniform(0, 8), &d_run,
                           &d_chi));
    benchmark::DoNotOptimize(d_run);
    benchmark::DoNotOptimize(d_chi);
  }
}
BENCHMARK(BM_GridInterpAtWithGrad);

void BM_TargetModelColumnGradient(benchmark::State& state) {
  // The analytic engine's unit of work: one fused pass returning µ_j and
  // all N partials ∂µ_j/∂L_ij (the solver prices every line-search trial
  // with it). The layout never changes, so after the first pass every
  // object's cost-table lookups are memo hits; BM_TargetModelColumnTrial
  // times passes whose inputs move.
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  auto ctx = model.MakeColumnEvaluator(ws, 0);
  std::vector<double> grad(static_cast<size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->EvaluateWithGradient(layout, grad.data()));
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_TargetModelColumnGradient)->Arg(20)->Arg(40)->Arg(160);

void BM_TargetModelColumnTrial(benchmark::State& state) {
  // The fused pass as a line-search trial meets it: one row moves per
  // pass, which moves the contention factor of every present object that
  // overlaps it, on a column where about half the objects are absent
  // (their lookups sit at a fixed fraction → 0 limit). Items are passes.
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  for (int i = 0; i < n; i += 2) {
    layout.Set(i, 0, 0.0);
    for (int j = 1; j < m; ++j) layout.Set(i, j, 1.0 / (m - 1));
  }
  auto ctx = model.MakeColumnEvaluator(ws, 0);
  std::vector<double> grad(static_cast<size_t>(n));
  // Present rows step their column-0 fraction up and down in turn.
  int i = 1;
  double step = 0.01;
  for (auto _ : state) {
    layout.Set(i, 0, layout.At(i, 0) + step);
    benchmark::DoNotOptimize(ctx->EvaluateWithGradient(layout, grad.data()));
    benchmark::DoNotOptimize(grad.data());
    i += 2;
    if (i >= n) {
      i = 1;
      step = -step;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TargetModelColumnTrial)->Arg(20)->Arg(96)->Arg(160);

/// Tenant-banded workloads: each object overlaps only its `neighbors`
/// ring neighbours.
WorkloadSet MakeSparseWorkloads(int n, int neighbors, Rng* rng) {
  WorkloadSet ws(static_cast<size_t>(n));
  std::vector<double> row(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 200);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 20);
    w.write_size = 64 * kKiB;
    w.run_count = rng->Uniform(1, 100);
    std::fill(row.begin(), row.end(), 0.0);
    row[static_cast<size_t>(i)] = rng->Uniform(0, 1.5);
    for (int d = 1; d <= neighbors / 2; ++d) {
      row[static_cast<size_t>((i + d) % n)] = rng->Uniform(0.05, 1);
      row[static_cast<size_t>((i - d + n) % n)] = rng->Uniform(0.05, 1);
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  return ws;
}

void BM_SparseInterferenceDot(benchmark::State& state) {
  // The raw interference kernel: one overlap-row · rate dot against a row
  // with 16 stored entries, O(nnz) regardless of N.
  const int n = static_cast<int>(state.range(0));
  constexpr int kNnz = 16;
  Rng rng(6);
  std::vector<int32_t> index;
  std::vector<double> value, x(static_cast<size_t>(n));
  for (int e = 0; e < kNnz; ++e) {
    index.push_back(static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(n))));
    value.push_back(rng.Uniform(0, 1));
  }
  for (auto& v : x) v = rng.Uniform(0, 1);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t e = 0; e < index.size(); ++e) {
      acc += value[e] * x[static_cast<size_t>(index[e])];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kNnz);
}
BENCHMARK(BM_SparseInterferenceDot)->Arg(160)->Arg(1000)->Arg(10000);

void BM_TargetModelColumnGradientSparse(benchmark::State& state) {
  // The analytic gradient pass over CSR workloads (ring band, 16 stored
  // neighbours per row). Compare against BM_TargetModelColumnGradient,
  // whose rows store all N entries: O(N²) per column against O(N·nnz).
  const int n = static_cast<int>(state.range(0));
  const int m = 4;
  Rng rng(3);
  WorkloadSet ws = MakeSparseWorkloads(n, 16, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  Layout layout = Layout::StripeEverythingEverywhere(n, m);
  auto ctx = model.MakeColumnEvaluator(ws, 0);
  std::vector<double> grad(static_cast<size_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->EvaluateWithGradient(layout, grad.data()));
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_TargetModelColumnGradientSparse)->Arg(160)->Arg(640)->Arg(2560);

/// Multi-tenant workloads: co-access within tenants of 8 plus one weak
/// link to another tenant per object.
WorkloadSet MakeTenantWorkloads(int n, Rng* rng) {
  constexpr int kTenant = 8;
  WorkloadSet ws(static_cast<size_t>(n));
  // Full rows, symmetric, before they go through SetOverlapRow.
  std::vector<std::vector<double>> rows(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 200);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 20);
    w.write_size = 64 * kKiB;
    w.run_count = rng->Uniform(1, 100);
    rows[static_cast<size_t>(i)][static_cast<size_t>(i)] =
        rng->Uniform(0, 1.5);
  }
  for (int i = 0; i < n; ++i) {
    const int lo = i / kTenant * kTenant;
    for (int k = i + 1; k < std::min(n, lo + kTenant); ++k) {
      const double o = rng->Uniform(0.05, 0.6);
      rows[static_cast<size_t>(i)][static_cast<size_t>(k)] = o;
      rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = o;
    }
    const int k = static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
    if (k / kTenant != i / kTenant) {
      const double o = rng->Uniform(0.01, 0.1);
      rows[static_cast<size_t>(i)][static_cast<size_t>(k)] = o;
      rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = o;
    }
  }
  for (int i = 0; i < n; ++i) {
    SetOverlapRow(&ws[static_cast<size_t>(i)], static_cast<size_t>(i),
                  rows[static_cast<size_t>(i)]);
  }
  return ws;
}

void BM_RegularizeSweep(benchmark::State& state) {
  // The regularizer end to end (greedy pass + refinement sweeps, 2M
  // candidates per object) on a solver-like layout: every row spread
  // unevenly over a random target subset. Args: objects, targets, and
  // overlap structure (0 = multi-tenant rows, 1 = ring band of 16; the
  // "csr" arg name is kept so recorded trajectories stay comparable).
  const int n = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(7);
  LayoutProblem problem;
  problem.workloads = state.range(2) == 0 ? MakeTenantWorkloads(n, &rng)
                                          : MakeSparseWorkloads(n, 16, &rng);
  for (int i = 0; i < n; ++i) {
    problem.object_names.push_back("o" + std::to_string(i));
    problem.object_sizes.push_back(kGiB);
    problem.object_kinds.push_back(ObjectKind::kTable);
  }
  for (int j = 0; j < m; ++j) {
    problem.targets.push_back(AdvisorTarget{
        "t" + std::to_string(j), 2 * n * kGiB / m, &SharedCostModel(), 1,
        64 * kKiB});
  }
  const TargetModel model = problem.MakeTargetModel();
  Layout solver_layout(n, m);
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (int j = 0; j < m; ++j) {
      if (rng.Bernoulli(0.3)) {
        solver_layout.Set(i, j, rng.Uniform(0.05, 1.0));
        sum += solver_layout.At(i, j);
      }
    }
    if (sum == 0.0) {
      solver_layout.Set(i, i % m, 1.0);
      continue;
    }
    for (int j = 0; j < m; ++j) solver_layout.Set(i, j, solver_layout.At(i, j) / sum);
  }
  const Regularizer regularizer(&problem, &model);
  int64_t columns_repriced = 0;
  for (auto _ : state) {
    auto regular = regularizer.Regularize(solver_layout, &columns_repriced);
    LDB_CHECK(regular.ok());
    benchmark::DoNotOptimize(regular->Row(0));
  }
  // Exact and the same every run: the pricer's work per sweep.
  state.counters["columns_repriced"] = static_cast<double>(columns_repriced);
}
BENCHMARK(BM_RegularizeSweep)
    ->Args({96, 10, 0})
    ->Args({1000, 20, 1})
    ->ArgNames({"n", "m", "csr"})
    ->Unit(benchmark::kMillisecond);

void BM_SimplexProjection(benchmark::State& state) {
  // Rows are drawn before timing and copied in per iteration, so the time
  // is the projection's, not the random draws'.
  const size_t n = static_cast<size_t>(state.range(0));
  constexpr size_t kRows = 64;
  Rng rng(4);
  std::vector<double> rows(kRows * n);
  for (auto& x : rows) x = rng.Uniform(-1, 2);
  std::vector<double> v(n);
  size_t r = 0;
  for (auto _ : state) {
    std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>(r * n), n,
                v.begin());
    ProjectToSimplex(v.data(), n);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
    r = (r + 1) % kRows;
  }
}
// Arg(10) is the solver's row: one entry per target of advise_4x96.
BENCHMARK(BM_SimplexProjection)->Arg(4)->Arg(10)->Arg(40);

void BM_SolverSmallProblemCached(benchmark::State& state) {
  // A small full solve (10 objects, 4 targets). The name predates the
  // single gradient engine and is kept so recorded trajectories stay
  // comparable.
  const int n = 10, m = 4;
  Rng rng(5);
  WorkloadSet ws = MakeWorkloads(n, &rng);
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m),
      TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
  TargetModel model(infos, LvmLayoutModel(64 * kKiB));
  LayoutNlpProblem nlp;
  nlp.num_objects = n;
  nlp.num_targets = m;
  nlp.object_sizes.assign(static_cast<size_t>(n), kGiB);
  nlp.target_capacities.assign(static_cast<size_t>(m), 20 * kGiB);
  nlp.target_utilization = [&](const Layout& l, int j) {
    return model.TargetUtilization(ws, l, j);
  };
  nlp.make_column_eval = [&](int j) { return model.MakeColumnEvaluator(ws, j); };
  SolverOptions options;
  options.annealing_rounds = 2;
  options.max_iterations_per_round = 10;
  ProjectedGradientSolver solver(options);
  const Layout seed = Layout::StripeEverythingEverywhere(n, m);
  for (auto _ : state) {
    auto r = solver.Solve(nlp, seed);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_SolverSmallProblemCached);

/// One advise_4x96-shaped solver problem: 96 objects in co-access tenants
/// of 8, 10 disk-15k targets at 1.6x the data, rates scaled so SEE's max
/// utilization is 0.95, and a skewed regular seed. Built once; the NLP's
/// callbacks point into this heap object.
struct Tenant96 {
  WorkloadSet ws;
  std::unique_ptr<TargetModel> model;
  LayoutNlpProblem nlp;
  Layout seed{1, 1};
};

const Tenant96& SharedTenant96() {
  static const Tenant96* problem = [] {
    const int n = 96, m = 10;
    auto* t = new Tenant96;
    Rng rng(11);
    t->ws = MakeTenantWorkloads(n, &rng);
    std::vector<TargetModelInfo> infos(
        static_cast<size_t>(m),
        TargetModelInfo{&SharedCostModel(), 1, 64 * kKiB});
    t->model =
        std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
    const double see_max = t->model->MaxUtilization(
        t->ws, Layout::StripeEverythingEverywhere(n, m));
    for (WorkloadDesc& w : t->ws) {
      w.read_rate *= 0.95 / see_max;
      w.write_rate *= 0.95 / see_max;
    }
    LayoutNlpProblem& nlp = t->nlp;
    nlp.num_objects = n;
    nlp.num_targets = m;
    int64_t total = 0;
    for (int i = 0; i < n; ++i) {
      nlp.object_sizes.push_back(rng.UniformInt(int64_t{64}, int64_t{512}) *
                                 kMiB);
      total += nlp.object_sizes.back();
    }
    nlp.target_capacities.assign(static_cast<size_t>(m), total * 16 / 10 / m);
    const TargetModel* model = t->model.get();
    const WorkloadSet* ws = &t->ws;
    nlp.target_utilization = [model, ws](const Layout& l, int j) {
      return model->TargetUtilization(*ws, l, j);
    };
    nlp.make_column_eval = [model, ws](int j) {
      return model->MakeColumnEvaluator(*ws, j);
    };
    t->seed = Layout(n, m);
    for (int i = 0; i < n; ++i) {
      t->seed.SetRowRegular(i, {i % m, (i + 1 + (i / m) % (m - 1)) % m});
    }
    return t;
  }();
  return *problem;
}

void BM_SolveTenant96(benchmark::State& state) {
  // One full analytic solve of the Tenant96 problem from its skewed seed.
  // This is the solver kernel every advise and autopilot re-advise runs
  // once per seed.
  const Tenant96& t = SharedTenant96();
  ProjectedGradientSolver solver;
  SolverResult last;
  for (auto _ : state) {
    auto r = solver.Solve(t.nlp, t.seed);
    LDB_CHECK(r.ok());
    last = std::move(r).value();
  }
  state.counters["iterations"] = last.iterations;
  state.counters["line_search_calls"] =
      static_cast<double>(last.profile.line_search.calls);
  state.counters["gradient_evaluations"] =
      static_cast<double>(last.gradient_evaluations);
  state.counters["max_util"] = last.max_utilization;
}
BENCHMARK(BM_SolveTenant96)->Unit(benchmark::kMillisecond);

void BM_MultiStartTenant96(benchmark::State& state) {
  // The Tenant96 problem through MultiStartSolver with the advisor's
  // default seed set: the skewed seed as seed 0 plus the advisor's random
  // restarts, which race seed 0 and stop once they cannot catch up.
  const Tenant96& t = SharedTenant96();
  const AdvisorOptions defaults;
  Rng rng(defaults.seed);
  std::vector<Layout> seeds{t.seed};
  for (Layout& l : MultiStartSolver::RandomSeeds(
           t.nlp, defaults.extra_random_seeds, &rng)) {
    seeds.push_back(std::move(l));
  }
  const MultiStartSolver solver(defaults.solver);
  SolverResult last;
  for (auto _ : state) {
    auto r = solver.Solve(t.nlp, seeds);
    LDB_CHECK(r.ok());
    last = std::move(r).value();
    benchmark::DoNotOptimize(last);
  }
  state.counters["gradient_evaluations"] =
      static_cast<double>(last.gradient_evaluations);
  state.counters["seeds_stopped"] = static_cast<double>(std::count_if(
      last.seeds.begin(), last.seeds.end(),
      [](const SeedTrajectory& s) { return s.stopped(); }));
  state.counters["max_util"] = last.max_utilization;
}
BENCHMARK(BM_MultiStartTenant96)->Unit(benchmark::kMillisecond);

/// A fresh directory under the system temp dir, removed with everything in
/// it when the owner goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("ldb-micro-" + name + "-" + std::to_string(::getpid()))) {
    // A failure here shows up as the kernel's Open error.
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::create_directories(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// One journal-sized record appended and made durable: the migration
// journal's per-commit cost (util.wal.* in layoutbench's migrate_realfile).
void BM_WalAppendSync(benchmark::State& state) {
  const ScratchDir dir("wal");
  auto wal = WalWriter::Open(dir.path() + "/bench.wal");
  if (!wal.ok()) {
    state.SkipWithError(wal.status().ToString().c_str());
    return;
  }
  const std::string record(static_cast<size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    Status s = (*wal)->Append(record);
    if (s.ok()) s = (*wal)->Sync();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalAppendSync)
    ->Arg(64)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// One aligned WriteSync + ReadSync of the same block on a one-target
// backend (O_DIRECT where the temp filesystem takes it): the data plane
// under every migration chunk copy and pattern check.
void BM_FileBackendRoundTrip(benchmark::State& state) {
  const int64_t bytes = state.range(0);
  const ScratchDir dir("backend");
  FileBackendOptions options;
  options.dir = dir.path();
  options.capacity_bytes = {16 * kMiB};
  options.quiet = true;
  auto backend = FileBackend::Open(options);
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }
  AlignedBuffer buf;
  if (const Status s = buf.Reserve(bytes, options.logical_block_bytes);
      !s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  std::memset(buf.data(), 0x5a, static_cast<size_t>(bytes));
  const int64_t slots = options.capacity_bytes[0] / bytes;
  int64_t slot = 0;
  for (auto _ : state) {
    const int64_t offset = (slot++ % slots) * bytes;
    Status s = (*backend)->WriteSync(0, offset, bytes, buf.data());
    if (s.ok()) s = (*backend)->ReadSync(0, offset, bytes, buf.data());
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 2 * bytes);
  state.counters["direct"] = (*backend)->geometry().direct_io ? 1 : 0;
}
BENCHMARK(BM_FileBackendRoundTrip)
    ->Arg(4 * kKiB)
    ->Arg(kMiB)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Fill one 1 MiB window with the verification pattern and check it, in
// memory: the CPU half of every populate and verify window of a real
// migration (layoutbench migrate_realfile runs ~390 of each per pass).
void BM_PatternFillVerify(benchmark::State& state) {
  std::vector<char> buf(kMiB);
  int64_t offset = 0;
  for (auto _ : state) {
    FillPattern(/*object=*/3, offset, kMiB, buf.data());
    const int64_t bad = FindPatternMismatch(/*object=*/3, offset, kMiB,
                                            buf.data());
    if (bad >= 0) {
      state.SkipWithError("pattern mismatch");
      break;
    }
    benchmark::DoNotOptimize(bad);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
    offset += kMiB;
  }
  state.SetBytesProcessed(state.iterations() * kMiB);
}
BENCHMARK(BM_PatternFillVerify)->Unit(benchmark::kMicrosecond);

// One SEE-striped 1 MiB window (16 x 64 KiB stripe chunks over 4 targets,
// each target's chunks contiguous) written and read back through
// TransferChunks from an aligned buffer, O_DIRECT where the temp
// filesystem takes it: the data plane under every migration chunk copy
// and populate/verify window. Counter `syscalls` is per window pass.
void BM_FileBackendWindow(benchmark::State& state) {
  constexpr int kTargets = 4;
  constexpr int64_t kStripe = 64 * kKiB;
  const ScratchDir dir("window");
  FileBackendOptions options;
  options.dir = dir.path();
  options.capacity_bytes.assign(kTargets, 16 * kMiB);
  options.quiet = true;
  auto backend = FileBackend::Open(options);
  if (!backend.ok()) {
    state.SkipWithError(backend.status().ToString().c_str());
    return;
  }
  AlignedBuffer buf;
  if (const Status s = buf.Reserve(kMiB, options.logical_block_bytes);
      !s.ok()) {
    state.SkipWithError(s.ToString().c_str());
    return;
  }
  FillPattern(/*object=*/1, 0, kMiB, buf.data());
  const int64_t per_target = kMiB / kTargets;
  const int64_t slots = options.capacity_bytes[0] / per_target;
  std::vector<TargetChunk> window;
  int64_t slot = 0;
  for (auto _ : state) {
    const int64_t base = (slot++ % slots) * per_target;
    window.clear();
    for (int k = 0; k < kMiB / kStripe; ++k) {
      window.push_back(TargetChunk{k % kTargets,
                                   base + (k / kTargets) * kStripe, kStripe,
                                   0});
    }
    Status s = (*backend)->TransferChunks(window, /*is_write=*/true,
                                          buf.data());
    if (s.ok()) {
      s = (*backend)->TransferChunks(window, /*is_write=*/false, buf.data());
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 2 * kMiB);
  state.counters["direct"] = (*backend)->geometry().direct_io ? 1 : 0;
  state.counters["syscalls"] = benchmark::Counter(
      static_cast<double>((*backend)->counters().syscalls),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FileBackendWindow)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ldb

// Custom main: translate the repo-wide --json[=path] flag onto
// google-benchmark's reporter options, pass everything else through.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 2);
  for (int a = 0; a < argc; ++a) {
    if (std::strcmp(argv[a], "--json") == 0) {
      storage.emplace_back("--benchmark_format=json");
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      storage.emplace_back(std::string("--benchmark_out=") + (argv[a] + 7));
      storage.emplace_back("--benchmark_out_format=json");
    } else {
      storage.emplace_back(argv[a]);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
