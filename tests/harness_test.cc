#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/harness.h"
#include "storage/lvm.h"
#include "trace/analyzer.h"
#include "trace/trace.h"
#include "trace_fit_oracle.h"
#include "workload/catalog.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {
namespace {

constexpr double kScale = 0.02;

const ExperimentRig& SmallRig() {
  static const ExperimentRig* rig = [] {
    auto r = ExperimentRig::Create(Catalog::TpcH(kScale),
                                   {{"d0"}, {"d1"}}, kScale, 3);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();
  return *rig;
}

TEST(HarnessTest, CreateValidatesInputs) {
  EXPECT_FALSE(ExperimentRig::Create(Catalog::TpcH(0.02), {}, 0.02).ok());
  EXPECT_FALSE(
      ExperimentRig::Create(Catalog::TpcH(0.02), {{"d0"}}, -1.0).ok());
  EXPECT_FALSE(
      ExperimentRig::Create(Catalog::TpcH(0.02), {{""}}, 0.02).ok());
  RigTargetDef bad{"x", 0};
  EXPECT_FALSE(
      ExperimentRig::Create(Catalog::TpcH(0.02), {bad}, 0.02).ok());
}

TEST(HarnessTest, AdvisorTargetsMatchSimulatedSystem) {
  const ExperimentRig& rig = SmallRig();
  auto targets = rig.AdvisorTargets();
  auto system = rig.MakeSystem();
  ASSERT_EQ(targets.size(), 2u);
  ASSERT_EQ(system->num_targets(), 2);
  for (int j = 0; j < 2; ++j) {
    EXPECT_EQ(targets[static_cast<size_t>(j)].capacity_bytes,
              system->target(j).capacity_bytes());
    EXPECT_NE(targets[static_cast<size_t>(j)].cost_model, nullptr);
  }
}

TEST(HarnessTest, ExecuteRequiresRegularLayout) {
  const ExperimentRig& rig = SmallRig();
  auto olap = MakeOlapSpec(rig.catalog(), 1, 1, 3);
  ASSERT_TRUE(olap.ok());
  Layout bad(rig.catalog().num_objects(), 2);
  for (int i = 0; i < rig.catalog().num_objects(); ++i) {
    bad.Set(i, 0, 0.3);
    bad.Set(i, 1, 0.7);
  }
  EXPECT_FALSE(rig.Execute(bad, &*olap, nullptr).ok());
}

// Every entry point dispatches through WorkloadRunner::Run, which refuses a
// run with neither an OLAP nor an OLTP workload.
TEST(HarnessTest, ExecuteRequiresSomeWorkload) {
  const ExperimentRig& rig = SmallRig();
  const int n = rig.catalog().num_objects();
  const Layout see = Layout::StripeEverythingEverywhere(n, 2);
  WorkloadSet reference(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = reference[static_cast<size_t>(i)];
    w.read_rate = 1.0;
    w.read_size = 8 * 1024;
    w.run_count = 1.0;
    w.overlap_index = {i};
    w.overlap_value = {0.0};
  }
  const auto code = [](const Status& s) { return s.code(); };
  EXPECT_EQ(code(rig.Execute(see, nullptr, nullptr).status()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(rig.ExecuteWithFaults(see, nullptr, nullptr, FaultPlan{},
                                       10.0)
                     .status()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(rig.FitWorkloads(see, nullptr, nullptr, 10.0).status()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(rig.ExecuteWithMigration(see, see, nullptr, nullptr,
                                          FaultPlan{}, MigrateOptions{}, 10.0)
                     .status()),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(rig.ExecuteWithAutopilot(see, reference, nullptr, nullptr,
                                          FaultPlan{}, AutopilotOptions{},
                                          10.0)
                     .status()),
            StatusCode::kInvalidArgument);
}

TEST(HarnessTest, ExecutionIsDeterministicAcrossFreshSystems) {
  const ExperimentRig& rig = SmallRig();
  auto olap = MakeOlapSpec(rig.catalog(), 1, 1, 3);
  ASSERT_TRUE(olap.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), 2);
  auto a = rig.Execute(see, &*olap, nullptr);
  auto b = rig.Execute(see, &*olap, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->elapsed_seconds, b->elapsed_seconds);
  EXPECT_EQ(a->total_requests, b->total_requests);
}

TEST(HarnessTest, FitWorkloadsProducesProblemReadyOutput) {
  const ExperimentRig& rig = SmallRig();
  auto olap = MakeOlapSpec(rig.catalog(), 1, 1, 3);
  ASSERT_TRUE(olap.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig.catalog().num_objects(), 2);
  auto ws = rig.FitWorkloads(see, &*olap, nullptr);
  ASSERT_TRUE(ws.ok());
  auto problem = rig.MakeProblem(std::move(ws).value());
  ASSERT_TRUE(problem.ok());
  EXPECT_TRUE(problem->Validate().ok());
  EXPECT_EQ(problem->num_targets(), 2);
}

// FitWorkloads fits the logical completions as they happen. The
// differential check runs the same simulation with a stored trace and
// requires Analyze of that trace (and the batch oracle) to equal the
// streamed fit bit for bit, on OLAP-only, OLTP-only and mixed runs.
enum class FitSpec { kOlap, kOltp, kMixed };
const char* const kFitSpecNames[] = {"Olap", "Oltp", "Mixed"};

// ctest lists parameterized cases with the printed parameter; print the
// spec's name rather than gtest's byte dump.
void PrintTo(FitSpec spec, std::ostream* os) {
  *os << kFitSpecNames[static_cast<int>(spec)];
}

constexpr double kOltpFitSeconds = 20.0;

const ExperimentRig& ConsolidationRig(uint64_t seed) {
  static std::map<uint64_t, std::unique_ptr<ExperimentRig>> rigs;
  auto& rig = rigs[seed];
  if (rig == nullptr) {
    auto r = ExperimentRig::Create(
        Catalog::Merge(Catalog::TpcH(kScale), Catalog::TpcC(kScale), "",
                       "C_"),
        {{"d0"}, {"d1"}, {"r2", 2}}, kScale, seed);
    LDB_CHECK(r.ok());
    rig = std::make_unique<ExperimentRig>(std::move(r).value());
  }
  return *rig;
}

/// The run FitWorkloads makes (same system, volumes and runner seed),
/// keeping the object-level trace instead of fitting it.
IoTrace CollectFitTrace(const ExperimentRig& rig, uint64_t seed,
                        const Layout& layout, const OlapSpec* olap,
                        const OltpSpec* oltp) {
  auto system = rig.MakeSystem();
  std::vector<std::vector<int>> placements;
  for (int i = 0; i < rig.catalog().num_objects(); ++i) {
    placements.push_back(layout.TargetsOf(i));
  }
  auto volumes =
      StripedVolumeManager::Create(rig.catalog().sizes(), std::move(placements),
                                   system->capacities(), 64 * kKiB);
  LDB_CHECK(volumes.ok());
  IoTrace trace;
  WorkloadRunner runner(system.get(), &*volumes, seed);
  runner.set_logical_observer([&trace](const IoEvent& ev) { trace.Add(ev); });
  Result<RunResult> run = Status::Internal("unset");
  if (olap != nullptr && oltp != nullptr) {
    run = runner.RunMixed(*olap, *oltp);
  } else if (olap != nullptr) {
    run = runner.RunOlap(*olap);
  } else {
    run = runner.RunOltp(*oltp, kOltpFitSeconds);
  }
  LDB_CHECK(run.ok());
  return trace;
}

class FitDifferential
    : public ::testing::TestWithParam<std::tuple<FitSpec, uint64_t>> {};

TEST_P(FitDifferential, StreamedFitEqualsAnalyzeOfTheSameRun) {
  const auto [kind, seed] = GetParam();
  const ExperimentRig& rig = ConsolidationRig(seed);
  const int n = rig.catalog().num_objects();
  auto olap = MakeOlapSpec(rig.catalog(), 1, 2, seed);
  ASSERT_TRUE(olap.ok());
  auto oltp = MakeOltpSpec(rig.catalog(), "C_", 4, /*warmup_s=*/1.0);
  ASSERT_TRUE(oltp.ok());
  const OlapSpec* o = kind == FitSpec::kOltp ? nullptr : &*olap;
  const OltpSpec* t = kind == FitSpec::kOlap ? nullptr : &*oltp;
  const Layout see =
      Layout::StripeEverythingEverywhere(n, rig.num_targets());

  auto streamed = rig.FitWorkloads(see, o, t, kOltpFitSeconds);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  const IoTrace trace = CollectFitTrace(rig, seed, see, o, t);
  ASSERT_GT(trace.size(), 1000u);
  auto analyzed = TraceAnalyzer().Analyze(trace, n);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ExpectSameWorkloads(*streamed, *analyzed);
  ExpectSameWorkloads(*analyzed, OracleFit(trace, n));
}

std::string FitName(
    const ::testing::TestParamInfo<std::tuple<FitSpec, uint64_t>>& info) {
  const int kind = static_cast<int>(std::get<0>(info.param));
  return std::string(kFitSpecNames[kind]) + "Seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, FitDifferential,
    ::testing::Combine(::testing::Values(FitSpec::kOlap, FitSpec::kOltp,
                                         FitSpec::kMixed),
                       ::testing::Values(uint64_t{3}, uint64_t{17})),
    FitName);

// ---- The traced run doubles as the execution of its inputs ----

ExperimentRig FreshConsolidationRig() {
  auto r = ExperimentRig::Create(
      Catalog::Merge(Catalog::TpcH(kScale), Catalog::TpcC(kScale), "", "C_"),
      {{"d0"}, {"d1"}, {"r2", 2}}, kScale, 3);
  LDB_CHECK(r.ok());
  return std::move(r).value();
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Every RunResult field, doubles compared by their bits.
void ExpectSameRunBitForBit(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(Bits(a.elapsed_seconds), Bits(b.elapsed_seconds));
  EXPECT_EQ(a.olap_queries_completed, b.olap_queries_completed);
  EXPECT_EQ(a.oltp_transactions, b.oltp_transactions);
  EXPECT_EQ(Bits(a.tpm), Bits(b.tpm));
  EXPECT_EQ(a.total_requests, b.total_requests);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (size_t j = 0; j < a.utilization.size(); ++j) {
    EXPECT_EQ(Bits(a.utilization[j]), Bits(b.utilization[j]))
        << "target " << j;
  }
  EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
  EXPECT_EQ(a.faults.transient_errors, b.faults.transient_errors);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.failed_requests, b.faults.failed_requests);
  EXPECT_EQ(a.faults.degraded_reads, b.faults.degraded_reads);
  EXPECT_EQ(a.faults.rebuild_bytes, b.faults.rebuild_bytes);
  EXPECT_EQ(Bits(a.faults.degraded_time), Bits(b.faults.degraded_time));
  EXPECT_EQ(a.skipped_faults, b.skipped_faults);
}

// Rig A traces and then executes the same inputs; rig B, built the same
// way, only executes. A's Execute must simulate nothing and still equal
// B's simulated run bit for bit, on mixed, OLAP-only and OLTP-only runs.
// The mixed case traces with a 60 s duration and executes with none, as
// the figure benches do: with an OLAP workload the runner ignores it.
TEST(HarnessTest, TracedRunIsReusedBitForBit) {
  const ExperimentRig a = FreshConsolidationRig();
  const ExperimentRig b = FreshConsolidationRig();
  const int n = a.catalog().num_objects();
  auto olap = MakeOlapSpec(a.catalog(), 1, 2, 3);
  ASSERT_TRUE(olap.ok());
  auto oltp = MakeOltpSpec(a.catalog(), "C_", 4, /*warmup_s=*/1.0);
  ASSERT_TRUE(oltp.ok());
  const Layout see = Layout::StripeEverythingEverywhere(n, a.num_targets());

  struct Case {
    const char* name;
    const OlapSpec* olap;
    const OltpSpec* oltp;
    double trace_duration_s;
    double duration_s;
  };
  for (const Case& c :
       {Case{"mixed", &*olap, &*oltp, 60.0, 0.0},
        Case{"olap", &*olap, nullptr, 0.0, 0.0},
        Case{"oltp", nullptr, &*oltp, kOltpFitSeconds, kOltpFitSeconds}}) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(a.FitWorkloads(see, c.olap, c.oltp, c.trace_duration_s).ok());
    const uint64_t before = RigSimulatedRuns();
    auto reused = a.Execute(see, c.olap, c.oltp, c.duration_s);
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(RigSimulatedRuns(), before);
    auto simulated = b.Execute(see, c.olap, c.oltp, c.duration_s);
    ASSERT_TRUE(simulated.ok());
    EXPECT_EQ(RigSimulatedRuns(), before + 1);
    EXPECT_GT(simulated->total_requests, 1000u);
    ExpectSameRunBitForBit(*reused, *simulated);
  }
}

// Any input that differs from the traced run's, a fault run, and the
// inputs of a replaced trace all simulate.
TEST(HarnessTest, TracedRunIsNotReusedForOtherInputs) {
  const ExperimentRig rig = FreshConsolidationRig();
  const int n = rig.catalog().num_objects();
  auto olap = MakeOlapSpec(rig.catalog(), 1, 2, 3);
  ASSERT_TRUE(olap.ok());
  auto oltp = MakeOltpSpec(rig.catalog(), "C_", 4, /*warmup_s=*/1.0);
  ASSERT_TRUE(oltp.ok());
  const Layout see = Layout::StripeEverythingEverywhere(n, rig.num_targets());
  Layout two_disks(n, rig.num_targets());
  for (int i = 0; i < n; ++i) two_disks.SetRowRegular(i, {0, 1});
  OlapSpec olap_edited = *olap;
  olap_edited.queries.back().steps.back().streams.back().request_bytes *= 2;
  OltpSpec oltp_edited = *oltp;
  oltp_edited.warmup_s = 2.0;

  ASSERT_TRUE(rig.FitWorkloads(see, &*olap, &*oltp).ok());
  auto traced = rig.Execute(see, &*olap, &*oltp);
  ASSERT_TRUE(traced.ok());

  const auto simulates = [](const Result<RunResult>& run, uint64_t before) {
    return run.ok() && RigSimulatedRuns() == before + 1;
  };
  uint64_t before = RigSimulatedRuns();
  EXPECT_TRUE(simulates(rig.Execute(two_disks, &*olap, &*oltp), before))
      << "another layout";
  before = RigSimulatedRuns();
  EXPECT_TRUE(simulates(rig.Execute(see, &olap_edited, &*oltp), before))
      << "an OLAP stream's request size";
  before = RigSimulatedRuns();
  EXPECT_TRUE(simulates(rig.Execute(see, &*olap, &oltp_edited), before))
      << "the OLTP warmup";
  before = RigSimulatedRuns();
  EXPECT_TRUE(simulates(rig.Execute(see, &*olap, nullptr), before))
      << "OLAP-only after a mixed trace";
  before = RigSimulatedRuns();
  auto faulted = rig.ExecuteWithFaults(see, &*olap, &*oltp, FaultPlan{});
  EXPECT_TRUE(simulates(faulted, before)) << "an empty fault plan";
  ASSERT_TRUE(faulted.ok());
  ExpectSameRunBitForBit(*faulted, *traced);

  // A second trace replaces the entry: its own inputs are reused, another
  // duration of an OLTP-only run and the first trace's inputs simulate.
  ASSERT_TRUE(rig.FitWorkloads(see, nullptr, &*oltp, kOltpFitSeconds).ok());
  before = RigSimulatedRuns();
  ASSERT_TRUE(rig.Execute(see, nullptr, &*oltp, kOltpFitSeconds).ok());
  EXPECT_EQ(RigSimulatedRuns(), before) << "the replacing trace's inputs";
  EXPECT_TRUE(simulates(rig.Execute(see, nullptr, &*oltp, 10.0), before))
      << "another duration";
  before = RigSimulatedRuns();
  EXPECT_TRUE(simulates(rig.Execute(see, &*olap, &*oltp), before))
      << "the replaced trace's inputs";
}

// The rig's const methods may run on several threads: executions that
// read the entry race a trace that replaces it, and every run still equals
// its single-threaded result.
TEST(HarnessTest, TracedRunIsSafeAcrossThreads) {
  const ExperimentRig rig = FreshConsolidationRig();
  const int n = rig.catalog().num_objects();
  auto olap = MakeOlapSpec(rig.catalog(), 1, 2, 3);
  ASSERT_TRUE(olap.ok());
  auto oltp = MakeOltpSpec(rig.catalog(), "C_", 4, /*warmup_s=*/1.0);
  ASSERT_TRUE(oltp.ok());
  const Layout see = Layout::StripeEverythingEverywhere(n, rig.num_targets());
  auto mixed = rig.Execute(see, &*olap, &*oltp);
  auto olap_only = rig.Execute(see, &*olap, nullptr);
  ASSERT_TRUE(mixed.ok());
  ASSERT_TRUE(olap_only.ok());
  ASSERT_TRUE(rig.FitWorkloads(see, &*olap, &*oltp).ok());

  std::vector<Result<RunResult>> runs(3, Status::Internal("unset"));
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] { runs[0] = rig.Execute(see, &*olap, &*oltp); });
    threads.emplace_back([&] { runs[1] = rig.Execute(see, &*olap, &*oltp); });
    threads.emplace_back([&] { runs[2] = rig.Execute(see, &*olap, nullptr); });
    threads.emplace_back([&] {
      EXPECT_TRUE(rig.FitWorkloads(see, &*olap, nullptr).ok());
    });
    for (std::thread& t : threads) t.join();
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(runs[static_cast<size_t>(i)].ok());
  ExpectSameRunBitForBit(*runs[0], *mixed);
  ExpectSameRunBitForBit(*runs[1], *mixed);
  ExpectSameRunBitForBit(*runs[2], *olap_only);
}

TEST(HarnessTest, ScaledDeviceCapacityTracksScale) {
  auto small = ExperimentRig::Create(Catalog::TpcH(0.02), {{"d"}}, 0.02, 3);
  auto large = ExperimentRig::Create(Catalog::TpcH(0.04), {{"d"}}, 0.04, 3);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  const int64_t cap_small = small->AdvisorTargets()[0].capacity_bytes;
  const int64_t cap_large = large->AdvisorTargets()[0].capacity_bytes;
  EXPECT_NEAR(static_cast<double>(cap_large),
              2.0 * static_cast<double>(cap_small),
              static_cast<double>(cap_small) * 0.01);
}

TEST(HarnessTest, WarmCalibrationCacheSkipsAllMeasurement) {
  // The cache directory, removed with its files when the case ends.
  struct CacheDir {
    std::string path = [] {
      std::string dir = ::testing::TempDir();
      if (!dir.empty() && dir.back() != '/') dir += '/';
      return dir + "ldb-harness-calib-cache-" + std::to_string(getpid());
    }();
    ~CacheDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;

  CalibrationOptions calibration;
  calibration.cache_dir = dir.path;

  auto cold = ExperimentRig::Create(Catalog::TpcH(kScale),
                                    {{"d0"}, {"d1"}}, kScale, 3, calibration);
  ASSERT_TRUE(cold.ok());

  // A second rig over the same devices and options must be served entirely
  // from the cache: zero grid-point measurements.
  const uint64_t before = CalibrationMeasurePoints();
  auto warm = ExperimentRig::Create(Catalog::TpcH(kScale),
                                    {{"d0"}, {"d1"}}, kScale, 3, calibration);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(CalibrationMeasurePoints(), before);

  // A different rig seed changes calibration.seed, so the cache entry is
  // stale and measurement resumes.
  auto other_seed = ExperimentRig::Create(Catalog::TpcH(kScale),
                                          {{"d0"}, {"d1"}}, kScale, 4,
                                          calibration);
  ASSERT_TRUE(other_seed.ok());
  EXPECT_GT(CalibrationMeasurePoints(), before);
}

TEST(HarnessTest, SsdTargetUsesSsdCostModel) {
  std::vector<RigTargetDef> defs{{"d0"}};
  defs.push_back(RigTargetDef{"ssd", 1, true, 8 * kGiB});
  auto rig = ExperimentRig::Create(Catalog::TpcH(kScale), defs, kScale, 3);
  ASSERT_TRUE(rig.ok());
  auto targets = rig->AdvisorTargets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].cost_model->device_model(), "disk-15k");
  EXPECT_EQ(targets[1].cost_model->device_model(), "ssd");
  // SSD random reads are much cheaper.
  EXPECT_LT(targets[1].cost_model->ReadCost(8 * kKiB, 1, 0),
            0.2 * targets[0].cost_model->ReadCost(8 * kKiB, 1, 0));
}

}  // namespace
}  // namespace ldb
