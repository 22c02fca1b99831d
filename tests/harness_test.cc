#include <unistd.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
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
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += "ldb-harness-calib-cache-" + std::to_string(getpid());

  CalibrationOptions calibration;
  calibration.cache_dir = dir;

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
