// Deterministic fault injection: plan parsing, the degraded RAID paths,
// bounded retry semantics, rebuild, and — the load-bearing property — that
// a seeded fault schedule replays bit-identically across repeated runs and
// host thread counts.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/harness.h"
#include "storage/disk.h"
#include "storage/fault.h"
#include "storage/storage_system.h"
#include "util/units.h"
#include "workload/catalog.h"
#include "workload/spec.h"

namespace ldb {
namespace {

// ------------------------------------------------------------ plan parsing

TEST(FaultPlanTest, ParsesClausesAndPlanKeys) {
  auto plan = ParseFaultPlan(
      "seed=9,retries=5,backoff=0.01;"
      "t=1.5,target=0,member=1,kind=limp,scale=3;"
      "t=2,target=1,kind=transient,p=0.25,duration=4;"
      "t=3,target=1,kind=fail;"
      "t=8,target=1,kind=rebuild,chunk=1048576");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_EQ(plan->max_retries, 5);
  EXPECT_DOUBLE_EQ(plan->retry_backoff_s, 0.01);
  ASSERT_EQ(plan->faults.size(), 4u);
  EXPECT_EQ(plan->faults[0].kind, FaultKind::kLimp);
  EXPECT_DOUBLE_EQ(plan->faults[0].latency_scale, 3.0);
  EXPECT_EQ(plan->faults[0].member, 1);
  EXPECT_EQ(plan->faults[1].kind, FaultKind::kTransient);
  EXPECT_DOUBLE_EQ(plan->faults[1].error_prob, 0.25);
  EXPECT_DOUBLE_EQ(plan->faults[1].duration, 4.0);
  EXPECT_EQ(plan->faults[2].kind, FaultKind::kFailStop);
  EXPECT_EQ(plan->faults[3].kind, FaultKind::kRebuild);
  EXPECT_EQ(plan->faults[3].rebuild_chunk_bytes, 1048576);
}

TEST(FaultPlanTest, RoundTripsThroughString) {
  auto plan = ParseFaultPlan("seed=3;t=1,target=0,kind=fail;"
                             "t=2,target=0,member=1,kind=limp,scale=2.5");
  ASSERT_TRUE(plan.ok());
  auto again = ParseFaultPlan(FaultPlanToString(*plan));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->seed, plan->seed);
  ASSERT_EQ(again->faults.size(), plan->faults.size());
  for (size_t i = 0; i < plan->faults.size(); ++i) {
    EXPECT_EQ(again->faults[i].kind, plan->faults[i].kind);
    EXPECT_DOUBLE_EQ(again->faults[i].time, plan->faults[i].time);
    EXPECT_EQ(again->faults[i].target, plan->faults[i].target);
    EXPECT_EQ(again->faults[i].member, plan->faults[i].member);
  }
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,kind=meteor").ok());
  EXPECT_FALSE(ParseFaultPlan("t=abc,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("bogus=1").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,kind").ok());
  // NaN, hex, a leading '+' and trailing text are not numbers.
  EXPECT_FALSE(ParseFaultPlan("t=nan,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,kind=limp,scale=nan").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,kind=transient,p=nan").ok());
  EXPECT_FALSE(
      ParseFaultPlan("t=1,target=0,kind=limp,scale=2,duration=nan").ok());
  EXPECT_FALSE(ParseFaultPlan("backoff=nan;t=1,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=0x10,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=+1,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1s,target=0,kind=fail").ok());
  // Number errors carry the clause index like every other error.
  auto r = ParseFaultPlan("t=1,target=0,kind=fail;t=nan,target=0,kind=fail");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("fault spec clause 2: bad number"),
            std::string::npos)
      << r.status().message();
}

TEST(FaultPlanTest, ErrorsNameTheOffendingClause) {
  // Second clause is bad; the error must say "clause 2", not just fail.
  auto r = ParseFaultPlan(
      "t=1,target=0,kind=fail;t=2,target=0,kind=meteor");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("clause 2"), std::string::npos)
      << r.status().message();

  auto bad_key = ParseFaultPlan("t=1,target=0,kind=fail;zork=3,kind=fail");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("clause 2"), std::string::npos)
      << bad_key.status().message();
}

TEST(FaultPlanTest, RejectsOutOfRangeFieldValues) {
  EXPECT_FALSE(ParseFaultPlan("t=-1,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=-2,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,member=-1,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,kind=limp,scale=0").ok());
  EXPECT_FALSE(ParseFaultPlan("t=1,target=0,kind=transient,p=1.5").ok());
  EXPECT_FALSE(
      ParseFaultPlan("t=1,target=0,kind=transient,p=0.1,duration=-3").ok());
  EXPECT_FALSE(ParseFaultPlan("retries=-1;t=1,target=0,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("backoff=-0.5;t=1,target=0,kind=fail").ok());
  // Values that do not fit their field are rejected, not truncated
  // (4294967296 would become target 0) or wrapped (seed=-1).
  EXPECT_FALSE(ParseFaultPlan("t=1,target=4294967296,kind=fail").ok());
  EXPECT_FALSE(ParseFaultPlan("retries=4294967297;t=1,target=0").ok());
  EXPECT_FALSE(ParseFaultPlan("seed=-1;t=1,target=0,kind=fail").ok());
  EXPECT_FALSE(
      ParseFaultPlan("t=1,target=0,kind=rebuild,chunk=99999999999999999999")
          .ok());
  // The in-range versions of the same clauses parse fine.
  EXPECT_TRUE(ParseFaultPlan("t=1,target=0,kind=limp,scale=2").ok());
  EXPECT_TRUE(ParseFaultPlan("t=1,target=0,kind=transient,p=0.5").ok());
}

// ------------------------------------------------------------ injection

std::unique_ptr<StorageSystem> MakeSystem(int members, RaidLevel level) {
  static const DiskModel* disk = new DiskModel(Scsi15kParams());
  return std::make_unique<StorageSystem>(std::vector<TargetSpec>{
      {"t0", disk, members, 64 * kKiB, 0.060, level}});
}

TEST(FaultInjectorTest, ArmValidatesThePlan) {
  auto sys = MakeSystem(2, RaidLevel::kRaid1);
  {
    FaultPlan plan;
    plan.faults.push_back({1.0, 5, 0, FaultKind::kFailStop});
    EXPECT_FALSE(FaultInjector(sys.get(), plan).Arm().ok());
  }
  {
    FaultPlan plan;
    plan.faults.push_back({1.0, 0, 7, FaultKind::kFailStop});
    EXPECT_FALSE(FaultInjector(sys.get(), plan).Arm().ok());
  }
  {
    FaultPlan plan;
    plan.faults.push_back({1.0, 0, 0, FaultKind::kLimp, -2.0});
    EXPECT_FALSE(FaultInjector(sys.get(), plan).Arm().ok());
  }
  {
    FaultPlan plan;
    plan.faults.push_back({std::nan(""), 0, 0, FaultKind::kFailStop});
    EXPECT_FALSE(FaultInjector(sys.get(), plan).Arm().ok());
  }
  auto raid0 = MakeSystem(2, RaidLevel::kRaid0);
  {
    FaultPlan plan;
    plan.faults.push_back({1.0, 0, 0, FaultKind::kRebuild});
    EXPECT_FALSE(FaultInjector(raid0.get(), plan).Arm().ok());
  }
}

TEST(FaultInjectorTest, Raid1ServesDegradedReadsAfterFailStop) {
  auto sys = MakeSystem(2, RaidLevel::kRaid1);
  FaultPlan plan;
  plan.faults.push_back({0.0, 0, 0, FaultKind::kFailStop});
  FaultInjector injector(sys.get(), plan);
  ASSERT_TRUE(injector.Arm().ok());
  sys->queue().RunUntilIdle();  // deliver the t=0 fail-stop

  int ok_reads = 0, ok_writes = 0;
  for (int i = 0; i < 4; ++i) {
    sys->SubmitWithStatus(0, {i * kMiB, 8 * kKiB, false, 0},
                [&](double, const Status& s) { ok_reads += s.ok(); });
    sys->SubmitWithStatus(0, {i * kMiB, 8 * kKiB, true, 0},
                [&](double, const Status& s) { ok_writes += s.ok(); });
  }
  sys->queue().RunUntilIdle();
  EXPECT_EQ(ok_reads, 4);
  EXPECT_EQ(ok_writes, 4);
  EXPECT_EQ(injector.faults_applied(), 1u);
  const FaultStats stats = sys->TotalFaultStats();
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(stats.degraded_reads, 4u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_GT(stats.degraded_time, 0.0);
  EXPECT_TRUE(sys->target(0).degraded());
}

TEST(FaultInjectorTest, Raid5ReconstructsAndRaid0Fails) {
  auto raid5 = MakeSystem(4, RaidLevel::kRaid5);
  raid5->target(0).FailMember(1);
  int raid5_ok = 0;
  raid5->target(0).SubmitWithStatus({0, 256 * kKiB, false, 0},
                          [&](double, const Status& s) { raid5_ok += s.ok(); });
  raid5->target(0).SubmitWithStatus({0, 64 * kKiB, true, 0},
                          [&](double, const Status& s) { raid5_ok += s.ok(); });
  raid5->queue().RunUntilIdle();
  EXPECT_EQ(raid5_ok, 2);
  EXPECT_GE(raid5->TotalFaultStats().degraded_reads, 1u);

  auto raid0 = MakeSystem(2, RaidLevel::kRaid0);
  raid0->target(0).FailMember(0);
  Status raid0_status;
  raid0->target(0).SubmitWithStatus({0, 64 * kKiB, false, 0},
                          [&](double, const Status& s) { raid0_status = s; });
  raid0->queue().RunUntilIdle();
  EXPECT_EQ(raid0_status.code(), StatusCode::kIoError);
  EXPECT_EQ(raid0->TotalFaultStats().failed_requests, 1u);
}

TEST(FaultInjectorTest, TransientErrorsHonorTheRetryBound) {
  auto sys = MakeSystem(1, RaidLevel::kRaid0);
  sys->target(0).SetRetryPolicy(3, 0.001);
  sys->target(0).SetMemberErrorProbability(0, 1.0);  // every attempt fails
  Status last;
  sys->target(0).SubmitWithStatus({0, 8 * kKiB, false, 0},
                        [&](double, const Status& s) { last = s; });
  sys->queue().RunUntilIdle();
  // Initial attempt + exactly max_retries re-tries, then the error
  // surfaces on the request status.
  EXPECT_EQ(last.code(), StatusCode::kIoError);
  const FaultStats stats = sys->TotalFaultStats();
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.transient_errors, 4u);
  EXPECT_EQ(stats.failed_requests, 1u);
}

TEST(FaultInjectorTest, TransientErrorsBelowBoundAreMasked) {
  auto sys = MakeSystem(1, RaidLevel::kRaid0);
  sys->target(0).SetRetryPolicy(8, 0.001);
  sys->target(0).SetMemberErrorProbability(0, 0.5);
  int ok = 0, total = 0;
  for (int i = 0; i < 50; ++i) {
    ++total;
    sys->target(0).SubmitWithStatus({i * kMiB, 8 * kKiB, false, 0},
                          [&](double, const Status& s) { ok += s.ok(); });
  }
  sys->queue().RunUntilIdle();
  // With 8 retries at p=0.5 a surfaced failure needs 9 consecutive hits
  // (p ≈ 0.002 per request) — all 50 requests should be masked.
  EXPECT_EQ(ok, total);
  EXPECT_GT(sys->TotalFaultStats().retries, 0u);
  EXPECT_EQ(sys->TotalFaultStats().failed_requests, 0u);
}

TEST(FaultInjectorTest, RebuildRestoresHealthAndCountsBytes) {
  auto sys = MakeSystem(2, RaidLevel::kRaid1);
  FaultPlan plan;
  plan.faults.push_back({0.0, 0, 0, FaultKind::kFailStop});
  FaultSpec rebuild{0.1, 0, 0, FaultKind::kRebuild};
  rebuild.rebuild_chunk_bytes = 64 * kMiB;
  plan.faults.push_back(rebuild);
  FaultInjector injector(sys.get(), plan);
  ASSERT_TRUE(injector.Arm().ok());
  sys->queue().RunUntilIdle();
  EXPECT_EQ(injector.faults_applied(), 2u);
  EXPECT_EQ(sys->target(0).member_health(0), MemberHealth::kHealthy);
  EXPECT_FALSE(sys->target(0).degraded());
  const FaultStats stats = sys->TotalFaultStats();
  EXPECT_EQ(stats.rebuild_bytes, sys->target(0).capacity_bytes());
  EXPECT_GT(stats.degraded_time, 0.0);
}

TEST(FaultInjectorTest, SurvivorLossMidRebuildParksTheMember) {
  // fail m0; rebuild m0; fail m1 — a valid plan whose last survivor dies
  // mid-rebuild. The rebuild must park m0 as dead again (no source left),
  // not crash on a zero serving count.
  for (auto level : {RaidLevel::kRaid1, RaidLevel::kRaid5}) {
    auto sys = MakeSystem(level == RaidLevel::kRaid1 ? 2 : 4, level);
    FaultPlan plan;
    plan.faults.push_back({0.0, 0, 0, FaultKind::kFailStop});
    plan.faults.push_back({0.1, 0, 0, FaultKind::kRebuild});
    plan.faults.push_back({0.2, 0, 1, FaultKind::kFailStop});
    FaultInjector injector(sys.get(), plan);
    ASSERT_TRUE(injector.Arm().ok());
    sys->queue().RunUntilIdle();
    EXPECT_EQ(injector.faults_applied(), 3u);
    EXPECT_EQ(sys->target(0).member_health(0), MemberHealth::kDead);
    EXPECT_EQ(sys->target(0).member_health(1), MemberHealth::kDead);
    const FaultStats stats = sys->TotalFaultStats();
    EXPECT_GT(stats.rebuild_bytes, 0);
    EXPECT_LT(stats.rebuild_bytes, sys->target(0).capacity_bytes());
  }
}

TEST(FaultInjectorTest, InvalidAtFireTimeRebuildIsSkippedNotFatal) {
  // A rebuild with no preceding fail-stop passes Arm() (which cannot see
  // event ordering) but must be recorded as skipped at fire time, not
  // crash the process.
  auto sys = MakeSystem(2, RaidLevel::kRaid1);
  FaultPlan plan;
  plan.faults.push_back({1.0, 0, 0, FaultKind::kRebuild});
  FaultInjector injector(sys.get(), plan);
  ASSERT_TRUE(injector.Arm().ok());
  sys->queue().RunUntilIdle();
  EXPECT_EQ(injector.faults_applied(), 0u);
  ASSERT_EQ(injector.skipped().size(), 1u);
  EXPECT_NE(injector.skipped()[0].find("not dead"), std::string::npos);
  EXPECT_EQ(sys->target(0).member_health(0), MemberHealth::kHealthy);
  EXPECT_EQ(sys->TotalFaultStats().rebuild_bytes, 0);
}

TEST(FaultInjectorTest, DirectStartRebuildReportsPreconditions) {
  auto raid0 = MakeSystem(2, RaidLevel::kRaid0);
  EXPECT_EQ(raid0->target(0).StartRebuild(0).code(),
            StatusCode::kFailedPrecondition);
  auto raid1 = MakeSystem(2, RaidLevel::kRaid1);
  EXPECT_EQ(raid1->target(0).StartRebuild(0).code(),
            StatusCode::kFailedPrecondition);  // member 0 is not dead
  raid1->target(0).FailMember(0);
  raid1->target(0).FailMember(1);
  EXPECT_EQ(raid1->target(0).StartRebuild(0).code(),
            StatusCode::kFailedPrecondition);  // no survivor to read from
  raid1->target(0).RecoverMember(1);
  EXPECT_TRUE(raid1->target(0).StartRebuild(0).ok());
  raid1->queue().RunUntilIdle();
  EXPECT_EQ(raid1->target(0).member_health(0), MemberHealth::kHealthy);
}

// --------------------------------------------------------- determinism

struct RunSignature {
  double elapsed;
  uint64_t requests;
  FaultStats faults;
  std::vector<double> utilization;
};

RunSignature SignatureOf(const RunResult& r) {
  return {r.elapsed_seconds, r.total_requests, r.faults, r.utilization};
}

void ExpectIdentical(const RunSignature& a, const RunSignature& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);  // bitwise, not approximate
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.faults.faults_injected, b.faults.faults_injected);
  EXPECT_EQ(a.faults.transient_errors, b.faults.transient_errors);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.failed_requests, b.faults.failed_requests);
  EXPECT_EQ(a.faults.degraded_reads, b.faults.degraded_reads);
  EXPECT_EQ(a.faults.rebuild_bytes, b.faults.rebuild_bytes);
  EXPECT_EQ(a.faults.degraded_time, b.faults.degraded_time);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (size_t j = 0; j < a.utilization.size(); ++j) {
    EXPECT_EQ(a.utilization[j], b.utilization[j]);
  }
}

constexpr double kScale = 0.02;

FaultPlan MixedPlan() {
  auto plan = ParseFaultPlan(
      "seed=11;t=0.2,target=0,kind=transient,p=0.05;"
      "t=0.5,target=1,member=0,kind=limp,scale=2,duration=1.0");
  LDB_CHECK(plan.ok());
  return *plan;
}

TEST(FaultDeterminismTest, RepeatedRunsAreBitIdentical) {
  auto rig = ExperimentRig::Create(Catalog::TpcH(kScale), {{"d0"}, {"d1"}},
                                   kScale, 3);
  ASSERT_TRUE(rig.ok());
  auto olap = MakeOlapSpec(rig->catalog(), 1, 2, 3);
  ASSERT_TRUE(olap.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), rig->num_targets());
  auto a = rig->ExecuteWithFaults(see, &*olap, nullptr, MixedPlan());
  auto b = rig->ExecuteWithFaults(see, &*olap, nullptr, MixedPlan());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->faults.transient_errors, 0u);
  ExpectIdentical(SignatureOf(*a), SignatureOf(*b));
}

TEST(FaultDeterminismTest, IdenticalAcrossHostThreadCounts) {
  // The fault schedule lives on the (serial) event queue and draws from
  // per-target seeded streams, so calibration/solver parallelism must not
  // perturb it.
  std::vector<RunSignature> runs;
  for (int threads : {1, 2, 8}) {
    CalibrationOptions calibration;
    calibration.num_threads = threads;
    auto rig = ExperimentRig::Create(Catalog::TpcH(kScale),
                                     {{"d0"}, {"d1"}}, kScale, 3,
                                     calibration);
    ASSERT_TRUE(rig.ok());
    auto olap = MakeOlapSpec(rig->catalog(), 1, 2, 3);
    ASSERT_TRUE(olap.ok());
    const Layout see = Layout::StripeEverythingEverywhere(
        rig->catalog().num_objects(), rig->num_targets());
    auto run = rig->ExecuteWithFaults(see, &*olap, nullptr, MixedPlan());
    ASSERT_TRUE(run.ok());
    runs.push_back(SignatureOf(*run));
  }
  ExpectIdentical(runs[0], runs[1]);
  ExpectIdentical(runs[0], runs[2]);
}

TEST(FaultDeterminismTest, EmptyPlanMatchesPlainExecution) {
  auto rig = ExperimentRig::Create(Catalog::TpcH(kScale), {{"d0"}, {"d1"}},
                                   kScale, 3);
  ASSERT_TRUE(rig.ok());
  auto olap = MakeOlapSpec(rig->catalog(), 1, 2, 3);
  ASSERT_TRUE(olap.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), rig->num_targets());
  auto plain = rig->Execute(see, &*olap, nullptr);
  auto faulty = rig->ExecuteWithFaults(see, &*olap, nullptr, FaultPlan{});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(faulty.ok());
  RunSignature p = SignatureOf(*plain);
  p.faults = faulty->faults;  // plain runs carry all-zero fault stats too
  EXPECT_EQ(plain->faults.transient_errors, 0u);
  EXPECT_EQ(faulty->faults.transient_errors, 0u);
  ExpectIdentical(p, SignatureOf(*faulty));
}

}  // namespace
}  // namespace ldb
