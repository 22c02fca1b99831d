// Allocation guard for the simulated request path. This binary replaces
// the global operator new with a counting one, then checks that a closed-
// loop ExperimentRig::Execute and an open-loop ScenarioPlayer replay
// allocate independently of how many requests they simulate: a longer run
// may allocate less than one more time per 1,000 extra requests. Fixed
// per-run costs (building the system, growing slabs to the peak number of
// requests in flight) are allowed; per-request costs are not.
//
// Skipped where a sanitizer interposes the allocator.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/harness.h"
#include "model/layout.h"
#include "scenario/scenario.h"
#include "scenario/sim.h"
#include "storage/fault.h"
#include "workload/catalog.h"
#include "workload/spec.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LDB_ALLOCATOR_INTERPOSED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LDB_ALLOCATOR_INTERPOSED 1
#endif
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#ifndef LDB_ALLOCATOR_INTERPOSED
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ldb {
namespace {

struct Counted {
  uint64_t allocations = 0;
  uint64_t requests = 0;
};

/// Requires the longer run to allocate < 1 more time per 1,000 extra
/// requests than the shorter one.
void ExpectAllocationFree(const Counted& shorter, const Counted& longer) {
  ASSERT_GT(longer.requests, shorter.requests + 20000);
  const uint64_t extra_requests = longer.requests - shorter.requests;
  const uint64_t extra_allocations =
      longer.allocations > shorter.allocations
          ? longer.allocations - shorter.allocations
          : 0;
  EXPECT_LT(extra_allocations * 1000, extra_requests)
      << "short run: " << shorter.allocations << " allocations for "
      << shorter.requests << " requests; long run: " << longer.allocations
      << " for " << longer.requests;
}

TEST(AllocationTest, ExecuteAllocatesIndependentlyOfRequestCount) {
#ifdef LDB_ALLOCATOR_INTERPOSED
  GTEST_SKIP() << "a sanitizer interposes the allocator";
#endif
  constexpr double kScale = 0.02;
  auto rig = ExperimentRig::Create(
      Catalog::Merge(Catalog::TpcH(kScale), Catalog::TpcC(kScale), "", "C_"),
      {{"d0"}, {"d1"}, {"r2", 2}}, kScale, 5);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  auto oltp = MakeOltpSpec(rig->catalog(), "C_", 9);
  ASSERT_TRUE(oltp.ok());
  const Layout see = Layout::StripeEverythingEverywhere(
      rig->catalog().num_objects(), rig->num_targets());

  auto run = [&](double seconds) {
    const uint64_t before = g_allocations.load();
    auto result = rig->Execute(see, nullptr, &*oltp, seconds);
    const uint64_t after = g_allocations.load();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Counted{after - before, result.ok() ? result->total_requests : 0};
  };
  run(60.0);  // warm-up: lazily built statics, first-touch growth
  const Counted shorter = run(60.0);  // the second, identical Execute
  const Counted longer = run(240.0);
  ExpectAllocationFree(shorter, longer);
}

TEST(AllocationTest, ScenarioReplayAllocatesIndependentlyOfRequestCount) {
#ifdef LDB_ALLOCATOR_INTERPOSED
  GTEST_SKIP() << "a sanitizer interposes the allocator";
#endif
  constexpr int kObjects = 6;
  Catalog catalog;
  for (int i = 0; i < kObjects; ++i) {
    catalog.Add({"obj" + std::to_string(i), ObjectKind::kTable,
                 int64_t{24} * 1024 * 1024});
  }
  auto rig = ExperimentRig::Create(std::move(catalog),
                                   {{"d0"}, {"d1"}, {"d2"}}, 1.0, 3);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  const Layout see = Layout::StripeEverythingEverywhere(kObjects, 3);

  auto run = [&](int duration_s) {
    auto spec = ParseScenarioSpec(
        "duration=" + std::to_string(duration_s) +
        ";seed=11;"
        "tenant=front,objects=0:3,rate=150,bytes=8192,write=0.2;"
        "tenant=back,objects=3:6,rate=60,runs=4");
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto segments = BuildTimeline(*spec, kObjects);
    auto problem = rig->MakeProblem(segments.front().workloads);
    EXPECT_TRUE(problem.ok()) << problem.status().ToString();
    auto system = rig->MakeSystem();
    uint64_t observed = 0;
    const uint64_t before = g_allocations.load();
    auto out = PlayScenarioStatic(
        system.get(), *problem, see, *spec, FaultPlan{}, {},
        [&observed](const IoEvent&) { ++observed; });
    const uint64_t after = g_allocations.load();
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(observed, out.ok() ? out->play.requests : 0);
    return Counted{after - before, out.ok() ? out->run.total_requests : 0};
  };
  run(20);
  const Counted shorter = run(20);  // the second, identical replay
  const Counted longer = run(120);
  ExpectAllocationFree(shorter, longer);
}

}  // namespace
}  // namespace ldb
