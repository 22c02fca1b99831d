// Online migration executor: journaled chunk state machine, dual-location
// routing, throttle/backpressure, fault policy, and — the load-bearing
// properties — that interrupting at any chunk boundary and resuming from
// any journal prefix is equivalent to an uninterrupted migration, with
// every byte readable at every simulated instant along the way.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/migrate.h"
#include "core/replan.h"
#include "model/cost_model.h"
#include "model/workload.h"
#include "storage/disk.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/check.h"
#include "util/random.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

// Three independent single-disk targets; enough to stage pure-source,
// pure-destination, and shared roles.
std::unique_ptr<StorageSystem> MakeSystem3(const DiskModel& proto) {
  std::vector<TargetSpec> specs{
      {"d0", &proto, 1, 64 * kKiB},
      {"d1", &proto, 1, 64 * kKiB},
      {"d2", &proto, 1, 64 * kKiB},
  };
  return std::make_unique<StorageSystem>(specs);
}

StripedVolumeManager MakeVolumes(const StorageSystem& sys,
                                 std::vector<int64_t> sizes,
                                 std::vector<std::vector<int>> placements) {
  auto v = StripedVolumeManager::Create(std::move(sizes),
                                        std::move(placements),
                                        sys.capacities(), 64 * kKiB);
  LDB_CHECK(v.ok());
  return std::move(v).value();
}

// A deterministic closed-loop foreground driver that routes every request
// through the executor (the way WorkloadRunner does) and asserts the
// readability invariant after every completion.
class FgDriver {
 public:
  FgDriver(StorageSystem* sys, MigrationExecutor* exec, uint64_t seed,
           bool check_readable)
      : sys_(sys), exec_(exec), rng_(seed),
        check_readable_(check_readable) {}

  void ScheduleOps(int count, double interval_s) {
    for (int k = 0; k < count; ++k) {
      sys_->queue().ScheduleAfter((k + 1) * interval_s, [this]() {
        IssueOne();
      });
    }
  }

  int completed() const { return completed_; }
  int failed() const { return failed_; }

 private:
  void IssueOne() {
    const int n = exec_->num_objects();
    const ObjectId obj =
        static_cast<ObjectId>(rng_.UniformInt(static_cast<uint64_t>(n)));
    const int64_t size = exec_->object_size(obj);
    const int64_t req = std::min<int64_t>(size, 128 * kKiB);
    const int64_t offset =
        size > req ? static_cast<int64_t>(
                         rng_.UniformInt(static_cast<uint64_t>(size - req)))
                   : 0;
    const bool is_write = rng_.Bernoulli(0.3);
    chunks_.clear();
    exec_->Route(obj, offset, req, is_write, &chunks_);
    ASSERT_FALSE(chunks_.empty());
    auto pending = std::make_shared<int>(static_cast<int>(chunks_.size()));
    int64_t logical = offset;
    for (const TargetChunk& tc : chunks_) {
      TargetRequest tr;
      tr.offset = tc.offset;
      tr.size = tc.size;
      tr.is_write = is_write;
      tr.object = obj;
      tr.logical_offset = logical;
      logical += tc.size;
      sys_->SubmitWithStatus(tc.target, tr,
                             [this, pending](double, const Status& s) {
                               if (!s.ok()) ++failed_;
                               if (--*pending == 0) {
                                 ++completed_;
                                 if (check_readable_) {
                                   EXPECT_TRUE(exec_->CheckReadable().ok())
                                       << exec_->CheckReadable().ToString();
                                 }
                               }
                             });
    }
  }

  StorageSystem* sys_;
  MigrationExecutor* exec_;
  Rng rng_;
  bool check_readable_;
  int completed_ = 0;
  int failed_ = 0;
  std::vector<TargetChunk> chunks_;
};

std::vector<TargetChunk> RouteAll(MigrationExecutor* exec, ObjectId obj,
                                  int64_t offset, int64_t size,
                                  bool is_write) {
  std::vector<TargetChunk> out;
  exec->Route(obj, offset, size, is_write, &out);
  return out;
}

std::vector<TargetChunk> MapAll(const StripedVolumeManager& v, ObjectId obj,
                                int64_t offset, int64_t size) {
  std::vector<TargetChunk> out;
  v.Map(obj, offset, size, &out);
  return out;
}

bool SameChunks(const std::vector<TargetChunk>& a,
                const std::vector<TargetChunk>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].target != b[i].target || a[i].offset != b[i].offset ||
        a[i].size != b[i].size) {
      return false;
    }
  }
  return true;
}

// --------------------------------------------------------- no-op migration

TEST(MigrateTest, EmptyPlanIsNoOpAndRoutesLikeSource) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{5 * kMiB + 300 * kKiB, 3 * kMiB};
  auto src = MakeVolumes(*sys, sizes, {{0}, {1, 2}});
  auto dst = MakeVolumes(*sys, sizes, {{0}, {1, 2}});

  MigrateOptions opts;
  auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
  ASSERT_TRUE(exec.ok());
  (*exec)->Start();
  // Completes synchronously: no copy events at all.
  EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kCompleted);
  EXPECT_DOUBLE_EQ(sys->queue().RunUntilIdle(), 0.0);
  EXPECT_EQ((*exec)->stats().chunks_total, 0);
  ASSERT_EQ((*exec)->journal().size(), 2u);
  EXPECT_EQ((*exec)->journal()[0].kind, JournalKind::kBeginMigration);
  EXPECT_EQ((*exec)->journal()[1].kind, JournalKind::kCommitMigration);
  EXPECT_TRUE((*exec)->CheckReadable().ok());

  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    const ObjectId obj = static_cast<ObjectId>(rng.UniformInt(uint64_t{2}));
    const int64_t size = sizes[static_cast<size_t>(obj)];
    const int64_t req = 1 + static_cast<int64_t>(
                                rng.UniformInt(static_cast<uint64_t>(size)));
    const int64_t off = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(size - req + 1)));
    const bool w = rng.Bernoulli(0.5);
    EXPECT_TRUE(SameChunks(RouteAll(&**exec, obj, off, req, w),
                           MapAll(src, obj, off, req)));
  }
}

// ------------------------------------------------- full migration + writes

TEST(MigrateTest, CompletesAndServesEveryReadFromDestination) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{4 * kMiB + 100 * kKiB, 2 * kMiB, kMiB};
  auto src = MakeVolumes(*sys, sizes, {{0}, {0, 1}, {2}});
  auto dst = MakeVolumes(*sys, sizes, {{1}, {2}, {2}});  // object 2 stays

  MigrateOptions opts;
  opts.chunk_bytes = kMiB;
  auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
  ASSERT_TRUE(exec.ok());

  FgDriver fg(sys.get(), exec->get(), 5, /*check_readable=*/true);
  fg.ScheduleOps(40, 0.005);
  sys->queue().ScheduleAfter(0.0, [&exec]() { (*exec)->Start(); });
  sys->queue().RunUntilIdle();

  EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kCompleted);
  EXPECT_EQ((*exec)->stats().chunks_committed, (*exec)->stats().chunks_total);
  EXPECT_EQ((*exec)->stats().objects_committed, 2);
  EXPECT_EQ(fg.completed(), 40);
  EXPECT_EQ(fg.failed(), 0);
  EXPECT_TRUE((*exec)->CheckReadable().ok());
  EXPECT_EQ((*exec)->journal().back().kind, JournalKind::kCommitMigration);

  // Every read now serves from the destination manager.
  Rng rng(3);
  for (int t = 0; t < 30; ++t) {
    const ObjectId obj = static_cast<ObjectId>(rng.UniformInt(uint64_t{3}));
    const int64_t size = sizes[static_cast<size_t>(obj)];
    const int64_t req = std::min<int64_t>(size, 256 * kKiB);
    const int64_t off = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(size - req + 1)));
    const auto expect = obj == 2 ? MapAll(src, obj, off, req)
                                 : MapAll(dst, obj, off, req);
    EXPECT_TRUE(SameChunks(RouteAll(&**exec, obj, off, req, false), expect));
  }
}

TEST(MigrateTest, ForegroundWriteDuringCopyForcesRecopy) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{4 * kMiB};
  auto src = MakeVolumes(*sys, sizes, {{0}});
  auto dst = MakeVolumes(*sys, sizes, {{1}});

  MigrateOptions opts;
  opts.chunk_bytes = kMiB;
  auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
  ASSERT_TRUE(exec.ok());
  sys->queue().ScheduleAfter(0.0, [&exec]() { (*exec)->Start(); });
  // A write into chunk 0 while its copy is in flight (the first copy read
  // is issued at t=0 and disk service takes milliseconds).
  sys->queue().ScheduleAfter(0.0005, [&]() {
    std::vector<TargetChunk> chunks;
    (*exec)->Route(0, 4 * kKiB, 8 * kKiB, /*is_write=*/true, &chunks);
    for (const TargetChunk& tc : chunks) {
      sys->Submit(tc.target, {tc.offset, tc.size, true, 0, 4 * kKiB},
                  nullptr);
    }
  });
  sys->queue().RunUntilIdle();

  EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kCompleted);
  EXPECT_GE((*exec)->stats().chunks_recopied, 1);
  EXPECT_TRUE((*exec)->CheckReadable().ok());
  // The recopy is journaled, so a resume replays it as pending.
  bool saw_recopy = false;
  for (const JournalRecord& r : (*exec)->journal()) {
    saw_recopy = saw_recopy || r.kind == JournalKind::kRecopyChunk;
  }
  EXPECT_TRUE(saw_recopy);
}

// ------------------------------------------------------------ fault policy

TEST(MigrateTest, DestinationLossRollsBackAndEverythingStaysReadable) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{8 * kMiB, 4 * kMiB};
  auto src = MakeVolumes(*sys, sizes, {{0}, {0, 2}});
  auto dst = MakeVolumes(*sys, sizes, {{1}, {1}});  // d1: pure destination

  MigrateOptions opts;
  opts.chunk_bytes = kMiB;
  // Stretch the copy so the fault lands mid-migration deterministically.
  opts.bandwidth_bytes_per_s = static_cast<double>(12 * kMiB) / 10.0;
  auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
  ASSERT_TRUE(exec.ok());

  // Per-op readability checks stay off here: between the destination dying
  // and the executor noticing at its next pump, committed chunks point at a
  // dead target by design — the property under test is that rollback then
  // restores full readability.
  FgDriver fg(sys.get(), exec->get(), 17, /*check_readable=*/false);
  fg.ScheduleOps(30, 0.3);
  sys->queue().ScheduleAfter(0.0, [&exec]() { (*exec)->Start(); });
  sys->queue().ScheduleAfter(5.0, [&sys]() { sys->target(1).FailMember(0); });
  sys->queue().RunUntilIdle();

  EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kRolledBack);
  EXPECT_GT((*exec)->stats().chunks_committed, 0);
  EXPECT_LT((*exec)->stats().chunks_committed, (*exec)->stats().chunks_total);
  EXPECT_EQ((*exec)->failed_target(), 1);
  EXPECT_TRUE((*exec)->CheckReadable().ok())
      << (*exec)->CheckReadable().ToString();
  EXPECT_EQ((*exec)->journal().back().kind,
            JournalKind::kRollbackMigration);
  // All routing is back on the source.
  EXPECT_TRUE(SameChunks(RouteAll(&**exec, 0, 0, sizes[0], false),
                         MapAll(src, 0, 0, sizes[0])));
  EXPECT_TRUE(SameChunks(RouteAll(&**exec, 1, 0, sizes[1], true),
                         MapAll(src, 1, 0, sizes[1])));
}

TEST(MigrateTest, SourceLossAbortsAndCommittedChunksServeDestination) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{8 * kMiB};
  auto src = MakeVolumes(*sys, sizes, {{0}});
  auto dst = MakeVolumes(*sys, sizes, {{1}});

  MigrateOptions opts;
  opts.chunk_bytes = kMiB;
  opts.bandwidth_bytes_per_s = static_cast<double>(8 * kMiB) / 10.0;
  auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
  ASSERT_TRUE(exec.ok());
  sys->queue().ScheduleAfter(0.0, [&exec]() { (*exec)->Start(); });
  sys->queue().ScheduleAfter(5.0, [&sys]() { sys->target(0).FailMember(0); });
  sys->queue().RunUntilIdle();

  EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kAborted);
  EXPECT_EQ((*exec)->failed_target(), 0);
  const int64_t committed = (*exec)->stats().chunks_committed;
  EXPECT_GT(committed, 0);
  EXPECT_LT(committed, (*exec)->stats().chunks_total);
  // Committed prefix serves the destination (alive); the tail points at
  // the dead source, which CheckReadable reports honestly.
  const auto head = RouteAll(&**exec, 0, 0, committed * kMiB, false);
  for (const TargetChunk& tc : head) EXPECT_EQ(tc.target, 1);
  EXPECT_FALSE((*exec)->CheckReadable().ok());
  EXPECT_EQ((*exec)->journal().back().kind, JournalKind::kAbortMigration);
}

// ----------------------------------------- interrupt / resume equivalence

struct Scenario {
  std::vector<int64_t> sizes;
  std::vector<std::vector<int>> from;
  std::vector<std::vector<int>> to;
};

Scenario RandomScenario(Rng& rng) {
  Scenario s;
  const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  for (int i = 0; i < n; ++i) {
    s.sizes.push_back(
        (1 + static_cast<int64_t>(rng.UniformInt(uint64_t{4}))) * kMiB +
        static_cast<int64_t>(rng.UniformInt(uint64_t{3})) * 100 * kKiB);
    const auto subset = [&rng]() {
      std::vector<int> t;
      for (int j = 0; j < 3; ++j) {
        if (rng.Bernoulli(0.4)) t.push_back(j);
      }
      if (t.empty()) {
        t.push_back(static_cast<int>(rng.UniformInt(uint64_t{3})));
      }
      return t;
    };
    s.from.push_back(subset());
    s.to.push_back(subset());
  }
  return s;
}

class MigrateResumeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MigrateResumeProperty, InterruptAtAnyChunkBoundaryThenResume) {
  DiskModel proto(Scsi15kParams());
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const Scenario sc = RandomScenario(rng);
    MigrateOptions opts;
    opts.chunk_bytes = 512 * kKiB;

    // Reference: uninterrupted run with deterministic foreground traffic;
    // readability is asserted at every completion.
    std::string ref_fingerprint;
    MigrationJournal ref_journal;
    int64_t ref_chunks = 0;
    {
      auto sys = MakeSystem3(proto);
      auto src = MakeVolumes(*sys, sc.sizes, sc.from);
      auto dst = MakeVolumes(*sys, sc.sizes, sc.to);
      auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
      ASSERT_TRUE(exec.ok());
      FgDriver fg(sys.get(), exec->get(), 1000 + trial, true);
      fg.ScheduleOps(25, 0.004);
      sys->queue().ScheduleAfter(0.0, [&exec]() { (*exec)->Start(); });
      sys->queue().RunUntilIdle();
      ASSERT_EQ((*exec)->outcome(), MigrationOutcome::kCompleted);
      ASSERT_TRUE((*exec)->CheckReadable().ok());
      ref_fingerprint = (*exec)->StateFingerprint();
      ref_journal = (*exec)->journal();
      ref_chunks = (*exec)->stats().chunks_total;
    }

    // Interrupted: pause at a random commit boundary, hand the journal to
    // a fresh executor on a fresh system, and let it finish.
    {
      auto sys = MakeSystem3(proto);
      auto src = MakeVolumes(*sys, sc.sizes, sc.from);
      auto dst = MakeVolumes(*sys, sc.sizes, sc.to);
      auto exec = MigrationExecutor::Create(sys.get(), &src, &dst, opts);
      ASSERT_TRUE(exec.ok());
      const int64_t stop_after =
          ref_chunks == 0
              ? 0
              : 1 + static_cast<int64_t>(rng.UniformInt(
                        static_cast<uint64_t>(ref_chunks)));
      int64_t commits = 0;
      (*exec)->set_commit_hook([&]() {
        if (++commits >= stop_after) (*exec)->Pause();
      });
      FgDriver fg(sys.get(), exec->get(), 1000 + trial, true);
      fg.ScheduleOps(25, 0.004);
      sys->queue().ScheduleAfter(0.0, [&exec]() { (*exec)->Start(); });
      sys->queue().RunUntilIdle();
      ASSERT_TRUE((*exec)->CheckReadable().ok());
      const MigrationJournal interrupted = (*exec)->journal();

      auto sys2 = MakeSystem3(proto);
      auto src2 = MakeVolumes(*sys2, sc.sizes, sc.from);
      auto dst2 = MakeVolumes(*sys2, sc.sizes, sc.to);
      auto resumed = MigrationExecutor::Resume(sys2.get(), &src2, &dst2,
                                               opts, interrupted);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      sys2->queue().ScheduleAfter(0.0,
                                  [&resumed]() { (*resumed)->Start(); });
      sys2->queue().RunUntilIdle();
      EXPECT_EQ((*resumed)->outcome(), MigrationOutcome::kCompleted);
      EXPECT_EQ((*resumed)->StateFingerprint(), ref_fingerprint);
      EXPECT_EQ((*resumed)->stats().chunks_total, ref_chunks);
      EXPECT_TRUE((*resumed)->CheckReadable().ok());
    }

    // Idempotence: resuming from *every* prefix of the reference journal
    // and running to completion lands in the same state.
    for (size_t len = 0; len <= ref_journal.size();
         len += 1 + ref_journal.size() / 7) {
      auto sys = MakeSystem3(proto);
      auto src = MakeVolumes(*sys, sc.sizes, sc.from);
      auto dst = MakeVolumes(*sys, sc.sizes, sc.to);
      const MigrationJournal prefix(ref_journal.begin(),
                                    ref_journal.begin() +
                                        static_cast<long>(len));
      auto resumed =
          MigrationExecutor::Resume(sys.get(), &src, &dst, opts, prefix);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      sys->queue().ScheduleAfter(0.0, [&resumed]() { (*resumed)->Start(); });
      sys->queue().RunUntilIdle();
      EXPECT_EQ((*resumed)->outcome(), MigrationOutcome::kCompleted);
      EXPECT_EQ((*resumed)->StateFingerprint(), ref_fingerprint);
      EXPECT_TRUE((*resumed)->CheckReadable().ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrateResumeProperty,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

TEST(MigrateTest, ResumeRejectsJournalForWrongPlan) {
  DiskModel proto(Scsi15kParams());
  auto sys = MakeSystem3(proto);
  const std::vector<int64_t> sizes{2 * kMiB};
  auto src = MakeVolumes(*sys, sizes, {{0}});
  auto dst = MakeVolumes(*sys, sizes, {{1}});
  MigrateOptions opts;
  opts.chunk_bytes = kMiB;

  MigrationJournal bad_object{{JournalKind::kCommitChunk, 7, 0}};
  EXPECT_FALSE(
      MigrationExecutor::Resume(sys.get(), &src, &dst, opts, bad_object)
          .ok());
  MigrationJournal bad_chunk{{JournalKind::kCommitChunk, 0, 99}};
  EXPECT_FALSE(
      MigrationExecutor::Resume(sys.get(), &src, &dst, opts, bad_chunk)
          .ok());
  // A non-migrating object must not appear in the journal.
  auto same = MakeVolumes(*sys, sizes, {{0}});
  MigrationJournal not_moving{{JournalKind::kBeginChunk, 0, 0}};
  EXPECT_FALSE(
      MigrationExecutor::Resume(sys.get(), &src, &same, opts, not_moving)
          .ok());
}

// ------------------------------------------------- satellite regressions

const CostModel& MigrateTestCost() {
  static const CostModel* model = [] {
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads, writes;
    for (double s : sizes) {
      for (double q : runs) {
        for (double c : chis) {
          const double v = 0.004 * (0.5 + 0.5 * s / (8 * kKiB)) * (1 + c) /
                           std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("mt", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    return new CostModel(std::move(m).value());
  }();
  return *model;
}

LayoutProblem SmallProblem(int objects, int targets) {
  LayoutProblem p;
  for (int i = 0; i < objects; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(kGiB);
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = 50;
    w.read_size = 8 * kKiB;
    w.run_count = 1.0;
    w.overlap_index = {i};
    w.overlap_value = {0.0};
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < targets; ++j) {
    p.targets.push_back(AdvisorTarget{StrFormat("t%d", j), 8 * kGiB,
                                      &MigrateTestCost(), 1, 64 * kKiB});
  }
  return p;
}

TEST(PriceMigrationTest, SolverNoiseBelowToleranceIsNotMovement) {
  const LayoutProblem p = SmallProblem(2, 2);
  Layout from(2, 2);
  from.SetRowRegular(0, {0, 1});
  from.SetRowRegular(1, {0});
  // The "new" layout is the same placement with sub-tolerance solver noise
  // on the fractions.
  Layout to = from;
  to.Set(0, 0, 0.5 + 5e-5);
  to.Set(0, 1, 0.5 - 5e-5);
  to.Set(1, 0, 1.0 - 2e-5);

  const MigrationPlan plan = PriceMigration(p, from, to);
  EXPECT_EQ(plan.objects_moved, 0);
  EXPECT_DOUBLE_EQ(plan.total_bytes, 0.0);
}

TEST(PriceMigrationTest, RegularMovePricesExactFractions) {
  const LayoutProblem p = SmallProblem(2, 2);
  Layout from(2, 2);
  from.SetRowRegular(0, {0});
  from.SetRowRegular(1, {0});
  Layout to(2, 2);
  to.SetRowRegular(0, {0, 1});  // half of object 0 moves onto t1
  to.SetRowRegular(1, {0});

  const MigrationPlan plan = PriceMigration(p, from, to);
  EXPECT_EQ(plan.objects_moved, 1);
  EXPECT_DOUBLE_EQ(plan.moved_in_bytes[0][1], 0.5 * kGiB);
  EXPECT_DOUBLE_EQ(plan.total_bytes, 0.5 * kGiB);
}

TEST(PriceMigrationTest, NonRegularRebalanceUsesRawDeltas) {
  const LayoutProblem p = SmallProblem(2, 2);
  Layout from(2, 2);
  from.Set(0, 0, 0.7);
  from.Set(0, 1, 0.3);
  from.SetRowRegular(1, {1});
  Layout to(2, 2);
  to.SetRowRegular(0, {0, 1});  // 0.7/0.3 -> 0.5/0.5: same targets, real move
  to.SetRowRegular(1, {1});

  const MigrationPlan plan = PriceMigration(p, from, to);
  EXPECT_EQ(plan.objects_moved, 1);
  EXPECT_NEAR(plan.moved_in_bytes[0][1], 0.2 * kGiB, 1.0);
  EXPECT_NEAR(plan.total_bytes, 0.2 * kGiB, 1.0);
}

TEST(ReplanTest, EveryTargetFailedIsCleanInfeasible) {
  const LayoutProblem p = SmallProblem(2, 2);
  Layout current(2, 2);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  TargetHealth health = TargetHealth::Healthy(2);
  health.MarkFailed(0);
  health.MarkFailed(1);
  auto result = ReplanAfterFailure(p, current, health);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
  EXPECT_NE(result.status().message().find("every target failed"),
            std::string::npos);
}

// Rows off the failed targets stay in place, so a deployed layout that
// breaks the policy there is an input error, not a process abort.
TEST(ReplanTest, PolicyBreakingRowOffTheFailedTargetIsInvalidArgument) {
  LayoutProblem p = SmallProblem(4, 3);
  Layout current(4, 3);
  current.SetRowRegular(0, {0});
  current.SetRowRegular(1, {1});
  current.SetRowRegular(2, {2});
  current.SetRowRegular(3, {0, 2});
  TargetHealth health = TargetHealth::Healthy(3);
  health.MarkFailed(1);

  p.constraints.allowed_targets = {{2}, {}, {}, {}};
  auto pinned = ReplanAfterFailure(p, current, health);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pinned.status().message().find("object obj0 breaks"),
            std::string::npos)
      << pinned.status().ToString();

  p.constraints.allowed_targets.clear();
  p.constraints.separate = {{2, 3}};
  auto separated = ReplanAfterFailure(p, current, health);
  ASSERT_FALSE(separated.ok());
  EXPECT_EQ(separated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(separated.status().message().find("object obj2 breaks"),
            std::string::npos)
      << separated.status().ToString();

  // The displaced row (obj1, on the failed t1) is re-placed inside its
  // allowed set as before.
  p.constraints.separate.clear();
  p.constraints.allowed_targets = {{}, {2}, {}, {}};
  auto replanned = ReplanAfterFailure(p, current, health);
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  EXPECT_EQ(replanned->layout.TargetsOf(1), std::vector<int>{2});
}

}  // namespace
}  // namespace ldb
