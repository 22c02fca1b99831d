// Durable control plane: the crash-matrix property suite. For every crash
// point — after each appended journal record, and at torn-write offsets
// inside the crashing record — killing the process, recovering the
// journal, and completing the migration must be indistinguishable (by
// StateFingerprint and CheckReadable) from an uninterrupted run. Includes
// a second crash during the recovery run, power-loss fsync drops, plan-
// and problem-digest binding, and the autopilot checkpoint/intent
// resolution rules.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/harness.h"
#include "core/journal.h"
#include "core/migrate.h"
#include "model/layout.h"
#include "model/workload.h"
#include "storage/disk.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/check.h"
#include "util/units.h"
#include "util/wal.h"
#include "workload/catalog.h"
#include "workload/spec.h"

namespace ldb {
namespace {

// Per-process names: ctest runs each case alone and the whole binary as
// journal_crash_matrix_suite, possibly at the same time in the same temp
// directory.
// Each file is removed when its TmpFile goes out of scope, so a run leaves
// nothing behind.
class TmpFile {
 public:
  explicit TmpFile(const std::string& name)
      : path_(testing::TempDir() + "/" + std::to_string(getpid()) + "_" +
              name) {}
  TmpFile(const TmpFile&) = delete;
  TmpFile& operator=(const TmpFile&) = delete;
  ~TmpFile() { std::remove(path_.c_str()); }

  operator const std::string&() const { return path_; }
  const char* c_str() const { return path_.c_str(); }

 private:
  std::string path_;
};

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

// The matrix's one migration: two objects move, one stays, 7 chunks.
struct Rig {
  std::vector<int64_t> sizes{4 * kMiB + 100 * kKiB, 2 * kMiB, kMiB};
  std::vector<std::vector<int>> from{{0}, {0, 1}, {2}};
  std::vector<std::vector<int>> to{{1}, {2}, {2}};
  DiskModel proto;
  std::unique_ptr<StorageSystem> sys;
  StripedVolumeManager src;
  StripedVolumeManager dst;

  Rig()
      : proto(Scsi15kParams()),
        sys(MakeSystem3(proto)),
        src(MakeVolumes(*sys, sizes, from)),
        dst(MakeVolumes(*sys, sizes, to)) {}

  MigrateOptions Options() const {
    MigrateOptions o;
    o.chunk_bytes = kMiB;
    return o;
  }

  uint64_t Digest() const {
    return MigrationPlanDigest(sizes, from, to, Options().chunk_bytes);
  }
};

// Runs a fresh journaled migration that crashes per `policy`; returns the
// executor's journal-failure state. The journal file persists at `path`.
void RunUntilCrash(const std::string& path, const WalCrashPolicy& policy,
                   bool* crashed) {
  Rig rig;
  auto journal = ControlJournal::Open(path, policy);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  const Status bind = (*journal)->AppendPlanBinding(rig.Digest());
  if (!bind.ok()) {
    ASSERT_TRUE((*journal)->crashed());
    *crashed = true;
    return;
  }
  auto exec =
      MigrationExecutor::Create(rig.sys.get(), &rig.src, &rig.dst,
                                rig.Options());
  ASSERT_TRUE(exec.ok());
  (*exec)->set_journal_sink(journal->get());
  (*exec)->Start();
  rig.sys->queue().RunUntilIdle();
  *crashed = (*exec)->journal_failed();
  if (*crashed) {
    // Frozen, not broken: the executor stopped mid-flight but still
    // serves every byte from its last consistent state.
    EXPECT_NE((*exec)->outcome(), MigrationOutcome::kCompleted);
    EXPECT_TRUE((*exec)->CheckReadable().ok());
  } else {
    EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kCompleted);
  }
}

// Recovers `path` and runs the migration to completion (no crash policy),
// returning the final fingerprint.
std::string RecoverAndComplete(const std::string& path) {
  Rig rig;
  auto recovered = RecoverMigrationJournal(path, rig.Digest());
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) return "recover-failed";
  auto journal = ControlJournal::Open(path);
  EXPECT_TRUE(journal.ok());
  auto exec = MigrationExecutor::Resume(rig.sys.get(), &rig.src, &rig.dst,
                                        rig.Options(), *recovered);
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  if (!exec.ok()) return "resume-failed";
  (*exec)->set_journal_sink(journal->get());
  (*exec)->Start();
  rig.sys->queue().RunUntilIdle();
  EXPECT_EQ((*exec)->outcome(), MigrationOutcome::kCompleted);
  EXPECT_TRUE((*exec)->CheckReadable().ok());
  return (*exec)->StateFingerprint();
}

// The uninterrupted run every crashed-and-recovered run must match.
std::string ReferenceFingerprint(int64_t* records_total) {
  const TmpFile path("journal_reference.wal");
  std::remove(path.c_str());
  Rig rig;
  auto journal = ControlJournal::Open(path);
  LDB_CHECK(journal.ok());
  LDB_CHECK((*journal)->AppendPlanBinding(rig.Digest()).ok());
  auto exec = MigrationExecutor::Create(rig.sys.get(), &rig.src, &rig.dst,
                                        rig.Options());
  LDB_CHECK(exec.ok());
  (*exec)->set_journal_sink(journal->get());
  (*exec)->Start();
  rig.sys->queue().RunUntilIdle();
  LDB_CHECK((*exec)->outcome() == MigrationOutcome::kCompleted);
  *records_total = (*journal)->records_total();
  return (*exec)->StateFingerprint();
}

// ------------------------------------------------------------ crash matrix

// Crash after every prefix of appended records; recover; complete; equal.
TEST(JournalCrashMatrixTest, EveryCrashPointRecoversToReferenceState) {
  int64_t total = 0;
  const std::string want = ReferenceFingerprint(&total);
  ASSERT_GT(total, 10);  // the matrix is only meaningful with real depth

  const TmpFile path("journal_matrix.wal");
  for (int64_t n = 1; n < total; ++n) {
    std::remove(path.c_str());
    WalCrashPolicy policy;
    policy.fail_after_appends = n;
    bool crashed = false;
    RunUntilCrash(path, policy, &crashed);
    ASSERT_TRUE(crashed) << "crash point " << n << " never fired";
    EXPECT_EQ(RecoverAndComplete(path), want) << "crash point " << n;
  }
}

// Same matrix at torn-write offsets inside the crashing record: the torn
// frame must be truncated on recovery, then complete as before.
TEST(JournalCrashMatrixTest, TornWritesInsideTheCrashingRecordRecover) {
  int64_t total = 0;
  const std::string want = ReferenceFingerprint(&total);
  const TmpFile path("journal_torn.wal");
  for (int64_t n : {int64_t{1}, int64_t{2}, total / 2, total - 2}) {
    for (int64_t torn : {int64_t{1}, int64_t{4}, int64_t{9}, int64_t{12}}) {
      std::remove(path.c_str());
      WalCrashPolicy policy;
      policy.fail_after_appends = n;
      policy.torn_bytes = torn;
      bool crashed = false;
      RunUntilCrash(path, policy, &crashed);
      ASSERT_TRUE(crashed) << "n=" << n << " torn=" << torn;
      auto raw = ReadWalRecords(path);
      ASSERT_TRUE(raw.ok());
      EXPECT_TRUE(raw->torn_tail) << "n=" << n << " torn=" << torn;
      EXPECT_EQ(RecoverAndComplete(path), want)
          << "n=" << n << " torn=" << torn;
    }
  }
}

// A second crash during the recovery run must recover too.
TEST(JournalCrashMatrixTest, DoubleCrashStillConvergesToReferenceState) {
  int64_t total = 0;
  const std::string want = ReferenceFingerprint(&total);
  const TmpFile path("journal_double.wal");
  for (int64_t first : {int64_t{3}, total / 2}) {
    for (int64_t second : {int64_t{1}, int64_t{4}}) {
      std::remove(path.c_str());
      WalCrashPolicy policy;
      policy.fail_after_appends = first;
      bool crashed = false;
      RunUntilCrash(path, policy, &crashed);
      ASSERT_TRUE(crashed);

      // Recovery attempt #1 also dies, `second` records in.
      {
        Rig rig;
        auto recovered = RecoverMigrationJournal(path, rig.Digest());
        ASSERT_TRUE(recovered.ok());
        WalCrashPolicy again;
        again.fail_after_appends = second;
        again.torn_bytes = second % 2 == 0 ? 5 : -1;
        auto journal = ControlJournal::Open(path, again);
        ASSERT_TRUE(journal.ok());
        auto exec = MigrationExecutor::Resume(rig.sys.get(), &rig.src,
                                              &rig.dst, rig.Options(),
                                              *recovered);
        ASSERT_TRUE(exec.ok());
        (*exec)->set_journal_sink(journal->get());
        (*exec)->Start();
        rig.sys->queue().RunUntilIdle();
        ASSERT_TRUE((*exec)->journal_failed());
        EXPECT_TRUE((*exec)->CheckReadable().ok());
      }

      // Recovery attempt #2 completes and must match the reference.
      EXPECT_EQ(RecoverAndComplete(path), want)
          << "first=" << first << " second=" << second;
    }
  }
}

// Power loss instead of process death: fsyncs past the S-th never reached
// media, so the crash rolls the file back to the last effective barrier.
// The lost batched records only cost idempotent re-copies.
TEST(JournalCrashMatrixTest, DroppedFsyncsLoseOnlyRecopiableWork) {
  int64_t total = 0;
  const std::string want = ReferenceFingerprint(&total);
  const TmpFile path("journal_powerloss.wal");
  for (int64_t syncs : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    std::remove(path.c_str());
    WalCrashPolicy policy;
    policy.fail_after_appends = total / 2;
    policy.drop_syncs_after = syncs;
    bool crashed = false;
    RunUntilCrash(path, policy, &crashed);
    ASSERT_TRUE(crashed) << "syncs=" << syncs;
    auto raw = ReadWalRecords(path);
    ASSERT_TRUE(raw.ok()) << "syncs=" << syncs;
    EXPECT_LT(static_cast<int64_t>(raw->records.size()), total / 2 + 1)
        << "syncs=" << syncs;
    EXPECT_EQ(RecoverAndComplete(path), want) << "syncs=" << syncs;
  }
}

// ------------------------------------------------------------- bindings

TEST(JournalTest, RecoveryRefusesAForeignPlanDigest) {
  const TmpFile path("journal_foreign_plan.wal");
  std::remove(path.c_str());
  WalCrashPolicy policy;
  policy.fail_after_appends = 5;
  bool crashed = false;
  RunUntilCrash(path, policy, &crashed);
  ASSERT_TRUE(crashed);

  Rig rig;
  auto wrong = RecoverMigrationJournal(path, rig.Digest() ^ 1);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(RecoverMigrationJournal(path, rig.Digest()).ok());
}

TEST(JournalTest, RecoveryRefusesAJournalWithoutAPlanBinding) {
  const TmpFile path("journal_unbound.wal");
  std::remove(path.c_str());
  {
    auto journal = ControlJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    JournalRecord r;
    r.kind = JournalKind::kBeginMigration;
    r.object = -1;
    r.chunk = -1;
    ASSERT_TRUE((*journal)->Append(r).ok());
  }
  auto rec = RecoverMigrationJournal(path, 123);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JournalTest, CorruptInteriorRecordIsAHardErrorNotAWrongJournal) {
  const TmpFile path("journal_interior.wal");
  std::remove(path.c_str());
  bool crashed = false;
  RunUntilCrash(path, WalCrashPolicy{}, &crashed);
  ASSERT_FALSE(crashed);

  // Flip one payload bit in an interior record.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(c ^ 0x04, f);
  std::fclose(f);

  Rig rig;
  auto rec = RecoverMigrationJournal(path, rig.Digest());
  EXPECT_FALSE(rec.ok());
  EXPECT_FALSE(ControlJournal::Open(path).ok());
}

// ------------------------------------------- autopilot state resolution

WorkloadSet TwoWorkloads() {
  WorkloadSet ws(2);
  ws[0].read_rate = 120.5;
  ws[0].write_rate = 3.25;
  ws[0].read_size = 8192;
  ws[0].write_size = 4096;
  ws[0].run_count = 2.5;
  ws[0].overlap_index = {0, 1};
  ws[0].overlap_value = {1.0, 0.125};
  ws[1].read_rate = 7.0;
  ws[1].read_size = 8192;
  ws[1].overlap_index = {1};
  ws[1].overlap_value = {1.0};
  return ws;
}

void ExpectSameWorkloads(const WorkloadSet& a, const WorkloadSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].read_rate, b[i].read_rate);
    EXPECT_DOUBLE_EQ(a[i].write_rate, b[i].write_rate);
    EXPECT_DOUBLE_EQ(a[i].read_size, b[i].read_size);
    EXPECT_DOUBLE_EQ(a[i].write_size, b[i].write_size);
    EXPECT_DOUBLE_EQ(a[i].run_count, b[i].run_count);
    EXPECT_EQ(a[i].overlap_index, b[i].overlap_index);
    EXPECT_EQ(a[i].overlap_value, b[i].overlap_value);
  }
}

Layout SmallLayout(double w) {
  Layout l(2, 3);
  l.Set(0, 0, 1.0 - w);
  l.Set(0, 2, w);
  l.Set(1, 1, 1.0);
  return l;
}

TEST(JournalTest, CheckpointRoundTripsThroughRecovery) {
  const TmpFile path("journal_ckpt.wal");
  std::remove(path.c_str());
  const Layout layout = SmallLayout(0.25);
  const WorkloadSet ref = TwoWorkloads();
  {
    auto journal = ControlJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendProblemBinding(777).ok());
    ASSERT_TRUE((*journal)->AppendCheckpoint(12.5, layout, ref).ok());
  }
  auto rec = RecoverControlState(path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->has_problem);
  EXPECT_EQ(rec->problem_digest, 777u);
  ASSERT_TRUE(rec->has_checkpoint);
  EXPECT_DOUBLE_EQ(rec->checkpoint_time, 12.5);
  EXPECT_EQ(rec->checkpoint_layout, layout);
  ExpectSameWorkloads(rec->checkpoint_reference, ref);

  Layout deployed(1, 1);
  WorkloadSet reference;
  ASSERT_TRUE(ResolveDeployedState(*rec, &deployed, &reference));
  EXPECT_EQ(deployed, layout);
  ExpectSameWorkloads(reference, ref);
}

// The resolution rules: a committed-but-uncheckpointed intent wins over
// the last checkpoint; an uncommitted intent is abandoned.
TEST(JournalTest, CommittedIntentWinsUncommittedIntentIsAbandoned) {
  const TmpFile path("journal_intent.wal");
  const Layout ckpt_layout = SmallLayout(0.0);
  const Layout intent_layout = SmallLayout(1.0);
  const WorkloadSet ref = TwoWorkloads();

  auto write = [&](bool committed) {
    std::remove(path.c_str());
    auto journal = ControlJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendCheckpoint(1.0, ckpt_layout, ref).ok());
    ASSERT_TRUE(
        (*journal)->AppendIntent(42, intent_layout, ref).ok());
    JournalRecord r;
    r.kind = JournalKind::kBeginMigration;
    r.object = -1;
    r.chunk = -1;
    ASSERT_TRUE((*journal)->Append(r).ok());
    if (committed) {
      r.kind = JournalKind::kCommitMigration;
      ASSERT_TRUE((*journal)->Append(r).ok());
    }
  };

  Layout deployed(1, 1);
  WorkloadSet reference;

  write(/*committed=*/true);
  auto rec = RecoverControlState(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->migration_committed);
  ASSERT_TRUE(ResolveDeployedState(*rec, &deployed, &reference));
  EXPECT_EQ(deployed, intent_layout);

  write(/*committed=*/false);
  rec = RecoverControlState(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->migration_committed);
  ASSERT_TRUE(ResolveDeployedState(*rec, &deployed, &reference));
  EXPECT_EQ(deployed, ckpt_layout);

  // No checkpoint, uncommitted intent: nothing durable to deploy.
  std::remove(path.c_str());
  {
    auto journal = ControlJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendIntent(42, intent_layout, ref).ok());
  }
  rec = RecoverControlState(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(ResolveDeployedState(*rec, &deployed, &reference));
}

// A checkpoint closes the migration segment: RecoverMigrationJournal must
// not see the previous migration's records after one.
TEST(JournalTest, CheckpointClosesTheMigrationSegment) {
  const TmpFile path("journal_segments.wal");
  std::remove(path.c_str());
  {
    auto journal = ControlJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->AppendPlanBinding(99).ok());
    JournalRecord r;
    r.kind = JournalKind::kBeginMigration;
    r.object = -1;
    r.chunk = -1;
    ASSERT_TRUE((*journal)->Append(r).ok());
    ASSERT_TRUE((*journal)
                    ->AppendCheckpoint(2.0, SmallLayout(0.5), TwoWorkloads())
                    .ok());
  }
  auto rec = RecoverControlState(path);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->has_plan);
  EXPECT_TRUE(rec->migration.empty());
  EXPECT_TRUE(rec->has_checkpoint);
  // And the plan binding no longer resolves for a resume.
  EXPECT_FALSE(RecoverMigrationJournal(path, 99).ok());
}

// Writes `payloads` as the CRC-valid records of a fresh WAL, then
// recovers the control state from it.
Result<RecoveredControlState> RecoverPayloads(
    const std::string& name, const std::vector<std::string>& payloads) {
  const TmpFile path(name);
  std::remove(path.c_str());
  {
    auto wal = WalWriter::Open(path);
    LDB_CHECK(wal.ok());
    for (const std::string& payload : payloads) {
      LDB_CHECK((*wal)->Append(payload).ok());
    }
    LDB_CHECK((*wal)->Sync().ok());
  }
  return RecoverControlState(path);
}

// The CRC only proves the bytes are what was written. A record whose
// workload section lies — a count no record can hold, one past the int
// range, an overlap row naming an object past the set — must recover to
// an error, not to an allocation on its say-so or an out-of-bounds read
// later.
TEST(JournalTest, CraftedWorkloadRecordsRecoverToAnError) {
  const std::vector<std::string> crafted = {
      "intent 1f 1 1 1 ref 2000000000 w 1 0 8192 0 1 s 1 0 0",
      "intent 1f 1 1 1 ref 4294967297 w 1 0 8192 0 1 s 1 0 0",
      "intent 1f 1 1 1 ref 2 w 1 0 8192 0 1 s 2 0 0 5 0.5"
      " w 1 0 8192 0 1 s 1 1 0",
  };
  for (const std::string& payload : crafted) {
    auto rec = RecoverPayloads("journal_crafted.wal", {payload});
    ASSERT_FALSE(rec.ok()) << payload;
    EXPECT_EQ(rec.status().code(), StatusCode::kIoError)
        << rec.status().ToString();
    EXPECT_NE(rec.status().message().find("record 0"), std::string::npos)
        << rec.status().ToString();
  }
}

// Journals written before overlap rows were CSR-only hold full `d` rows;
// they decode to exactly the CSR rows of their `s` twin.
TEST(JournalTest, FullRowsFromOlderJournalsDecodeToCsrRows) {
  const std::string head = "ckpt 12.5 1 1 1 ref 2 w 120.5 3.25 8192 4096 2.5";
  auto full = RecoverPayloads(
      "journal_drows.wal", {head + " d 2 1 0.125 w 7 0 8192 0 1 d 2 0 1"});
  auto csr = RecoverPayloads(
      "journal_srows.wal",
      {head + " s 2 0 1 1 0.125 w 7 0 8192 0 1 s 1 1 1"});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(csr.ok()) << csr.status().ToString();
  ExpectSameWorkloads(full->checkpoint_reference, csr->checkpoint_reference);
  ExpectSameWorkloads(csr->checkpoint_reference, TwoWorkloads());
}

// --------------------------------------------- autopilot end-to-end rig

constexpr double kScale = 0.02;

const ExperimentRig& TriRig() {
  static const ExperimentRig* rig = [] {
    auto r = ExperimentRig::Create(Catalog::TpcC(kScale),
                                   {{"d0"}, {"d1"}, {"d2"}}, kScale, 3);
    LDB_CHECK(r.ok());
    return new ExperimentRig(std::move(r).value());
  }();
  return *rig;
}

WorkloadSet TokenReference(int n) {
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = 1.0;
    w.read_size = 8 * 1024;
    w.run_count = 1.0;
    w.overlap_index = {i};
    w.overlap_value = {0.0};
  }
  return ws;
}

Layout PairedLayout(int n) {
  Layout l(n, 3);
  for (int i = 0; i < n; ++i) l.Set(i, i % 2, 1.0);
  return l;
}

AutopilotOptions DriftingOptions() {
  AutopilotOptions o;
  o.config.analyzer.half_life_s = 10.0;
  o.config.check_interval_s = 1.0;
  o.config.drift.threshold = 0.3;
  o.config.drift.trip_evaluations = 1;
  o.config.drift.cooldown_s = 5.0;
  o.config.gate_min_gain = 0.0;
  o.config.gate_horizon_s = 1e9;
  o.config.gate_fallback_bandwidth = 1e12;
  return o;
}

bool SameLayout(const Layout& a, const Layout& b) {
  if (a.num_objects() != b.num_objects() ||
      a.num_targets() != b.num_targets()) {
    return false;
  }
  for (int i = 0; i < a.num_objects(); ++i) {
    for (int j = 0; j < a.num_targets(); ++j) {
      if (a.At(i, j) != b.At(i, j)) return false;
    }
  }
  return true;
}

// An adopted layout survives the process: the journal checkpoints it, and
// a resumed run deploys it instead of the caller's initial layout.
TEST(JournalAutopilotTest, AdoptedLayoutIsCheckpointedAndRedeployed) {
  const ExperimentRig& rig = TriRig();
  auto oltp = MakeOltpSpec(rig.catalog());
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const Layout paired = PairedLayout(n);
  const TmpFile path("journal_autopilot.wal");
  std::remove(path.c_str());

  AutopilotOptions options = DriftingOptions();
  options.journal_path = path;
  auto ap = rig.ExecuteWithAutopilot(paired, TokenReference(n), nullptr,
                                     &*oltp, FaultPlan{}, options, 40.0);
  ASSERT_TRUE(ap.ok()) << ap.status().ToString();
  ASSERT_GE(ap->migrations_completed, 1);
  EXPECT_FALSE(ap->journal_crashed);
  EXPECT_GT(ap->journal_records, 0);
  EXPECT_GT(ap->journal_bytes, 0);
  EXPECT_FALSE(ap->resumed_from_journal);

  auto rec = RecoverControlState(path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_TRUE(rec->has_checkpoint);
  EXPECT_TRUE(SameLayout(rec->checkpoint_layout, ap->final_layout));

  // Restarted process: --resume deploys the checkpointed layout.
  options.resume = true;
  // High threshold so the resumed run exposes the deployed layout rather
  // than immediately re-migrating.
  options.config.drift.threshold = 1e9;
  auto resumed = rig.ExecuteWithAutopilot(paired, TokenReference(n), nullptr,
                                          &*oltp, FaultPlan{}, options, 5.0);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed_from_journal);
  EXPECT_TRUE(SameLayout(resumed->initial_layout, ap->final_layout));
  EXPECT_FALSE(SameLayout(resumed->initial_layout, paired));
}

// A journal crash freezes the control plane instead of killing the run:
// the foreground finishes, no further migrations start, and the durable
// state on disk is still recoverable.
TEST(JournalAutopilotTest, JournalCrashFreezesTheControlPlane) {
  const ExperimentRig& rig = TriRig();
  auto oltp = MakeOltpSpec(rig.catalog());
  ASSERT_TRUE(oltp.ok());
  const int n = rig.catalog().num_objects();
  const TmpFile path("journal_autopilot_crash.wal");
  std::remove(path.c_str());

  AutopilotOptions options = DriftingOptions();
  options.journal_path = path;
  options.journal_crash.fail_after_appends = 1;  // dies binding the intent
  auto ap = rig.ExecuteWithAutopilot(PairedLayout(n), TokenReference(n),
                                     nullptr, &*oltp, FaultPlan{}, options,
                                     20.0);
  ASSERT_TRUE(ap.ok()) << ap.status().ToString();
  EXPECT_TRUE(ap->journal_crashed);
  EXPECT_EQ(ap->migrations_completed, 0);
  EXPECT_GT(ap->run.oltp_transactions, 0u);

  // What did land on disk parses cleanly.
  EXPECT_TRUE(RecoverControlState(path).ok());
}

}  // namespace
}  // namespace ldb
