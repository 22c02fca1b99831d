#ifndef LAYOUTDB_CORE_MIGRATE_H_
#define LAYOUTDB_CORE_MIGRATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "io/file_backend.h"
#include "model/layout.h"
#include "storage/fault.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "util/units.h"
#include "util/wal.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace ldb {

class ControlJournal;

/// Copy progress of one migration chunk.
enum class ChunkState {
  kPending,     ///< not copied yet (serves from the old location)
  kReading,     ///< copy read in flight on the source
  kWriting,     ///< copy write in flight on the destination
  kCommitted,   ///< new location current (reads serve from it)
  kAborted,     ///< migration aborted before this chunk committed
  kRolledBack,  ///< migration rolled back; old location is authoritative
};

const char* ChunkStateName(ChunkState state);

/// Terminal/overall state of a migration.
enum class MigrationOutcome {
  kNotStarted,
  kRunning,
  kCompleted,   ///< every chunk committed; new layout authoritative
  kRolledBack,  ///< destination lost (or copy write failed): old layout
                ///< authoritative, all data intact on the source
  kAborted,     ///< source lost mid-copy: committed chunks serve the new
                ///< location, the rest stay pointed at the (broken) source
};

const char* MigrationOutcomeName(MigrationOutcome outcome);

/// Record kinds of the in-memory write-ahead intent log. The journal is
/// ordered; replaying any prefix through MigrationExecutor::Resume yields a
/// consistent executor (committed chunks serve the new location, chunks
/// with a begun-but-uncommitted copy are re-copied — copying is idempotent).
enum class JournalKind {
  kBeginMigration,     ///< intent to run this plan
  kBeginChunk,         ///< chunk copy issued (object, chunk)
  kRecopyChunk,        ///< chunk dirtied by a foreground write; re-queued
  kCommitChunk,        ///< chunk's new location is current (object, chunk)
  kCommitObject,       ///< every chunk of the object committed
  kCommitMigration,    ///< point of no return: new layout authoritative
  kRollbackMigration,  ///< old layout authoritative again
  kAbortMigration,     ///< source lost; per-chunk routing frozen
};

const char* JournalKindName(JournalKind kind);

struct JournalRecord {
  JournalKind kind = JournalKind::kBeginMigration;
  int object = -1;    ///< object id, or -1 for migration-level records
  int64_t chunk = -1; ///< chunk index, or -1
};

using MigrationJournal = std::vector<JournalRecord>;

/// Knobs of the migration executor.
struct MigrateOptions {
  /// Copy granularity; also the state-machine/journal granularity.
  int64_t chunk_bytes = kMiB;
  /// Token-bucket rate for migration I/O, counted in *copied* bytes (each
  /// copied byte costs one read plus one write). 0 = unthrottled. The
  /// bucket holds one chunk.
  double bandwidth_bytes_per_s = 0.0;
  /// Backpressure: migration submissions stall while background requests
  /// would exceed this share of in-flight requests system-wide
  /// (bg / (bg + fg) > max_bg_share with the next copy counted in). 1.0
  /// disables backpressure.
  double max_bg_share = 1.0;
  /// Copy pipeline depth, in chunks.
  int max_inflight_chunks = 1;
  /// Durable control plane (harness entry points): path of the WAL every
  /// JournalRecord is serialized into before taking effect. Empty =
  /// in-memory journaling only.
  std::string journal_path;
  /// Deterministic crash injection for the journal writer (tests/CLI).
  WalCrashPolicy journal_crash;
  /// Recover `journal_path` and resume the recorded migration instead of
  /// starting fresh. Requires a non-empty journal_path.
  bool resume = false;
  /// Real data plane: when set, every chunk commit first copies the
  /// chunk's actual bytes source → destination through this backend
  /// (ReadSync/WriteSync), and Complete() issues a backend Sync() before
  /// the commit record. The simulator remains the timing driver; journal
  /// semantics are unchanged (the real copy happens *before* kCommitChunk
  /// is journaled, so journaled-committed implies copied, and unjournaled
  /// chunks are re-copied idempotently on resume). A real-copy failure
  /// rolls the migration back. Must outlive the executor.
  FileBackend* data_backend = nullptr;
};

/// Progress/impact counters of one migration.
struct MigrationStats {
  int64_t chunks_total = 0;      ///< chunks across all migrating objects
  int64_t chunks_committed = 0;
  int64_t chunks_recopied = 0;   ///< dirty re-copies (extra passes)
  int objects_migrating = 0;
  int objects_committed = 0;
  int64_t bytes_read = 0;        ///< copy reads issued to the source
  int64_t bytes_written = 0;     ///< copy writes issued to the destination
  double start_time = -1.0;      ///< simulation time of Start()
  double end_time = -1.0;        ///< simulation time of the terminal record
  double throttle_wait_s = 0.0;  ///< total token-bucket stall time
  uint64_t backpressure_deferrals = 0;
};

/// Chunk-level online migration executor.
///
/// Carries a layout transition out as background I/O on the simulator
/// while foreground traffic keeps flowing: every object whose target set
/// differs between the `source` and `destination` volume managers is
/// copied chunk by chunk (kPending → kReading → kWriting → kCommitted),
/// with every transition journaled into an in-memory write-ahead intent
/// log. The executor is itself the foreground VolumeRouter:
///
///  * reads of committed chunks serve from the new location, everything
///    else from the old one;
///  * writes always land on the source until the *whole* migration commits
///    (so rollback is consistent at any earlier instant), mirror onto the
///    destination for committed chunks, and dirty in-flight chunks so they
///    are re-copied;
///  * objects that do not move route through the source manager untouched.
///
/// Failure policy: a copy-write failure or a dead destination target rolls
/// the whole migration back (old layout authoritative, no data loss — the
/// source was never released); a copy-read failure aborts it (committed
/// chunks keep serving the new location). `ReplanAfterFailure` +  a fresh
/// executor handle re-planning around the lost target.
///
/// Copy I/O flows through a token-bucket throttle plus a foreground
/// queue-depth backpressure gate (MigrateOptions), so impact on foreground
/// p99 latency is tunable against migration duration.
class MigrationExecutor final : public VolumeRouter {
 public:
  /// Builds an executor migrating from `source` to `destination` placements.
  /// All three pointers must outlive the executor; the two managers must
  /// describe the same objects (sizes equal). No I/O until Start().
  static Result<std::unique_ptr<MigrationExecutor>> Create(
      StorageSystem* system, const StripedVolumeManager* source,
      const StripedVolumeManager* destination, const MigrateOptions& options);

  /// Rebuilds an executor from a journal prefix of a previous attempt of
  /// the *same* migration (same managers, same chunking). Chunks with a
  /// kCommitChunk record resume as committed; chunks with only a begin
  /// record are re-copied (idempotent); a terminal record fixes the
  /// outcome and Start() becomes a no-op. Resume is idempotent: resuming
  /// from any prefix and running to completion is equivalent to an
  /// uninterrupted run.
  static Result<std::unique_ptr<MigrationExecutor>> Resume(
      StorageSystem* system, const StripedVolumeManager* source,
      const StripedVolumeManager* destination, const MigrateOptions& options,
      const MigrationJournal& journal);

  /// Starts (or, after Pause(), restarts) the copy engine. An empty plan
  /// (no object moves) completes synchronously and schedules zero events,
  /// making the migration a bit-for-bit no-op for the foreground run.
  void Start();

  /// Stops issuing new copies after the in-flight ones complete. Routing
  /// continues normally; Start() resumes.
  void Pause();

  // ---- VolumeRouter (foreground traffic). ----
  int num_objects() const override;
  int64_t object_size(ObjectId i) const override;
  void Route(ObjectId object, int64_t offset, int64_t size, bool is_write,
             std::vector<TargetChunk>* out) override;

  MigrationOutcome outcome() const { return outcome_; }
  const MigrationStats& stats() const;
  const MigrationJournal& journal() const { return journal_; }
  /// Target blamed for a rollback/abort, or -1.
  int failed_target() const { return failed_target_; }
  const std::string& failure_reason() const { return failure_reason_; }

  /// Invoked after every chunk commit and at every terminal transition —
  /// the chunk-boundary hook the interrupt/resume property tests use.
  void set_commit_hook(std::function<void()> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Installs the durable journal (must outlive the executor). Every
  /// subsequent record is appended to it before its transition is
  /// applied; a failed append freezes the executor (see journal_failed()).
  void set_journal_sink(ControlJournal* sink) { journal_sink_ = sink; }

  /// True once a journal append failed: the durable intent could not be
  /// recorded, so the executor behaves as if the process died — no further
  /// copies are issued and no more transitions are applied. Routing keeps
  /// serving from the last consistent state.
  bool journal_failed() const { return journal_failed_; }
  const Status& journal_failure() const { return journal_failure_; }

  /// Verifies that every byte of every object is currently readable: the
  /// serving location of each chunk holds the latest version and every
  /// target backing it is serviceable. This is the "no instant of
  /// unreadability" invariant the property tests check at arbitrary
  /// simulated times.
  Status CheckReadable() const;

  /// Deterministic digest of the routing-relevant state: outcome plus each
  /// migrating chunk's serving side. Two executors with equal fingerprints
  /// route every request identically.
  std::string StateFingerprint() const;

 private:
  struct Chunk {
    int64_t offset = 0;
    int64_t size = 0;
    ChunkState state = ChunkState::kPending;
    uint64_t cur_version = 0;   ///< latest logical version of the range
    uint64_t src_version = 0;   ///< version held by the source location
    uint64_t dst_version = 0;   ///< version held by the destination
    uint64_t read_version = 0;  ///< version captured by the copy read
    bool dirty = false;         ///< foreground write landed mid-copy
    bool begun = false;         ///< kBeginChunk journaled
  };
  struct ObjectPlan {
    int object = 0;
    std::vector<Chunk> chunks;
    int64_t committed = 0;
  };

  MigrationExecutor(StorageSystem* system, const StripedVolumeManager* source,
                    const StripedVolumeManager* destination,
                    const MigrateOptions& options);

  /// Issues the next copies allowed by throttle/backpressure/pipeline.
  void Pump();
  void SchedulePump(double delay_s);
  void IssueCopy(size_t plan_index, size_t chunk_index);
  void FinishCopyRead(size_t plan_index, size_t chunk_index,
                      const Status& status);
  void FinishCopyWrite(size_t plan_index, size_t chunk_index,
                       const Status& status);
  void CommitChunk(size_t plan_index, size_t chunk_index);
  /// Copies the chunk's real bytes source → destination through
  /// options_.data_backend (no-op without one).
  Status CopyChunkReal(const ObjectPlan& plan, const Chunk& chunk);
  void Complete();
  void Rollback(int target, const std::string& reason);
  void Abort(int target, const std::string& reason);
  /// Appends to the durable journal (if any) then the in-memory one.
  /// Returns false — and freezes the executor — when the durable append
  /// failed; the caller must not apply the transition in that case.
  bool Journal(JournalKind kind, int object, int64_t chunk);

  /// Submits one copy pass (all target chunks of `range` on one side) and
  /// fires `done` with the first error once all complete.
  void SubmitCopyPass(const std::vector<TargetChunk>& chunks, ObjectId object,
                      int64_t logical_offset, bool is_write,
                      std::function<void(const Status&)> done);

  /// True when the chunk's reads serve from the destination.
  bool ServesFromDestination(const ObjectPlan& plan,
                             const Chunk& chunk) const;

  StorageSystem* system_;
  const StripedVolumeManager* source_;
  const StripedVolumeManager* destination_;
  MigrateOptions options_;

  std::vector<ObjectPlan> plans_;       ///< migrating objects only
  std::vector<int> plan_of_object_;     ///< object id → plans_ index or -1
  std::vector<std::pair<size_t, size_t>> work_;  ///< pending (plan, chunk)
  size_t work_head_ = 0;

  MigrationOutcome outcome_ = MigrationOutcome::kNotStarted;
  MigrationJournal journal_;
  mutable MigrationStats stats_;
  int failed_target_ = -1;
  std::string failure_reason_;
  ControlJournal* journal_sink_ = nullptr;
  bool journal_failed_ = false;
  Status journal_failure_;
  std::function<void()> commit_hook_;
  bool paused_ = false;
  bool pump_scheduled_ = false;
  int inflight_chunks_ = 0;
  uint64_t bg_inflight_requests_ = 0;  ///< our submissions still in flight
  int64_t objects_done_ = 0;

  // Token bucket (copied bytes).
  double tokens_ = 0.0;
  double last_refill_ = 0.0;

  // Scratch buffers reused across Route/copy submissions.
  std::vector<TargetChunk> scratch_;
  /// Real-chunk staging (data_backend runs), released once the migration
  /// ends so it never lives beside the verify pass's window.
  AlignedBuffer copy_buf_;
};

/// Everything a migration experiment reports: the foreground run, the
/// migration outcome, and consistency/latency measurements.
struct MigrationRunReport {
  RunResult run;
  MigrationOutcome outcome = MigrationOutcome::kNotStarted;
  MigrationStats stats;
  MigrationJournal journal;
  int failed_target = -1;
  std::string failure_reason;
  /// CheckReadable() at end of run.
  Status readable = Status::Ok();
  /// Foreground object-level request latencies (from the logical observer).
  uint64_t fg_requests = 0;
  double fg_mean_s = 0.0;
  double fg_p50_s = 0.0;
  double fg_p99_s = 0.0;
  /// Durable journal accounting (zero when MigrateOptions::journal_path is
  /// empty). `journal_crashed` means the injected crash policy fired and
  /// the executor froze mid-run; `journal_error` carries the reason.
  bool journal_crashed = false;
  int64_t journal_records = 0;   ///< records in the WAL at end of run
  int64_t journal_bytes = 0;     ///< WAL file size at end of run
  int64_t resumed_records = 0;   ///< records recovered before this run
  std::string journal_error;
  /// Real data plane accounting (MigrateOptions::data_backend runs only).
  bool real_backend = false;        ///< a data backend carried the bytes
  Status real_readable;             ///< end-of-run pattern verification
  int64_t real_bytes_verified = 0;  ///< bytes checked against the pattern
};

/// Runs workloads on a fresh system while migrating from `from_placements`
/// to `to_placements`, with an optional fault plan composed in. The shared
/// engine behind ExperimentRig::ExecuteWithMigration and the CLI
/// `--migrate` path.
Result<MigrationRunReport> RunMigrationSim(
    StorageSystem* system, const std::vector<int64_t>& object_sizes,
    std::vector<std::vector<int>> from_placements,
    std::vector<std::vector<int>> to_placements, int64_t lvm_stripe_bytes,
    const OlapSpec* olap, const OltpSpec* oltp, double oltp_duration_s,
    const FaultPlan& faults, const MigrateOptions& options, uint64_t seed);

/// CLI-facing migration simulation: builds a storage system from the
/// problem's targets (device models reconstructed from the calibrated cost
/// models' names — disk-15k, disk-7200, ssd), synthesizes a closed-loop
/// foreground workload from the problem's fitted workload descriptions,
/// and migrates `from` → `to` under it.
Result<MigrationRunReport> SimulateProblemMigration(
    const LayoutProblem& problem, const Layout& from, const Layout& to,
    const FaultPlan& faults, const MigrateOptions& options,
    double duration_s = 30.0, uint64_t seed = 42);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_MIGRATE_H_
