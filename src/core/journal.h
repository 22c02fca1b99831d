#ifndef LAYOUTDB_CORE_JOURNAL_H_
#define LAYOUTDB_CORE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/migrate.h"
#include "model/layout.h"
#include "model/workload.h"
#include "util/status.h"
#include "util/wal.h"

namespace ldb {

/// Digest binding a journal to one specific migration plan: object count
/// and sizes, chunking, and the from/to placements, folded with FNV-1a
/// from kJournalDigestSeed (util/fnv.h), not the FNV offset basis.
/// Recovery refuses a journal whose digest disagrees with the plan being
/// resumed — replaying chunk commits against different placements would
/// route reads at data that was never copied there.
uint64_t MigrationPlanDigest(const std::vector<int64_t>& object_sizes,
                             const std::vector<std::vector<int>>& from,
                             const std::vector<std::vector<int>>& to,
                             int64_t chunk_bytes);

/// Everything recovered from a control journal on open. The journal is a
/// sequence of *segments*: each `plan` (CLI --migrate) or `intent`
/// (autopilot decision) record starts a new migration whose `m` records
/// follow; a `ckpt` record marks an adopted layout and closes the segment.
/// Recovery keeps only what a restarted process needs: the last
/// checkpoint, and the last still-open segment's migration records.
struct RecoveredControlState {
  bool torn_tail = false;  ///< a partial final record was dropped on open
  int64_t records = 0;     ///< intact records recovered

  // Last migration segment (open or terminal, cleared by a checkpoint).
  bool has_plan = false;
  uint64_t plan_digest = 0;
  MigrationJournal migration;
  bool migration_committed = false;  ///< segment ended in kCommitMigration

  // Autopilot state.
  bool has_problem = false;     ///< a problem-binding record was present
  uint64_t problem_digest = 0;  ///< ProblemStateDigest of the bound problem
  bool has_intent = false;      ///< last segment was an autopilot intent
  Layout intent_layout = Layout(1, 1);  ///< placeholder until has_intent
  WorkloadSet intent_reference;
  bool has_checkpoint = false;
  double checkpoint_time = 0.0;
  Layout checkpoint_layout = Layout(1, 1);  ///< placeholder until set
  WorkloadSet checkpoint_reference;

  // Scenario clock (last `spos` record, NOT cleared by segment
  // boundaries): the absolute scenario position a resumed run should
  // restart the player at, so a mid-scenario kill/resume continues the
  // scenario timeline instead of replaying it from zero.
  bool has_scenario_position = false;
  double scenario_position_s = 0.0;
};

/// Resolves the layout (and drift reference) a restarted autopilot should
/// deploy: a committed-but-uncheckpointed intent wins over the last
/// checkpoint (authority switched at the commit record; the crash merely
/// beat the checkpoint append), otherwise the last checkpoint. Returns
/// false when the journal pins neither — the caller falls back to the
/// problem file's layout. An *uncommitted* intent is deliberately
/// abandoned: foreground writes always land on the source until a
/// migration commits, so the pre-intent layout is consistent and the
/// restarted controller simply re-advises.
bool ResolveDeployedState(const RecoveredControlState& state, Layout* layout,
                          WorkloadSet* reference);

/// Durable control-plane journal over a WalWriter: the MigrationExecutor's
/// records, plus the plan-binding / intent / checkpoint records the
/// migration and autopilot control paths append around them.
///
/// Write-ahead contract: the executor calls Append *before* the
/// corresponding state transition takes effect, so the on-disk log is
/// always a prefix of the applied transitions and replaying it through
/// MigrationExecutor::Resume() reconstructs a consistent executor. A
/// failed Append is treated as process death: the executor freezes
/// without applying the transition.
///
/// Sync policy ("commit points synced, intra-chunk records batched"):
/// kBeginMigration and every terminal record fsync; kBeginChunk /
/// kCommitChunk / kRecopyChunk / kCommitObject ride with the next barrier.
/// Batching chunk commits is safe because the source mirrors every
/// foreground write until the migration itself commits — losing a batched
/// record only re-copies the chunk from a still-current source. Binding,
/// intent, and checkpoint records always sync.
class ControlJournal final {
 public:
  /// Opens (creating or recovering) the journal at `path`. Torn tails are
  /// truncated; interior corruption is a hard error. `policy` arms
  /// deterministic crash injection on the underlying writer.
  static Result<std::unique_ptr<ControlJournal>> Open(
      const std::string& path, WalCrashPolicy policy = {});

  /// State recovered at Open() time (unchanged by later appends).
  const RecoveredControlState& recovered() const { return recovered_; }

  /// Appends one MigrationExecutor record; commit points sync.
  Status Append(const JournalRecord& record);

  /// Binds the following migration records to a plan digest. Synced.
  Status AppendPlanBinding(uint64_t digest);
  /// Binds the journal to a problem state (autopilot). Synced.
  Status AppendProblemBinding(uint64_t digest);
  /// Autopilot decision record: destination layout + the live reference it
  /// was advised for, written *before* the migration starts. Synced.
  Status AppendIntent(uint64_t plan_digest, const Layout& destination,
                      const WorkloadSet& reference);
  /// Adopted-layout checkpoint (closes the open segment). Synced.
  Status AppendCheckpoint(double time, const Layout& layout,
                          const WorkloadSet& reference);
  /// Scenario-clock record: the absolute scenario position (seconds into
  /// the scenario timeline) as of this append. Synced, so a kill at any
  /// later instant resumes within one autopilot tick of where it died.
  Status AppendScenarioPosition(double position_s);

  bool crashed() const { return writer_->crashed(); }
  int64_t file_bytes() const { return writer_->file_bytes(); }
  /// Total records in the file: recovered + appended this session.
  int64_t records_total() const {
    return writer_->recovered() + writer_->appended();
  }
  const std::string& path() const { return writer_->path(); }

 private:
  explicit ControlJournal(std::unique_ptr<WalWriter> writer)
      : writer_(std::move(writer)) {}

  std::unique_ptr<WalWriter> writer_;
  RecoveredControlState recovered_;
};

/// Read-only recovery (no writer, no truncation): parses the journal at
/// `path` into a RecoveredControlState. Used by tests and diagnostics.
Result<RecoveredControlState> RecoverControlState(const std::string& path);

/// Recovers the migration journal at `path` for MigrationExecutor::Resume,
/// verifying the recorded plan binding against `expected_digest` (pass the
/// MigrationPlanDigest of the plan being resumed). A digest disagreement —
/// the journal belongs to a different migration — is a hard
/// kFailedPrecondition with both digests in the message.
Result<MigrationJournal> RecoverMigrationJournal(const std::string& path,
                                                 uint64_t expected_digest);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_JOURNAL_H_
