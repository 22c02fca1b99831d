#include "core/migrate.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/journal.h"
#include "core/sim_setup.h"
#include "io/file_backend.h"
#include "io/pattern.h"
#include "storage/disk.h"
#include "storage/ssd.h"
#include "util/check.h"
#include "util/table.h"

namespace ldb {

const char* ChunkStateName(ChunkState state) {
  switch (state) {
    case ChunkState::kPending:
      return "pending";
    case ChunkState::kReading:
      return "reading";
    case ChunkState::kWriting:
      return "writing";
    case ChunkState::kCommitted:
      return "committed";
    case ChunkState::kAborted:
      return "aborted";
    case ChunkState::kRolledBack:
      return "rolled-back";
  }
  return "unknown";
}

const char* MigrationOutcomeName(MigrationOutcome outcome) {
  switch (outcome) {
    case MigrationOutcome::kNotStarted:
      return "not-started";
    case MigrationOutcome::kRunning:
      return "running";
    case MigrationOutcome::kCompleted:
      return "completed";
    case MigrationOutcome::kRolledBack:
      return "rolled-back";
    case MigrationOutcome::kAborted:
      return "aborted";
  }
  return "unknown";
}

const char* JournalKindName(JournalKind kind) {
  switch (kind) {
    case JournalKind::kBeginMigration:
      return "begin-migration";
    case JournalKind::kBeginChunk:
      return "begin-chunk";
    case JournalKind::kRecopyChunk:
      return "recopy-chunk";
    case JournalKind::kCommitChunk:
      return "commit-chunk";
    case JournalKind::kCommitObject:
      return "commit-object";
    case JournalKind::kCommitMigration:
      return "commit-migration";
    case JournalKind::kRollbackMigration:
      return "rollback-migration";
    case JournalKind::kAbortMigration:
      return "abort-migration";
  }
  return "unknown";
}

namespace {

/// How long a backpressure-deferred pump waits before rechecking.
constexpr double kBackpressureRecheckS = 0.002;

Status ValidateMigrateOptions(const MigrateOptions& options) {
  if (options.chunk_bytes <= 0) {
    return Status::InvalidArgument("migrate: chunk_bytes must be > 0");
  }
  if (options.bandwidth_bytes_per_s < 0.0) {
    return Status::InvalidArgument("migrate: bandwidth must be >= 0");
  }
  if (options.max_bg_share <= 0.0 || options.max_bg_share > 1.0) {
    return Status::InvalidArgument("migrate: max_bg_share must be in (0,1]");
  }
  if (options.max_inflight_chunks <= 0) {
    return Status::InvalidArgument("migrate: max_inflight_chunks must be > 0");
  }
  return Status::Ok();
}

}  // namespace

MigrationExecutor::MigrationExecutor(StorageSystem* system,
                                     const StripedVolumeManager* source,
                                     const StripedVolumeManager* destination,
                                     const MigrateOptions& options)
    : system_(system),
      source_(source),
      destination_(destination),
      options_(options) {}

Result<std::unique_ptr<MigrationExecutor>> MigrationExecutor::Create(
    StorageSystem* system, const StripedVolumeManager* source,
    const StripedVolumeManager* destination, const MigrateOptions& options) {
  if (system == nullptr || source == nullptr || destination == nullptr) {
    return Status::InvalidArgument("migrate: null system or volume manager");
  }
  LDB_RETURN_IF_ERROR(ValidateMigrateOptions(options));
  if (source->num_objects() != destination->num_objects()) {
    return Status::InvalidArgument(
        "migrate: source/destination object counts differ");
  }
  const int n = source->num_objects();
  for (int i = 0; i < n; ++i) {
    if (source->object_size(i) != destination->object_size(i)) {
      return Status::InvalidArgument(
          StrFormat("migrate: object %d sizes differ between layouts", i));
    }
  }

  auto exec = std::unique_ptr<MigrationExecutor>(
      new MigrationExecutor(system, source, destination, options));
  exec->plan_of_object_.assign(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    // Objects whose target set is unchanged never move; their physical
    // extents are the source manager's and stay valid regardless of what
    // other objects do (the executor always routes them via `source`).
    if (source->targets_of(i) == destination->targets_of(i)) continue;
    for (int j : destination->targets_of(i)) {
      if (j < 0 || j >= system->num_targets()) {
        return Status::InvalidArgument(
            StrFormat("migrate: object %d maps to unknown target %d", i, j));
      }
    }
    ObjectPlan plan;
    plan.object = i;
    const int64_t size = source->object_size(i);
    for (int64_t off = 0; off < size; off += options.chunk_bytes) {
      Chunk c;
      c.offset = off;
      c.size = std::min(options.chunk_bytes, size - off);
      plan.chunks.push_back(c);
    }
    exec->plan_of_object_[static_cast<size_t>(i)] =
        static_cast<int>(exec->plans_.size());
    exec->stats_.chunks_total += static_cast<int64_t>(plan.chunks.size());
    exec->plans_.push_back(std::move(plan));
  }
  exec->stats_.objects_migrating = static_cast<int>(exec->plans_.size());
  return exec;
}

Result<std::unique_ptr<MigrationExecutor>> MigrationExecutor::Resume(
    StorageSystem* system, const StripedVolumeManager* source,
    const StripedVolumeManager* destination, const MigrateOptions& options,
    const MigrationJournal& journal) {
  auto created = Create(system, source, destination, options);
  if (!created.ok()) return created.status();
  std::unique_ptr<MigrationExecutor> exec = std::move(created).value();

  // Replay the prefix. Begin records without a matching commit leave the
  // chunk pending — it will simply be copied again, which is idempotent.
  for (const JournalRecord& rec : journal) {
    switch (rec.kind) {
      case JournalKind::kBeginMigration:
        if (exec->outcome_ == MigrationOutcome::kNotStarted) {
          exec->outcome_ = MigrationOutcome::kRunning;
        }
        break;
      case JournalKind::kBeginChunk:
      case JournalKind::kRecopyChunk:
      case JournalKind::kCommitChunk: {
        if (rec.object < 0 || rec.object >= source->num_objects()) {
          return Status::InvalidArgument(StrFormat(
              "migrate journal: record names unknown object %d", rec.object));
        }
        const int pi = exec->plan_of_object_[static_cast<size_t>(rec.object)];
        if (pi < 0) {
          return Status::InvalidArgument(StrFormat(
              "migrate journal: object %d does not migrate in this plan",
              rec.object));
        }
        ObjectPlan& plan = exec->plans_[static_cast<size_t>(pi)];
        if (rec.chunk < 0 ||
            rec.chunk >= static_cast<int64_t>(plan.chunks.size())) {
          return Status::InvalidArgument(
              StrFormat("migrate journal: chunk %lld out of range for "
                        "object %d",
                        static_cast<long long>(rec.chunk), rec.object));
        }
        Chunk& c = plan.chunks[static_cast<size_t>(rec.chunk)];
        c.begun = true;
        if (rec.kind == JournalKind::kCommitChunk &&
            c.state != ChunkState::kCommitted) {
          c.state = ChunkState::kCommitted;
          ++plan.committed;
          ++exec->stats_.chunks_committed;
        }
        break;
      }
      case JournalKind::kCommitObject:
        break;  // implied by its chunk commits; recomputed below
      case JournalKind::kCommitMigration:
        exec->outcome_ = MigrationOutcome::kCompleted;
        break;
      case JournalKind::kRollbackMigration:
        exec->outcome_ = MigrationOutcome::kRolledBack;
        break;
      case JournalKind::kAbortMigration:
        exec->outcome_ = MigrationOutcome::kAborted;
        break;
    }
  }
  exec->journal_ = journal;
  for (ObjectPlan& plan : exec->plans_) {
    if (plan.committed == static_cast<int64_t>(plan.chunks.size())) {
      ++exec->objects_done_;
      ++exec->stats_.objects_committed;
    }
  }
  switch (exec->outcome_) {
    case MigrationOutcome::kRolledBack:
      for (ObjectPlan& plan : exec->plans_) {
        for (Chunk& c : plan.chunks) c.state = ChunkState::kRolledBack;
      }
      break;
    case MigrationOutcome::kAborted:
      for (ObjectPlan& plan : exec->plans_) {
        for (Chunk& c : plan.chunks) {
          if (c.state != ChunkState::kCommitted) {
            c.state = ChunkState::kAborted;
          }
        }
      }
      break;
    default:
      break;
  }
  return exec;
}

int MigrationExecutor::num_objects() const { return source_->num_objects(); }

int64_t MigrationExecutor::object_size(ObjectId i) const {
  return source_->object_size(i);
}

const MigrationStats& MigrationExecutor::stats() const { return stats_; }

bool MigrationExecutor::Journal(JournalKind kind, int object, int64_t chunk) {
  if (journal_failed_) return false;
  const JournalRecord rec{kind, object, chunk};
  if (journal_sink_ != nullptr) {
    const Status s = journal_sink_->Append(rec);
    if (!s.ok()) {
      // The durable intent could not be recorded: behave as if the process
      // died here. Freeze — the transition must NOT take effect, and no
      // further copies are issued. Recovery replays the on-disk prefix.
      journal_failed_ = true;
      journal_failure_ = s;
      paused_ = true;
      work_.clear();
      work_head_ = 0;
      return false;
    }
  }
  journal_.push_back(rec);
  return true;
}

void MigrationExecutor::Start() {
  if (journal_failed_) return;
  paused_ = false;
  if (outcome_ == MigrationOutcome::kNotStarted) {
    if (!Journal(JournalKind::kBeginMigration, -1, -1)) return;
    outcome_ = MigrationOutcome::kRunning;
    for (size_t pi = 0; pi < plans_.size(); ++pi) {
      const ObjectPlan& plan = plans_[pi];
      for (size_t ci = 0; ci < plan.chunks.size(); ++ci) {
        if (plan.chunks[ci].state == ChunkState::kPending) {
          work_.emplace_back(pi, ci);
        }
      }
    }
  } else if (outcome_ == MigrationOutcome::kRunning && work_.empty() &&
             work_head_ == 0 && inflight_chunks_ == 0 &&
             objects_done_ < static_cast<int64_t>(plans_.size())) {
    // Resumed from a journal prefix: rebuild the work list.
    for (size_t pi = 0; pi < plans_.size(); ++pi) {
      const ObjectPlan& plan = plans_[pi];
      for (size_t ci = 0; ci < plan.chunks.size(); ++ci) {
        if (plan.chunks[ci].state == ChunkState::kPending) {
          work_.emplace_back(pi, ci);
        }
      }
    }
  }
  if (outcome_ != MigrationOutcome::kRunning) return;
  if (stats_.start_time < 0.0) stats_.start_time = system_->Now();
  if (objects_done_ == static_cast<int64_t>(plans_.size())) {
    // Nothing (left) to copy. An empty plan completes synchronously and
    // schedules zero events — the bit-for-bit no-op guarantee.
    Complete();
    return;
  }
  // Token bucket starts full.
  if (options_.bandwidth_bytes_per_s > 0.0 && tokens_ <= 0.0) {
    tokens_ = static_cast<double>(options_.chunk_bytes);
    last_refill_ = system_->Now();
  }
  Pump();
}

void MigrationExecutor::Pause() { paused_ = true; }

void MigrationExecutor::SchedulePump(double delay_s) {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  system_->queue().ScheduleAfter(delay_s, [this]() {
    pump_scheduled_ = false;
    Pump();
  });
}

void MigrationExecutor::Pump() {
  if (outcome_ != MigrationOutcome::kRunning || paused_ || journal_failed_) {
    return;
  }
  while (work_head_ < work_.size() &&
         inflight_chunks_ < options_.max_inflight_chunks) {
    const auto [pi, ci] = work_[work_head_];
    ObjectPlan& plan = plans_[pi];
    Chunk& c = plan.chunks[ci];
    if (c.state != ChunkState::kPending) {  // stale entry
      ++work_head_;
      continue;
    }

    // Health gates: a dead destination rolls the migration back before any
    // more copies are wasted; a dead source means copies cannot proceed.
    for (int j : destination_->targets_of(plan.object)) {
      if (!system_->target(j).serviceable()) {
        Rollback(j, StrFormat("destination target %s unserviceable",
                              system_->target(j).name().c_str()));
        return;
      }
    }
    for (int j : source_->targets_of(plan.object)) {
      if (!system_->target(j).serviceable()) {
        Abort(j, StrFormat("source target %s unserviceable",
                           system_->target(j).name().c_str()));
        return;
      }
    }

    // Backpressure: counting the next copy in, keep migration's share of
    // in-flight requests at or below max_bg_share while foreground I/O is
    // queued.
    if (options_.max_bg_share < 1.0) {
      const uint64_t total = system_->InflightRequests();
      LDB_CHECK_GE(total, bg_inflight_requests_);
      const uint64_t fg = total - bg_inflight_requests_;
      if (fg > 0) {
        const double bg = static_cast<double>(bg_inflight_requests_) + 1.0;
        if (bg / (bg + static_cast<double>(fg)) > options_.max_bg_share) {
          ++stats_.backpressure_deferrals;
          SchedulePump(kBackpressureRecheckS);
          return;
        }
      }
    }

    // Token bucket, in copied bytes; it holds one chunk.
    if (options_.bandwidth_bytes_per_s > 0.0) {
      const double cap = static_cast<double>(options_.chunk_bytes);
      const double now = system_->Now();
      tokens_ = std::min(
          cap, tokens_ + (now - last_refill_) * options_.bandwidth_bytes_per_s);
      last_refill_ = now;
      const double need = static_cast<double>(c.size);
      // Sub-byte deficits are FP rounding, not real debt; waiting on them
      // would schedule zero-length waits that never advance simulated time.
      if (need - tokens_ >= 1.0) {
        const double wait =
            (need - tokens_) / options_.bandwidth_bytes_per_s;
        stats_.throttle_wait_s += wait;
        SchedulePump(wait);
        return;
      }
      tokens_ = std::max(0.0, tokens_ - need);
    }

    ++work_head_;
    IssueCopy(pi, ci);
  }
  if (work_head_ >= work_.size()) {
    work_.clear();
    work_head_ = 0;
  }
}

void MigrationExecutor::IssueCopy(size_t plan_index, size_t chunk_index) {
  ObjectPlan& plan = plans_[plan_index];
  Chunk& c = plan.chunks[chunk_index];
  LDB_CHECK(c.state == ChunkState::kPending);
  if (!c.begun) {
    if (!Journal(JournalKind::kBeginChunk, plan.object,
                 static_cast<int64_t>(chunk_index))) {
      return;  // frozen; the chunk stays pending for recovery to re-copy
    }
    c.begun = true;
  }
  c.state = ChunkState::kReading;
  c.read_version = c.cur_version;
  ++inflight_chunks_;
  stats_.bytes_read += c.size;
  scratch_.clear();
  source_->Map(plan.object, c.offset, c.size, &scratch_);
  SubmitCopyPass(scratch_, plan.object, c.offset, /*is_write=*/false,
                 [this, plan_index, chunk_index](const Status& s) {
                   FinishCopyRead(plan_index, chunk_index, s);
                 });
}

void MigrationExecutor::SubmitCopyPass(
    const std::vector<TargetChunk>& chunks, ObjectId object,
    int64_t logical_offset, bool is_write,
    std::function<void(const Status&)> done) {
  struct PassState {
    int pending = 0;
    Status status;
    std::function<void(const Status&)> done;
  };
  auto state = std::make_shared<PassState>();
  state->pending = static_cast<int>(chunks.size());
  state->done = std::move(done);
  int64_t logical = logical_offset;
  for (const TargetChunk& tc : chunks) {
    TargetRequest tr;
    tr.offset = tc.offset;
    tr.size = tc.size;
    tr.is_write = is_write;
    tr.object = object;
    tr.logical_offset = logical;
    logical += tc.size;
    ++bg_inflight_requests_;
    system_->SubmitWithStatus(
        tc.target, tr, [this, state](double, const Status& s) {
          LDB_CHECK_GT(bg_inflight_requests_, 0u);
          --bg_inflight_requests_;
          if (!s.ok() && state->status.ok()) state->status = s;
          if (--state->pending == 0) state->done(state->status);
        });
  }
}

void MigrationExecutor::FinishCopyRead(size_t plan_index, size_t chunk_index,
                                       const Status& status) {
  ObjectPlan& plan = plans_[plan_index];
  Chunk& c = plan.chunks[chunk_index];
  if (outcome_ != MigrationOutcome::kRunning || journal_failed_) {
    --inflight_chunks_;
    return;  // a terminal transition (or journal crash) froze the executor
  }
  if (!status.ok()) {
    --inflight_chunks_;
    Abort(-1, StrFormat("copy read failed: %s", status.message().c_str()));
    return;
  }
  LDB_CHECK(c.state == ChunkState::kReading);
  c.state = ChunkState::kWriting;
  stats_.bytes_written += c.size;
  scratch_.clear();
  destination_->Map(plan.object, c.offset, c.size, &scratch_);
  SubmitCopyPass(scratch_, plan.object, c.offset, /*is_write=*/true,
                 [this, plan_index, chunk_index](const Status& s) {
                   FinishCopyWrite(plan_index, chunk_index, s);
                 });
}

void MigrationExecutor::FinishCopyWrite(size_t plan_index, size_t chunk_index,
                                        const Status& status) {
  --inflight_chunks_;
  if (outcome_ != MigrationOutcome::kRunning || journal_failed_) return;
  ObjectPlan& plan = plans_[plan_index];
  Chunk& c = plan.chunks[chunk_index];
  if (!status.ok()) {
    Rollback(-1, StrFormat("copy write failed: %s", status.message().c_str()));
    return;
  }
  LDB_CHECK(c.state == ChunkState::kWriting);
  if (c.dirty) {
    // A foreground write landed while the copy was in flight: the
    // destination holds a stale version. Re-queue the chunk.
    if (!Journal(JournalKind::kRecopyChunk, plan.object,
                 static_cast<int64_t>(chunk_index))) {
      return;  // frozen; begun-without-commit chunks are re-copied anyway
    }
    c.dirty = false;
    c.state = ChunkState::kPending;
    ++stats_.chunks_recopied;
    work_.emplace_back(plan_index, chunk_index);
    Pump();
    return;
  }
  LDB_CHECK(c.read_version == c.cur_version);
  c.dst_version = c.read_version;
  CommitChunk(plan_index, chunk_index);
  Pump();
}

void MigrationExecutor::CommitChunk(size_t plan_index, size_t chunk_index) {
  ObjectPlan& plan = plans_[plan_index];
  Chunk& c = plan.chunks[chunk_index];
  if (options_.data_backend != nullptr) {
    // Real data plane: move the chunk's actual bytes before the commit
    // record, so a journaled commit always implies a copied chunk and
    // unjournaled chunks are simply re-copied on resume.
    const Status copied = CopyChunkReal(plan, c);
    if (!copied.ok()) {
      Rollback(-1, StrFormat("real chunk copy failed: %s",
                             copied.message().c_str()));
      return;
    }
  }
  if (!Journal(JournalKind::kCommitChunk, plan.object,
               static_cast<int64_t>(chunk_index))) {
    return;  // frozen; the chunk stays kWriting, recovery re-copies it
  }
  c.state = ChunkState::kCommitted;
  ++stats_.chunks_committed;
  ++plan.committed;
  if (plan.committed == static_cast<int64_t>(plan.chunks.size())) {
    // Object commits are derivable from their chunk commits, so a frozen
    // append here loses no recovery information — stop quietly.
    if (!Journal(JournalKind::kCommitObject, plan.object, -1)) return;
    ++stats_.objects_committed;
    ++objects_done_;
  }
  if (objects_done_ == static_cast<int64_t>(plans_.size())) {
    Complete();  // fires the commit hook itself
    return;
  }
  if (commit_hook_) commit_hook_();
}

Status MigrationExecutor::CopyChunkReal(const ObjectPlan& plan,
                                        const Chunk& chunk) {
  FileBackend* backend = options_.data_backend;
  LDB_RETURN_IF_ERROR(copy_buf_.Reserve(
      chunk.size, backend->geometry().logical_block_bytes));
  scratch_.clear();
  source_->Map(plan.object, chunk.offset, chunk.size, &scratch_);
  LDB_RETURN_IF_ERROR(
      backend->TransferChunks(scratch_, /*is_write=*/false, copy_buf_.data()));
  scratch_.clear();
  destination_->Map(plan.object, chunk.offset, chunk.size, &scratch_);
  LDB_RETURN_IF_ERROR(
      backend->TransferChunks(scratch_, /*is_write=*/true, copy_buf_.data()));
  scratch_.clear();
  return Status::Ok();
}

void MigrationExecutor::Complete() {
  // Every chunk is copied: free the staging buffer before the caller's
  // verify pass stages its own window.
  copy_buf_.Release();
  // Real data plane: the destination's bytes must be on media before the
  // commit record makes the new layout authoritative.
  if (options_.data_backend != nullptr) {
    const Status synced = options_.data_backend->Sync();
    if (!synced.ok()) {
      Rollback(-1, StrFormat("backend sync failed: %s",
                             synced.message().c_str()));
      return;
    }
  }
  // Write-ahead: authority switches to the destination only once the
  // commit record is durable. A frozen append leaves the executor running
  // (source authoritative) for recovery to finish.
  if (!Journal(JournalKind::kCommitMigration, -1, -1)) return;
  outcome_ = MigrationOutcome::kCompleted;
  stats_.end_time = system_->Now();
  if (commit_hook_) commit_hook_();
}

void MigrationExecutor::Rollback(int target, const std::string& reason) {
  if (outcome_ != MigrationOutcome::kRunning) return;
  if (!Journal(JournalKind::kRollbackMigration, -1, -1)) return;
  outcome_ = MigrationOutcome::kRolledBack;
  failed_target_ = target;
  failure_reason_ = reason;
  stats_.end_time = system_->Now();
  copy_buf_.Release();
  // The source is authoritative for every chunk: foreground writes always
  // landed there, so no data is lost.
  for (ObjectPlan& plan : plans_) {
    for (Chunk& c : plan.chunks) c.state = ChunkState::kRolledBack;
  }
  work_.clear();
  work_head_ = 0;
  if (commit_hook_) commit_hook_();
}

void MigrationExecutor::Abort(int target, const std::string& reason) {
  if (outcome_ != MigrationOutcome::kRunning) return;
  if (!Journal(JournalKind::kAbortMigration, -1, -1)) return;
  outcome_ = MigrationOutcome::kAborted;
  failed_target_ = target;
  failure_reason_ = reason;
  stats_.end_time = system_->Now();
  copy_buf_.Release();
  // Committed chunks keep serving the destination; the rest stay pointed
  // at the (possibly broken) source — re-planning is the caller's move.
  for (ObjectPlan& plan : plans_) {
    for (Chunk& c : plan.chunks) {
      if (c.state != ChunkState::kCommitted) c.state = ChunkState::kAborted;
    }
  }
  work_.clear();
  work_head_ = 0;
  if (commit_hook_) commit_hook_();
}

bool MigrationExecutor::ServesFromDestination(const ObjectPlan& /*plan*/,
                                              const Chunk& chunk) const {
  return chunk.state == ChunkState::kCommitted;
}

void MigrationExecutor::Route(ObjectId object, int64_t offset, int64_t size,
                              bool is_write, std::vector<TargetChunk>* out) {
  const int pi = plan_of_object_[static_cast<size_t>(object)];
  if (pi < 0) {
    // Non-migrating objects live in their source extents forever.
    source_->Map(object, offset, size, out);
    return;
  }
  if (outcome_ == MigrationOutcome::kCompleted) {
    destination_->Map(object, offset, size, out);
    return;
  }
  if (outcome_ == MigrationOutcome::kRolledBack) {
    source_->Map(object, offset, size, out);
    return;
  }
  ObjectPlan& plan = plans_[static_cast<size_t>(pi)];

  enum class Side { kSource, kDestination, kBoth };
  const int64_t end = offset + size;
  int64_t seg_start = offset;
  Side seg_side = Side::kSource;
  bool seg_open = false;
  const auto flush = [&](int64_t seg_end) {
    if (!seg_open || seg_end <= seg_start) return;
    const int64_t len = seg_end - seg_start;
    if (seg_side != Side::kDestination) {
      source_->Map(object, seg_start, len, out);
    }
    if (seg_side != Side::kSource) {
      destination_->Map(object, seg_start, len, out);
    }
  };

  int64_t pos = offset;
  while (pos < end) {
    const size_t ci = static_cast<size_t>(pos / options_.chunk_bytes);
    const int64_t chunk_end = std::min(
        end, (static_cast<int64_t>(ci) + 1) * options_.chunk_bytes);
    Chunk& c = plan.chunks[ci];
    Side side;
    if (is_write) {
      ++c.cur_version;
      if (outcome_ == MigrationOutcome::kAborted) {
        // Frozen routing: committed chunks live on the destination, the
        // rest on the source.
        if (c.state == ChunkState::kCommitted) {
          c.dst_version = c.cur_version;
          side = Side::kDestination;
        } else {
          c.src_version = c.cur_version;
          side = Side::kSource;
        }
      } else {
        // Pre-commit, the source takes every write (rollback stays
        // consistent); committed chunks mirror onto the destination to
        // keep it current too.
        c.src_version = c.cur_version;
        if (c.state == ChunkState::kCommitted) {
          c.dst_version = c.cur_version;
          side = Side::kBoth;
        } else {
          if (c.state == ChunkState::kReading ||
              c.state == ChunkState::kWriting) {
            c.dirty = true;  // the in-flight copy is stale; re-copy
          }
          side = Side::kSource;
        }
      }
    } else {
      side = ServesFromDestination(plan, c) ? Side::kDestination
                                            : Side::kSource;
    }
    if (!seg_open) {
      seg_open = true;
      seg_start = pos;
      seg_side = side;
    } else if (side != seg_side) {
      flush(pos);
      seg_start = pos;
      seg_side = side;
    }
    pos = chunk_end;
  }
  flush(end);
}

Status MigrationExecutor::CheckReadable() const {
  for (int i = 0; i < source_->num_objects(); ++i) {
    const int pi = plan_of_object_[static_cast<size_t>(i)];
    const int64_t size = source_->object_size(i);
    const auto check_targets = [&](const StripedVolumeManager* mgr,
                                   int64_t off, int64_t len) -> Status {
      std::vector<TargetChunk> chunks;
      mgr->Map(i, off, len, &chunks);
      for (const TargetChunk& tc : chunks) {
        if (!system_->target(tc.target).serviceable()) {
          return Status::IoError(
              StrFormat("object %d [%lld,+%lld) unreadable: target %s down",
                        i, static_cast<long long>(off),
                        static_cast<long long>(len),
                        system_->target(tc.target).name().c_str()));
        }
      }
      return Status::Ok();
    };
    if (pi < 0 || outcome_ == MigrationOutcome::kRolledBack) {
      LDB_RETURN_IF_ERROR(check_targets(source_, 0, size));
      continue;
    }
    if (outcome_ == MigrationOutcome::kCompleted) {
      LDB_RETURN_IF_ERROR(check_targets(destination_, 0, size));
      continue;
    }
    const ObjectPlan& plan = plans_[static_cast<size_t>(pi)];
    for (size_t ci = 0; ci < plan.chunks.size(); ++ci) {
      const Chunk& c = plan.chunks[ci];
      const bool dst = ServesFromDestination(plan, c);
      const uint64_t serving = dst ? c.dst_version : c.src_version;
      if (serving != c.cur_version) {
        return Status::Internal(StrFormat(
            "object %d chunk %zu: serving version %llu != current %llu", i,
            ci, static_cast<unsigned long long>(serving),
            static_cast<unsigned long long>(c.cur_version)));
      }
      LDB_RETURN_IF_ERROR(
          check_targets(dst ? destination_ : source_, c.offset, c.size));
    }
  }
  return Status::Ok();
}

std::string MigrationExecutor::StateFingerprint() const {
  std::string out = MigrationOutcomeName(outcome_);
  for (const ObjectPlan& plan : plans_) {
    out += StrFormat("|%d:", plan.object);
    for (const Chunk& c : plan.chunks) {
      // Routing-relevant digest: which side serves reads of this chunk.
      const bool dst = outcome_ == MigrationOutcome::kCompleted ||
                       (outcome_ != MigrationOutcome::kRolledBack &&
                        ServesFromDestination(plan, c));
      out += dst ? 'D' : 'S';
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Harness-level entry points.

Result<MigrationRunReport> RunMigrationSim(
    StorageSystem* system, const std::vector<int64_t>& object_sizes,
    std::vector<std::vector<int>> from_placements,
    std::vector<std::vector<int>> to_placements, int64_t lvm_stripe_bytes,
    const OlapSpec* olap, const OltpSpec* oltp, double oltp_duration_s,
    const FaultPlan& faults, const MigrateOptions& options, uint64_t seed) {
  if (options.resume && options.journal_path.empty()) {
    return Status::InvalidArgument(
        "migrate: --resume requires a journal path");
  }
  const uint64_t plan_digest = MigrationPlanDigest(
      object_sizes, from_placements, to_placements, options.chunk_bytes);
  auto source = StripedVolumeManager::Create(
      object_sizes, std::move(from_placements), system->capacities(),
      lvm_stripe_bytes);
  if (!source.ok()) return source.status();
  auto destination = StripedVolumeManager::Create(
      object_sizes, std::move(to_placements), system->capacities(),
      lvm_stripe_bytes);
  if (!destination.ok()) return destination.status();
  // Real data plane: the destination's extents must land on disjoint media
  // from the source's (both managers allocate simulated offsets from 0, so
  // without the epoch shift a destination write would clobber source bytes
  // that later chunks still read). Same assignment on resume, so recovered
  // committed chunks are found where the dead process put them.
  if (options.data_backend != nullptr) destination->set_data_epoch(1);

  // Durable control plane: recover (and digest-check) the journal before
  // the writer truncates its torn tail, then open it for appending.
  std::unique_ptr<ControlJournal> journal;
  std::unique_ptr<MigrationExecutor> exec;
  int64_t resumed_records = 0;
  if (!options.journal_path.empty()) {
    MigrationJournal recovered;
    if (options.resume) {
      auto prior = RecoverMigrationJournal(options.journal_path, plan_digest);
      if (!prior.ok()) return prior.status();
      recovered = std::move(prior).value();
      resumed_records = static_cast<int64_t>(recovered.size());
    }
    auto opened =
        ControlJournal::Open(options.journal_path, options.journal_crash);
    if (!opened.ok()) return opened.status();
    journal = std::move(opened).value();
    if (options.resume) {
      auto resumed = MigrationExecutor::Resume(system, &*source, &*destination,
                                               options, recovered);
      if (!resumed.ok()) return resumed.status();
      exec = std::move(resumed).value();
    } else {
      const Status bind = journal->AppendPlanBinding(plan_digest);
      // A simulated crash during binding means the process died at t=0:
      // the run proceeds and freezes on the executor's first record.
      if (!bind.ok() && !journal->crashed()) return bind;
      auto created =
          MigrationExecutor::Create(system, &*source, &*destination, options);
      if (!created.ok()) return created.status();
      exec = std::move(created).value();
    }
    exec->set_journal_sink(journal.get());
  } else {
    auto created =
        MigrationExecutor::Create(system, &*source, &*destination, options);
    if (!created.ok()) return created.status();
    exec = std::move(created).value();
  }

  // Real data plane: on a fresh run, lay every object's verification
  // pattern down at its *source* location before any chunk moves. Resumed
  // runs inherit the bytes a previous (killed) process wrote — committed
  // chunks already live at the destination, so re-populating would
  // clobber exactly the state the resume drill is checking.
  if (options.data_backend != nullptr && !options.resume) {
    PassthroughRouter initial(&*source);
    LDB_RETURN_IF_ERROR(
        PopulateBackendPattern(options.data_backend, &initial));
  }

  // Arm faults before the run (fault times are run-start-relative; the
  // runner's target Reset preserves fault RNG seeds and retry policy).
  FaultInjector injector(system, faults);
  LDB_RETURN_IF_ERROR(injector.Arm());

  // Start the copy engine via the queue so it begins after the runner's
  // quiescent reset, with foreground traffic already flowing.
  system->queue().ScheduleAfter(0.0, [&exec]() { exec->Start(); });

  WorkloadRunner runner(system, exec.get(), seed);
  std::vector<double> latencies;
  runner.set_logical_observer([&latencies](const IoEvent& ev) {
    latencies.push_back(ev.complete_time - ev.submit_time);
  });

  Result<RunResult> run = runner.Run(olap, oltp, oltp_duration_s);
  if (!run.ok()) return run.status();

  MigrationRunReport report;
  report.run = std::move(run).value();
  report.run.skipped_faults = injector.skipped();
  report.outcome = exec->outcome();
  report.stats = exec->stats();
  report.journal = exec->journal();
  report.failed_target = exec->failed_target();
  report.failure_reason = exec->failure_reason();
  report.readable = exec->CheckReadable();
  report.resumed_records = resumed_records;
  if (journal != nullptr) {
    report.journal_crashed = journal->crashed() || exec->journal_failed();
    report.journal_records = journal->records_total();
    report.journal_bytes = journal->file_bytes();
    if (exec->journal_failed()) {
      report.journal_error = exec->journal_failure().message();
    } else if (journal->crashed()) {
      report.journal_error = "wal: simulated crash";
    }
  }
  // "Every byte readable" on real media: read the whole object space back
  // through the executor's authoritative routing and check the pattern.
  if (options.data_backend != nullptr) {
    report.real_backend = true;
    auto verified = VerifyBackendPattern(options.data_backend, exec.get());
    if (verified.ok()) {
      report.real_readable = Status::Ok();
      report.real_bytes_verified = *verified;
    } else {
      report.real_readable = verified.status();
    }
  }
  report.fg_requests = static_cast<uint64_t>(latencies.size());
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double l : latencies) sum += l;
    report.fg_mean_s = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    const auto quantile = [&latencies](double q) {
      const size_t idx = static_cast<size_t>(
          q * static_cast<double>(latencies.size() - 1) + 0.5);
      return latencies[std::min(idx, latencies.size() - 1)];
    };
    report.fg_p50_s = quantile(0.50);
    report.fg_p99_s = quantile(0.99);
  }
  return report;
}

Result<MigrationRunReport> SimulateProblemMigration(
    const LayoutProblem& problem, const Layout& from, const Layout& to,
    const FaultPlan& faults, const MigrateOptions& options, double duration_s,
    uint64_t seed) {
  LDB_RETURN_IF_ERROR(problem.Validate());
  if (duration_s <= 0.0) {
    return Status::InvalidArgument("migrate: duration must be positive");
  }
  // The source layout is the pre-existing physical state; it may violate
  // administrative pin/separate constraints (which can be why the
  // migration is happening at all). Only the destination must honor them.
  auto from_placements =
      LayoutToPlacements(problem, from, /*check_placement_constraints=*/false);
  if (!from_placements.ok()) return from_placements.status();
  auto to_placements = LayoutToPlacements(problem, to);
  if (!to_placements.ok()) return to_placements.status();

  auto rebuilt = BuildSystemForProblem(problem);
  if (!rebuilt.ok()) return rebuilt.status();
  auto fg = SyntheticForeground(problem, "migrate-fg", "migrate");
  if (!fg.ok()) return fg.status();

  return RunMigrationSim(rebuilt->system.get(), problem.object_sizes,
                         std::move(from_placements).value(),
                         std::move(to_placements).value(),
                         problem.lvm_stripe_bytes, /*olap=*/nullptr,
                         &fg.value(), duration_s, faults, options, seed);
}

}  // namespace ldb
