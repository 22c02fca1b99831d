#include "storage/target.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

const char* RaidLevelName(RaidLevel level) {
  switch (level) {
    case RaidLevel::kRaid0:
      return "raid0";
    case RaidLevel::kRaid1:
      return "raid1";
    case RaidLevel::kRaid5:
      return "raid5";
  }
  return "unknown";
}

StorageTarget::StorageTarget(std::string name,
                             std::vector<std::unique_ptr<BlockDevice>> members,
                             int64_t stripe_bytes, EventQueue* queue,
                             double scheduler_max_wait_s,
                             RaidLevel raid_level)
    : name_(std::move(name)),
      members_(std::move(members)),
      stripe_bytes_(stripe_bytes),
      queue_(queue),
      scheduler_max_wait_s_(scheduler_max_wait_s),
      raid_level_(raid_level) {
  LDB_CHECK_GT(scheduler_max_wait_s_, 0.0);
  LDB_CHECK(!members_.empty());
  LDB_CHECK(queue_ != nullptr);
  LDB_CHECK_GT(stripe_bytes_, 0);
  int64_t member_capacity_sum = 0;
  for (const auto& m : members_) {
    LDB_CHECK(m != nullptr);
    LDB_CHECK(m->model_name() == members_.front()->model_name());
    member_capacity_sum += m->capacity_bytes();
  }
  const int64_t k = static_cast<int64_t>(members_.size());
  switch (raid_level_) {
    case RaidLevel::kRaid0:
      capacity_bytes_ = member_capacity_sum;
      break;
    case RaidLevel::kRaid1:
      LDB_CHECK_MSG(k >= 2, "RAID1 needs at least two members");
      capacity_bytes_ = members_.front()->capacity_bytes();
      break;
    case RaidLevel::kRaid5:
      LDB_CHECK_MSG(k >= 3, "RAID5 needs at least three members");
      capacity_bytes_ = member_capacity_sum / k * (k - 1);
      break;
  }
  member_queues_.resize(members_.size());
  raid0_acc_.resize(members_.size());
  member_busy_.assign(members_.size(), false);
  member_health_.assign(members_.size(), MemberHealth::kHealthy);
  member_latency_scale_.assign(members_.size(), 1.0);
  member_error_prob_.assign(members_.size(), 0.0);
  rebuild_pos_.assign(members_.size(), 0);
  rebuild_chunk_.assign(members_.size(), 4 * kMiB);
}

int64_t StorageTarget::AllocateSlot(StatusCompletion done) {
  int64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    inflight_[slot] = Inflight{};
  } else {
    slot = static_cast<int64_t>(inflight_.size());
    inflight_.emplace_back();
  }
  inflight_[slot].done = std::move(done);
  return slot;
}

void StorageTarget::EnqueueSub(size_t m, const DeviceRequest& dev_req,
                               int64_t slot, int* subs) {
  member_queues_[m].push_back(SubRequest{dev_req, slot, queue_->Now(), 0});
  ++*subs;
}

int StorageTarget::ServingCount() const {
  int count = 0;
  for (size_t m = 0; m < members_.size(); ++m) {
    if (Serves(m)) ++count;
  }
  return count;
}

int StorageTarget::SubmitRaid0(const TargetRequest& req, int64_t slot) {
  const int64_t k = static_cast<int64_t>(members_.size());
  int64_t off = req.offset;
  int64_t remaining = req.size;
  int subs = 0;
  // Coalesce adjacent same-member chunks (a request larger than stripe*k
  // wraps back onto the same member). Every extent is inactive between
  // calls.
  std::vector<MemberExtent>& acc = raid0_acc_;
  auto flush = [&](size_t m) {
    if (!acc[m].active) return;
    EnqueueSub(m, DeviceRequest{acc[m].offset, acc[m].size, req.is_write},
               slot, &subs);
    acc[m] = MemberExtent{};
  };
  while (remaining > 0) {
    const int64_t stripe_index = off / stripe_bytes_;
    const int64_t within = off % stripe_bytes_;
    const int64_t chunk = std::min(remaining, stripe_bytes_ - within);
    const size_t member = static_cast<size_t>(stripe_index % k);
    const int64_t member_off = (stripe_index / k) * stripe_bytes_ + within;
    if (acc[member].active &&
        acc[member].offset + acc[member].size == member_off) {
      acc[member].size += chunk;
    } else {
      flush(member);
      acc[member].active = true;
      acc[member].offset = member_off;
      acc[member].size = chunk;
    }
    off += chunk;
    remaining -= chunk;
  }
  for (size_t m = 0; m < members_.size(); ++m) flush(m);
  return subs;
}

int StorageTarget::SubmitRaid1(const TargetRequest& req, int64_t slot) {
  int subs = 0;
  if (req.is_write) {
    // Mirrored write: every serving member writes the same extent. A dead
    // or rebuilding member is skipped; survivors carry the data.
    for (size_t m = 0; m < members_.size(); ++m) {
      if (!Serves(m)) continue;
      EnqueueSub(m, DeviceRequest{req.offset, req.size, true}, slot, &subs);
    }
  } else {
    // Read from one serving member, rotating to spread load.
    const int count = ServingCount();
    if (count < num_members()) ++stats_.degraded_reads;
    size_t pick = next_read_member_++ % static_cast<size_t>(count);
    for (size_t m = 0; m < members_.size(); ++m) {
      if (!Serves(m)) continue;
      if (pick == 0) {
        EnqueueSub(m, DeviceRequest{req.offset, req.size, false}, slot,
                   &subs);
        break;
      }
      --pick;
    }
  }
  return subs;
}

int StorageTarget::SubmitRaid5(const TargetRequest& req, int64_t slot) {
  // Left-symmetric RAID5: stripe row r keeps its parity chunk on member
  // (k-1 - r mod k); data chunks occupy the remaining k-1 members.
  const int64_t k = static_cast<int64_t>(members_.size());
  const int64_t data_cols = k - 1;
  int64_t off = req.offset;
  int64_t remaining = req.size;
  int subs = 0;
  int64_t last_parity_row = -1;
  while (remaining > 0) {
    const int64_t stripe_index = off / stripe_bytes_;
    const int64_t within = off % stripe_bytes_;
    const int64_t chunk = std::min(remaining, stripe_bytes_ - within);
    const int64_t row = stripe_index / data_cols;
    const int64_t col = stripe_index % data_cols;
    const int64_t parity_member = (k - 1) - (row % k);
    const int64_t data_member = col < parity_member ? col : col + 1;
    const int64_t member_off = row * stripe_bytes_ + within;
    const size_t dm = static_cast<size_t>(data_member);
    const size_t pm = static_cast<size_t>(parity_member);
    if (!req.is_write) {
      if (Serves(dm)) {
        EnqueueSub(dm, DeviceRequest{member_off, chunk, false}, slot, &subs);
      } else {
        // Degraded read: reconstruct the chunk by reading the row from
        // every surviving member (data and parity alike).
        ++stats_.degraded_reads;
        for (size_t s = 0; s < members_.size(); ++s) {
          if (!Serves(s)) continue;
          EnqueueSub(s, DeviceRequest{member_off, chunk, false}, slot, &subs);
        }
      }
    } else if (Serves(dm)) {
      EnqueueSub(dm, DeviceRequest{member_off, chunk, true}, slot, &subs);
      if (Serves(pm) && row != last_parity_row) {
        // Parity read-modify-write for the touched row (one RMW per row:
        // adjacent chunks in the row share the parity update). With the
        // parity member down the data write stands alone.
        EnqueueSub(pm, DeviceRequest{member_off, chunk, false}, slot, &subs);
        EnqueueSub(pm, DeviceRequest{member_off, chunk, true}, slot, &subs);
        last_parity_row = row;
      }
    } else {
      // Degraded write to a dead data member: the new data lives only in
      // parity — read the row's surviving chunks, write the new parity.
      for (size_t s = 0; s < members_.size(); ++s) {
        if (!Serves(s) || s == pm) continue;
        EnqueueSub(s, DeviceRequest{member_off, chunk, false}, slot, &subs);
      }
      EnqueueSub(pm, DeviceRequest{member_off, chunk, true}, slot, &subs);
      last_parity_row = row;
    }
    off += chunk;
    remaining -= chunk;
  }
  return subs;
}

void StorageTarget::Submit(const TargetRequest& req, Completion done) {
  if (done) {
    SubmitWithStatus(req,
                     StatusCompletion([done = std::move(done)](
                         double when, const Status&) { done(when); }));
  } else {
    SubmitWithStatus(req, StatusCompletion());
  }
}

bool StorageTarget::serviceable() const {
  const int down = num_members() - ServingCount();
  switch (raid_level_) {
    case RaidLevel::kRaid0:
      return down == 0;  // striping has no redundancy
    case RaidLevel::kRaid1:
      return down < num_members();
    case RaidLevel::kRaid5:
      return down < 2;
  }
  return false;
}

void StorageTarget::SubmitWithStatus(const TargetRequest& req,
                                     StatusCompletion done) {
  LDB_CHECK_GE(req.offset, 0);
  LDB_CHECK_GT(req.size, 0);
  LDB_CHECK_MSG(req.offset + req.size <= capacity_bytes_,
                "request beyond target %s capacity", name_.c_str());
  const int64_t slot = AllocateSlot(std::move(done));
  ++inflight_requests_;
  if (!serviceable()) {
    FailRequest(slot, "no serviceable member path");
    return;
  }
  int subs = 0;
  switch (raid_level_) {
    case RaidLevel::kRaid0:
      subs = SubmitRaid0(req, slot);
      break;
    case RaidLevel::kRaid1:
      subs = SubmitRaid1(req, slot);
      break;
    case RaidLevel::kRaid5:
      subs = SubmitRaid5(req, slot);
      break;
  }
  LDB_CHECK_GT(subs, 0);
  inflight_[slot].pending_subs = subs;
  for (size_t m = 0; m < members_.size(); ++m) MaybeDispatch(m);
}

void StorageTarget::FailRequest(int64_t slot, const char* why) {
  inflight_[slot].status =
      Status::IoError(StrFormat("target %s: %s", name_.c_str(), why));
  inflight_[slot].pending_subs = 1;
  queue_->ScheduleAfter(0.0, [this, slot]() { FinishSub(slot); });
}

void StorageTarget::FinishSub(int64_t parent) {
  Inflight& fl = inflight_[parent];
  LDB_CHECK_GT(fl.pending_subs, 0);
  if (--fl.pending_subs == 0) {
    if (!fl.internal) {
      ++requests_completed_;
      LDB_CHECK_GT(inflight_requests_, 0u);
      --inflight_requests_;
      if (!fl.status.ok()) ++stats_.failed_requests;
    }
    StatusCompletion done = std::move(fl.done);
    Status status = std::move(fl.status);
    fl = Inflight{};
    free_slots_.push_back(parent);
    if (done) done(queue_->Now(), status);
  }
}

void StorageTarget::MaybeDispatch(size_t m) {
  if (member_busy_[m] || member_queues_[m].empty()) return;

  // Shortest-positioning-time-first among queued sub-requests (SCAN-like
  // behaviour: deeper queues mean cheaper average positioning), with a
  // deadline-style starvation bound: once the oldest request (the queue
  // front) has waited too long, it goes next unconditionally.
  auto& q = member_queues_[m];
  size_t best = 0;
  if (queue_->Now() - q.front().enqueue_time < scheduler_max_wait_s_) {
    double best_cost = members_[m]->PositioningEstimate(q[0].dev_req);
    for (size_t i = 1; i < q.size(); ++i) {
      const double c = members_[m]->PositioningEstimate(q[i].dev_req);
      if (c < best_cost) {
        best_cost = c;
        best = i;
      }
    }
  }
  SubRequest sub = q[best];
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(best));

  member_busy_[m] = true;
  const double service =
      members_[m]->ServiceTime(sub.dev_req) * member_latency_scale_[m];
  busy_time_ += service;
  queue_->ScheduleAfter(service, [this, m, sub]() {
    member_busy_[m] = false;
    const double p = member_error_prob_[m];
    if (p > 0.0 && fault_rng_.Bernoulli(p)) {
      // Transient error: the service time was consumed, the transfer
      // failed. Retry with linear backoff up to the bound, then surface
      // kIoError on the parent request.
      ++stats_.transient_errors;
      if (sub.attempts < max_retries_) {
        ++stats_.retries;
        SubRequest retry = sub;
        ++retry.attempts;
        const double backoff = retry_backoff_s_ * retry.attempts;
        queue_->ScheduleAfter(backoff, [this, m, retry]() {
          if (Serves(m) || member_health_[m] == MemberHealth::kRebuilding) {
            member_queues_[m].push_back(retry);
            MaybeDispatch(m);
          } else {
            ReRouteOrphan(m, retry);  // member died during the backoff
            // The re-route queues the sub on surviving members; kick them
            // (as FailMember does) or an idle receiver never services it.
            for (size_t j = 0; j < members_.size(); ++j) MaybeDispatch(j);
          }
        });
        MaybeDispatch(m);
        return;
      }
      Inflight& fl = inflight_[sub.parent];
      if (fl.status.ok()) {
        fl.status = Status::IoError(
            StrFormat("target %s member %d: %d retries exhausted",
                      name_.c_str(), static_cast<int>(m), max_retries_));
      }
    }
    FinishSub(sub.parent);
    MaybeDispatch(m);
  });
}

void StorageTarget::SetRetryPolicy(int max_retries, double backoff_s) {
  LDB_CHECK_GE(max_retries, 0);
  LDB_CHECK_GE(backoff_s, 0.0);
  max_retries_ = max_retries;
  retry_backoff_s_ = backoff_s;
}

void StorageTarget::FailMember(int m) {
  LDB_CHECK_GE(m, 0);
  LDB_CHECK_LT(m, num_members());
  const size_t um = static_cast<size_t>(m);
  if (member_health_[um] == MemberHealth::kDead) return;
  member_health_[um] = MemberHealth::kDead;
  ++stats_.faults_injected;
  UpdateDegradedClock();
  // Re-route or fail whatever was queued on the dead member. The
  // sub-request it was actively servicing (if any) completes normally —
  // that transfer had already left the queue when the fault hit.
  std::vector<SubRequest> orphans;
  orphans.swap(member_queues_[um]);
  for (const SubRequest& sub : orphans) ReRouteOrphan(um, sub);
  for (size_t j = 0; j < members_.size(); ++j) MaybeDispatch(j);
}

void StorageTarget::ReRouteOrphan(size_t dead_member, const SubRequest& sub) {
  auto fail_parent = [&]() {
    Inflight& fl = inflight_[sub.parent];
    if (fl.status.ok()) {
      fl.status = Status::IoError(
          StrFormat("target %s member %d failed", name_.c_str(),
                    static_cast<int>(dead_member)));
    }
    FinishSub(sub.parent);
  };
  switch (raid_level_) {
    case RaidLevel::kRaid0:
      // No redundancy: the data on the dead member is gone.
      fail_parent();
      break;
    case RaidLevel::kRaid1: {
      if (sub.dev_req.is_write) {
        // Survivors got (or will get) their mirrored copies.
        FinishSub(sub.parent);
        break;
      }
      const int count = ServingCount();
      if (count == 0) {
        fail_parent();
        break;
      }
      // Re-issue the read on a surviving mirror.
      size_t pick = next_read_member_++ % static_cast<size_t>(count);
      for (size_t s = 0; s < members_.size(); ++s) {
        if (!Serves(s)) continue;
        if (pick == 0) {
          member_queues_[s].push_back(sub);
          break;
        }
        --pick;
      }
      break;
    }
    case RaidLevel::kRaid5: {
      if (sub.dev_req.is_write) {
        // The row's parity chunk (queued separately, on a live member)
        // absorbs the update.
        FinishSub(sub.parent);
        break;
      }
      if (ServingCount() < num_members() - 1) {
        fail_parent();  // second failure: stripe unrecoverable
        break;
      }
      // Reconstruct: read the row from every surviving member.
      ++stats_.degraded_reads;
      int added = 0;
      for (size_t s = 0; s < members_.size(); ++s) {
        if (!Serves(s)) continue;
        EnqueueSub(s,
                   DeviceRequest{sub.dev_req.offset, sub.dev_req.size, false},
                   sub.parent, &added);
      }
      inflight_[sub.parent].pending_subs += added - 1;
      break;
    }
  }
}

void StorageTarget::RecoverMember(int m) {
  LDB_CHECK_GE(m, 0);
  LDB_CHECK_LT(m, num_members());
  const size_t um = static_cast<size_t>(m);
  member_health_[um] = MemberHealth::kHealthy;
  member_latency_scale_[um] = 1.0;
  member_error_prob_[um] = 0.0;
  UpdateDegradedClock();
}

void StorageTarget::SetMemberLatencyScale(int m, double scale) {
  LDB_CHECK_GE(m, 0);
  LDB_CHECK_LT(m, num_members());
  LDB_CHECK_GT(scale, 0.0);
  const size_t um = static_cast<size_t>(m);
  if (scale != 1.0 && scale != member_latency_scale_[um]) {
    ++stats_.faults_injected;
  }
  member_latency_scale_[um] = scale;
  UpdateDegradedClock();
}

void StorageTarget::SetMemberErrorProbability(int m, double p) {
  LDB_CHECK_GE(m, 0);
  LDB_CHECK_LT(m, num_members());
  LDB_CHECK_GE(p, 0.0);
  LDB_CHECK_LE(p, 1.0);
  const size_t um = static_cast<size_t>(m);
  if (p > 0.0 && p != member_error_prob_[um]) ++stats_.faults_injected;
  member_error_prob_[um] = p;
  UpdateDegradedClock();
}

Status StorageTarget::StartRebuild(int m, int64_t chunk_bytes) {
  LDB_CHECK_GE(m, 0);
  LDB_CHECK_LT(m, num_members());
  LDB_CHECK_GT(chunk_bytes, 0);
  const size_t um = static_cast<size_t>(m);
  // These preconditions depend on event ordering (a rebuild is only valid
  // after the matching fail-stop), which a user-supplied fault plan can
  // get wrong — report the error rather than crashing.
  if (raid_level_ == RaidLevel::kRaid0) {
    return Status::FailedPrecondition(StrFormat(
        "target %s: RAID0 has no redundancy to rebuild from", name_.c_str()));
  }
  if (member_health_[um] != MemberHealth::kDead) {
    return Status::FailedPrecondition(StrFormat(
        "target %s: rebuild member %d is not dead", name_.c_str(), m));
  }
  if (raid_level_ == RaidLevel::kRaid5) {
    if (ServingCount() != num_members() - 1) {
      return Status::FailedPrecondition(
          StrFormat("target %s: RAID5 rebuild needs every other member "
                    "healthy",
                    name_.c_str()));
    }
  } else if (ServingCount() < 1) {
    return Status::FailedPrecondition(StrFormat(
        "target %s: RAID1 rebuild needs a survivor", name_.c_str()));
  }
  members_[um]->Reset();  // fresh hot spare standing in for the dead device
  member_health_[um] = MemberHealth::kRebuilding;
  rebuild_pos_[um] = 0;
  rebuild_chunk_[um] = chunk_bytes;
  UpdateDegradedClock();
  ContinueRebuild(m);
  return Status::Ok();
}

void StorageTarget::ContinueRebuild(int m) {
  const size_t um = static_cast<size_t>(m);
  if (member_health_[um] != MemberHealth::kRebuilding) {
    return;  // aborted: the member died again or was force-recovered
  }
  const int64_t cap = members_[um]->capacity_bytes();
  if (rebuild_pos_[um] >= cap) {
    member_health_[um] = MemberHealth::kHealthy;
    UpdateDegradedClock();
    return;
  }
  // The rebuild source can disappear between chunks (the last RAID1
  // mirror, or a second RAID5 member, fail-stopping mid-rebuild). With
  // nothing left to read from, park the member as dead again instead of
  // issuing a chunk (the RAID1 read pick below would divide by zero).
  const bool source_lost = raid_level_ == RaidLevel::kRaid5
                               ? ServingCount() < num_members() - 1
                               : ServingCount() == 0;
  if (source_lost) {
    member_health_[um] = MemberHealth::kDead;
    UpdateDegradedClock();
    return;
  }
  const int64_t pos = rebuild_pos_[um];
  const int64_t chunk = std::min(rebuild_chunk_[um], cap - pos);
  rebuild_pos_[um] += chunk;
  stats_.rebuild_bytes += chunk;
  // One chunk in flight at a time: read the survivors, write the spare,
  // continue when the chunk completes. Closed-loop pacing keeps rebuild
  // traffic from starving foreground I/O beyond what the member queues
  // already model.
  const int64_t slot = AllocateSlot([this, m](double, const Status& s) {
    const size_t mem = static_cast<size_t>(m);
    if (!s.ok() && member_health_[mem] == MemberHealth::kRebuilding) {
      // The chunk's source reads failed mid-flight (survivors died while
      // it was queued): the spare has a hole, the rebuild cannot finish.
      member_health_[mem] = MemberHealth::kDead;
      UpdateDegradedClock();
      return;
    }
    ContinueRebuild(m);
  });
  inflight_[slot].internal = true;
  int subs = 0;
  if (raid_level_ == RaidLevel::kRaid1) {
    const int count = ServingCount();
    size_t pick = next_read_member_++ % static_cast<size_t>(count);
    for (size_t s = 0; s < members_.size(); ++s) {
      if (!Serves(s)) continue;
      if (pick == 0) {
        EnqueueSub(s, DeviceRequest{pos, chunk, false}, slot, &subs);
        break;
      }
      --pick;
    }
  } else {
    for (size_t s = 0; s < members_.size(); ++s) {
      if (!Serves(s)) continue;
      EnqueueSub(s, DeviceRequest{pos, chunk, false}, slot, &subs);
    }
  }
  EnqueueSub(um, DeviceRequest{pos, chunk, true}, slot, &subs);
  inflight_[slot].pending_subs = subs;
  for (size_t j = 0; j < members_.size(); ++j) MaybeDispatch(j);
}

bool StorageTarget::degraded() const {
  for (size_t m = 0; m < members_.size(); ++m) {
    if (member_health_[m] != MemberHealth::kHealthy) return true;
    if (member_latency_scale_[m] != 1.0) return true;
    if (member_error_prob_[m] > 0.0) return true;
  }
  return false;
}

void StorageTarget::UpdateDegradedClock() {
  const bool unhealthy = degraded();
  const double now = queue_->Now();
  if (unhealthy && degraded_since_ < 0.0) {
    degraded_since_ = now;
  } else if (!unhealthy && degraded_since_ >= 0.0) {
    stats_.degraded_time += now - degraded_since_;
    degraded_since_ = -1.0;
  }
}

FaultStats StorageTarget::fault_stats() const {
  FaultStats out = stats_;
  if (degraded_since_ >= 0.0) {
    out.degraded_time += queue_->Now() - degraded_since_;
  }
  return out;
}

void StorageTarget::Reset() {
  for (size_t m = 0; m < members_.size(); ++m) {
    LDB_CHECK_MSG(!member_busy_[m] && member_queues_[m].empty(),
                  "Reset() on a busy target");
    members_[m]->Reset();
  }
  inflight_.clear();
  free_slots_.clear();
  next_read_member_ = 0;
  busy_time_ = 0.0;
  requests_completed_ = 0;
  inflight_requests_ = 0;
  member_health_.assign(members_.size(), MemberHealth::kHealthy);
  member_latency_scale_.assign(members_.size(), 1.0);
  member_error_prob_.assign(members_.size(), 0.0);
  rebuild_pos_.assign(members_.size(), 0);
  rebuild_chunk_.assign(members_.size(), 4 * kMiB);
  stats_ = FaultStats{};
  degraded_since_ = -1.0;
}

}  // namespace ldb
