#ifndef LAYOUTDB_STORAGE_TARGET_H_
#define LAYOUTDB_STORAGE_TARGET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/device.h"
#include "storage/event_queue.h"
#include "storage/io_request.h"
#include "util/random.h"
#include "util/status.h"
#include "util/units.h"

namespace ldb {

/// RAID organization of a multi-member storage target.
enum class RaidLevel {
  kRaid0,  ///< striping; capacity = sum of members
  kRaid1,  ///< mirroring; reads spread over members, writes go to all;
           ///< capacity = one member
  kRaid5,  ///< striping + rotating parity; capacity = members - 1; small
           ///< writes pay the parity read-modify-write penalty
};

const char* RaidLevelName(RaidLevel level);

/// Health of one member device within a target.
enum class MemberHealth {
  kHealthy,     ///< serving regular I/O
  kDead,        ///< fail-stop: serves nothing
  kRebuilding,  ///< hot spare being filled; serves only rebuild writes
};

/// Fault-related counters of a target (or, summed, of a system). All are
/// cleared by Reset() and filled deterministically by a seeded FaultPlan.
struct FaultStats {
  uint64_t faults_injected = 0;   ///< fault-state changes applied
  uint64_t transient_errors = 0;  ///< sub-requests that drew an I/O error
  uint64_t retries = 0;           ///< transient errors that were retried
  uint64_t failed_requests = 0;   ///< target requests completed with error
  uint64_t degraded_reads = 0;    ///< reads served via survivors/parity
  int64_t rebuild_bytes = 0;      ///< bytes written onto rebuilding members
  double degraded_time = 0.0;     ///< seconds with any fault condition active

  FaultStats& operator+=(const FaultStats& o) {
    faults_injected += o.faults_injected;
    transient_errors += o.transient_errors;
    retries += o.retries;
    failed_requests += o.failed_requests;
    degraded_reads += o.degraded_reads;
    rebuild_bytes += o.rebuild_bytes;
    degraded_time += o.degraded_time;
    return *this;
  }
};

/// An independent storage target: one or more member devices in a RAID
/// configuration, each with its own request queue and a
/// shortest-positioning-first scheduler with a deadline-style starvation
/// bound.
///
/// A single-disk or single-SSD target is simply a one-member RAID0
/// instance. A "3-disk RAID0" target (paper Section 6.4) is a
/// three-member instance. The paper notes RAID groups "vary in
/// configuration, e.g., in the RAID level used"; RAID1 and RAID5 targets
/// model the corresponding read fan-out, write fan-out, and parity
/// read-modify-write behaviour.
///
/// Requests address the target's linear byte space; the target splits them
/// into per-member sub-requests along stripe boundaries. The completion
/// callback fires when the last sub-request finishes.
///
/// Fault model: members can die (fail-stop), limp (scaled latency), or
/// throw transient errors (retried up to a bound, then surfaced as a
/// kIoError Status). A RAID1/RAID5 group with one dead member keeps
/// serving in degraded mode — reads reconstruct from survivors — and
/// StartRebuild() streams the dead member's contents back onto a hot
/// spare while regular traffic continues. A RAID0 group (including every
/// single-device target) with a dead member is unserviceable: requests
/// complete immediately with an error.
class StorageTarget {
 public:
  using Completion = std::function<void(double complete_time)>;
  /// Completion with the request outcome: OK, or kIoError when a
  /// sub-request exhausted its retries or the group could not serve it.
  using StatusCompletion =
      std::function<void(double complete_time, const Status& status)>;

  /// \param name human-readable target name (for reports).
  /// \param members devices grouped together; all must be non-null.
  ///   RAID1 requires >= 2 members, RAID5 >= 3.
  /// \param stripe_bytes RAID chunk size; ignored for single members.
  /// \param queue simulation event queue; must outlive the target.
  /// \param scheduler_max_wait_s starvation bound: a queued request older
  ///   than this is served next regardless of positioning cost (deadline
  ///   scheduling, as the paper-era Linux I/O schedulers do). Without it,
  ///   shortest-positioning-first lets one sequential stream monopolize
  ///   the device.
  /// \param raid_level RAID organization of the member group.
  StorageTarget(std::string name,
                std::vector<std::unique_ptr<BlockDevice>> members,
                int64_t stripe_bytes, EventQueue* queue,
                double scheduler_max_wait_s = 0.060,
                RaidLevel raid_level = RaidLevel::kRaid0);

  StorageTarget(const StorageTarget&) = delete;
  StorageTarget& operator=(const StorageTarget&) = delete;

  /// Submits a request; `done` fires (via the event queue) at completion.
  /// Errors are visible only through fault_stats() on this overload.
  void Submit(const TargetRequest& req, Completion done);

  /// Submits a request; `done` receives the completion time and outcome.
  void SubmitWithStatus(const TargetRequest& req, StatusCompletion done);

  /// Usable capacity (depends on the RAID level).
  int64_t capacity_bytes() const { return capacity_bytes_; }

  /// Number of member devices (the target's internal parallelism).
  int num_members() const { return static_cast<int>(members_.size()); }

  RaidLevel raid_level() const { return raid_level_; }

  const std::string& name() const { return name_; }

  /// Model name of the member devices (all members share one model).
  const std::string& device_model() const {
    return members_.front()->model_name();
  }

  /// Total time members of this target spent busy (device-seconds). The
  /// measured analogue of the paper's utilization µ_j once divided by
  /// elapsed time and member count.
  double busy_time() const { return busy_time_; }

  /// Number of target-level requests completed (rebuild traffic excluded).
  uint64_t requests_completed() const { return requests_completed_; }

  /// Target-level requests submitted but not yet completed (rebuild traffic
  /// excluded). The migration throttle reads this, summed over the system,
  /// to estimate foreground queue depth.
  uint64_t inflight_requests() const { return inflight_requests_; }

  /// True when the group can serve I/O at all given current member health:
  /// RAID0 needs every member, RAID1 at least one, RAID5 all but one.
  bool serviceable() const;

  // ---- Fault injection (driven by FaultInjector; callable directly). ----

  /// Seeds the RNG behind transient-error coin flips. The simulation loop
  /// is serial, so one seed fixes the whole error sequence.
  void SeedFaultRng(uint64_t seed) { fault_rng_ = Rng(seed); }

  /// Bounds transient-error retries; the n-th retry of a sub-request waits
  /// n * backoff_s before re-queueing.
  void SetRetryPolicy(int max_retries, double backoff_s);

  int max_retries() const { return max_retries_; }

  /// Fail-stops member `m`. Its queued sub-requests are re-routed through
  /// the degraded path (or failed, for RAID0); an in-service sub-request
  /// finishes normally.
  void FailMember(int m);

  /// Returns member `m` to full health instantly, clearing its latency
  /// scale and error probability (the blunt recovery used when rebuild
  /// traffic is not being modelled).
  void RecoverMember(int m);

  /// Scales member `m`'s service times ("limping" device). 1.0 = healthy.
  void SetMemberLatencyScale(int m, double scale);

  /// Each sub-request on member `m` independently fails with probability
  /// `p` after consuming its service time. 0 = healthy.
  void SetMemberErrorProbability(int m, double p);

  /// Begins rebuilding dead member `m` onto a fresh hot spare, reading
  /// survivors and writing `chunk_bytes` at a time in closed loop until
  /// the member's full capacity is rewritten; the member then returns to
  /// health. Returns FailedPrecondition (without starting) when the
  /// member is not dead, the group is RAID0, or the rebuild source is
  /// missing — RAID1 needs >= 1 healthy member, RAID5 all other members
  /// healthy. If the source is lost mid-rebuild, the member is parked
  /// dead again and a later StartRebuild may retry.
  Status StartRebuild(int m, int64_t chunk_bytes = 4 * kMiB);

  MemberHealth member_health(int m) const {
    return member_health_[static_cast<size_t>(m)];
  }

  /// True when any member is dead, rebuilding, limping, or error-prone.
  bool degraded() const;

  /// Fault counters; degraded_time includes the currently-open degraded
  /// interval up to the present simulation time.
  FaultStats fault_stats() const;

  /// Resets devices, statistics, and all fault state (members healthy).
  /// Requires an idle target. The fault RNG seed and retry policy persist
  /// so an armed injector stays in control across the reset at run start.
  void Reset();

 private:
  struct SubRequest {
    DeviceRequest dev_req;
    int64_t parent = 0;       ///< index into inflight_
    double enqueue_time = 0;  ///< for the starvation bound
    int attempts = 0;         ///< transient-error retries consumed
  };
  struct Inflight {
    int pending_subs = 0;
    bool internal = false;  ///< rebuild traffic: skip request accounting
    Status status;          ///< first error among this request's subs
    StatusCompletion done;
  };
  /// RAID0 decomposition scratch: one pending extent per member.
  struct MemberExtent {
    bool active = false;
    int64_t offset = 0;
    int64_t size = 0;
  };

  /// Allocates an inflight slot for `done` and returns its index.
  int64_t AllocateSlot(StatusCompletion done);

  /// Enqueues one sub-request on member `m` for inflight slot `slot`.
  void EnqueueSub(size_t m, const DeviceRequest& dev_req, int64_t slot,
                  int* subs);

  /// Per-level request decomposition; each returns the sub-request count.
  int SubmitRaid0(const TargetRequest& req, int64_t slot);
  int SubmitRaid1(const TargetRequest& req, int64_t slot);
  int SubmitRaid5(const TargetRequest& req, int64_t slot);

  /// Dispatches the best queued sub-request on member `m` if it is idle.
  void MaybeDispatch(size_t m);

  /// Records one finished (or absorbed) sub-request of `parent`, firing
  /// the completion when it was the last.
  void FinishSub(int64_t parent);

  /// True when the member serves regular I/O.
  bool Serves(size_t m) const {
    return member_health_[m] == MemberHealth::kHealthy;
  }
  int ServingCount() const;

  /// Fails or re-routes a sub-request that was queued on a member that
  /// just died.
  void ReRouteOrphan(size_t dead_member, const SubRequest& sub);

  /// Fails the whole request in `slot` with an I/O error (scheduled so the
  /// completion still arrives via the event queue).
  void FailRequest(int64_t slot, const char* why);

  /// Issues the next rebuild chunk for member `m`, or completes the
  /// rebuild when the member has been fully rewritten.
  void ContinueRebuild(int m);

  /// Opens/closes the degraded-time interval after a fault-state change.
  void UpdateDegradedClock();

  std::string name_;
  std::vector<std::unique_ptr<BlockDevice>> members_;
  int64_t stripe_bytes_;
  int64_t capacity_bytes_ = 0;
  EventQueue* queue_;
  double scheduler_max_wait_s_;
  RaidLevel raid_level_;
  size_t next_read_member_ = 0;  ///< RAID1 read distribution cursor

  /// Per-member FIFO queues. Vectors, not deques: they keep their capacity,
  /// so steady-state queueing allocates nothing.
  std::vector<std::vector<SubRequest>> member_queues_;
  std::vector<MemberExtent> raid0_acc_;  ///< SubmitRaid0 scratch
  std::vector<bool> member_busy_;
  std::vector<Inflight> inflight_;
  std::vector<int64_t> free_slots_;  ///< reusable indexes into inflight_

  // Fault state (all per-member, indexed like members_).
  std::vector<MemberHealth> member_health_;
  std::vector<double> member_latency_scale_;
  std::vector<double> member_error_prob_;
  std::vector<int64_t> rebuild_pos_;    ///< next byte to rebuild
  std::vector<int64_t> rebuild_chunk_;  ///< rebuild granularity
  int max_retries_ = 3;
  double retry_backoff_s_ = 0.002;
  Rng fault_rng_{1};
  FaultStats stats_;
  double degraded_since_ = -1.0;  ///< open interval start; < 0 = healthy

  double busy_time_ = 0.0;
  uint64_t requests_completed_ = 0;
  uint64_t inflight_requests_ = 0;
};

}  // namespace ldb

#endif  // LAYOUTDB_STORAGE_TARGET_H_
