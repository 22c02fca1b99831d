#ifndef LAYOUTDB_STORAGE_FAULT_H_
#define LAYOUTDB_STORAGE_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/storage_system.h"
#include "util/status.h"

namespace ldb {

/// Kinds of injectable faults.
enum class FaultKind {
  kFailStop,   ///< member device dies and stops serving I/O
  kLimp,       ///< member serves I/O at `latency_scale` times normal latency
  kTransient,  ///< member fails each sub-request with `error_prob`
  kRebuild,    ///< start rebuilding a dead member onto a hot spare
  kRecover,    ///< member instantly returns to full health
};

const char* FaultKindName(FaultKind kind);

/// One scheduled fault event.
struct FaultSpec {
  double time = 0.0;  ///< seconds after FaultInjector::Arm()
  int target = 0;     ///< storage-system target index
  int member = 0;     ///< member device within the target
  FaultKind kind = FaultKind::kFailStop;
  double latency_scale = 2.0;  ///< kLimp: service-time multiplier (> 0)
  double error_prob = 0.1;     ///< kTransient: per-sub-request error rate
  double duration = 0.0;       ///< kLimp/kTransient: auto-clear after this
                               ///< many seconds; 0 keeps the fault sticky
  int64_t rebuild_chunk_bytes = 4 * 1024 * 1024;  ///< kRebuild granularity
};

/// A reproducible fault schedule: every fault is pinned to a simulation
/// time, and all random decisions (the transient-error coin flips) derive
/// from `seed` via per-target streams, so a plan replays bit-identically
/// regardless of host thread counts.
struct FaultPlan {
  uint64_t seed = 1;
  int max_retries = 3;           ///< transient-error retry bound per sub
  double retry_backoff_s = 0.002;  ///< base backoff; grows linearly per try
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }
};

/// Parses a `--faults` command-line spec. Clauses are separated by ';',
/// each clause is comma-separated key=value pairs:
///
///   "t=5,target=1,kind=fail;t=9,target=1,kind=rebuild"
///   "seed=7,retries=2,backoff=0.001;t=1,target=0,member=2,kind=transient,
///    p=0.3,duration=4"
///
/// Keys: t (time, s), target, member, kind (fail|limp|transient|rebuild|
/// recover), scale (limp multiplier), p (transient error rate), duration
/// (s), chunk (rebuild bytes). Plan-level keys seed/retries/backoff may
/// appear in any clause; a clause with only plan-level keys adds no fault.
/// The clause grammar, number policy and error shape ("fault spec clause
/// N: ...") are util/spec_text.h's.
Result<FaultPlan> ParseFaultPlan(const std::string& text);

/// Renders a plan back to the spec grammar (for logs and reports), every
/// key exactly, so ParseFaultPlan of the output reproduces the plan.
std::string FaultPlanToString(const FaultPlan& plan);

/// Schedules a FaultPlan onto a storage system's event queue.
///
/// Arm() seeds each target's fault RNG (MixSeed(plan.seed, target)),
/// installs the retry policy, and schedules one event per FaultSpec
/// relative to the current simulation time — call it immediately before
/// running the workload. The injector must outlive the simulation run, and
/// `system` must outlive the injector.
class FaultInjector {
 public:
  FaultInjector(StorageSystem* system, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Validates the plan against the system (target/member ranges, RAID
  /// rebuild requirements) and schedules every fault. Returns
  /// InvalidArgument on a malformed plan without scheduling anything.
  Status Arm();

  const FaultPlan& plan() const { return plan_; }

  /// Faults applied so far (schedule-time counter; the per-target
  /// FaultStats count the same events from the receiving side).
  uint64_t faults_applied() const { return faults_applied_; }

  /// Faults that were invalid when their event fired — e.g. a rebuild
  /// with no preceding fail-stop — and were skipped, one message each.
  /// Arm() validates everything it can statically; these are the
  /// ordering-dependent leftovers.
  const std::vector<std::string>& skipped() const { return skipped_; }

 private:
  void Apply(const FaultSpec& spec);

  StorageSystem* system_;
  FaultPlan plan_;
  uint64_t faults_applied_ = 0;
  std::vector<std::string> skipped_;
};

}  // namespace ldb

#endif  // LAYOUTDB_STORAGE_FAULT_H_
