#ifndef LAYOUTDB_SCENARIO_PLAYER_H_
#define LAYOUTDB_SCENARIO_PLAYER_H_

#include <cstdint>
#include <functional>

#include "scenario/scenario.h"
#include "storage/lvm.h"
#include "storage/storage_system.h"
#include "util/status.h"
#include "workload/runner.h"

namespace ldb {

/// Knobs of the scenario player.
struct ScenarioPlayerOptions {
  /// Runtime seed, mixed with the scenario's declarative seed; every
  /// tenant then gets its own decorrelated stream via
  /// Rng(MixSeed(MixSeed(spec.seed, seed), tenant)).
  uint64_t seed = 42;
  /// Scenario-clock resume: start playing `start_offset_s` seconds into
  /// the scenario timeline (clamped to the duration) instead of at zero.
  /// Phase/flash/churn windows, graph rewiring, and the end-of-scenario
  /// time all shift as if the first `start_offset_s` seconds had already
  /// played; tenants whose arrival time already passed start immediately.
  /// Limitation: arrival RNG streams restart fresh — the *clock* resumes,
  /// not the exact request sequence the dead process would have issued.
  double start_offset_s = 0.0;
};

/// Player-side counters (the foreground half of a scenario outcome).
struct ScenarioPlayStats {
  uint64_t arrivals = 0;  ///< arrival events fired
  uint64_t requests = 0;  ///< logical requests submitted
  uint64_t shed = 0;      ///< requests dropped at the in-flight cap
};

/// Drives a ScenarioSpec on the event queue as an *open-loop* workload:
/// per-tenant Poisson arrival processes whose intensity follows
/// TenantRateMultiplier (phases, flash crowds, churn, drift), with
/// interaction-graph tenants submitting community co-access bursts. The
/// closed-loop WorkloadRunner cannot express time-varying rates — its
/// streams reissue on completion, so storage speed sets the rate; here
/// the scenario sets the rate and storage speed sets queueing.
///
/// Determinism: all arrivals derive from per-tenant MixSeed RNG streams
/// and the single-threaded event queue, so a scenario replays
/// bit-identically for any host thread count; under the autopilot the
/// solver's own thread-count guarantee extends this to the whole closed
/// loop.
class ScenarioPlayer {
 public:
  /// `system` and `router` must outlive the player. The router must map
  /// every object referenced by the spec's tenants.
  ScenarioPlayer(StorageSystem* system, VolumeRouter* router,
                 const ScenarioSpec& spec,
                 ScenarioPlayerOptions options = {});

  /// Object-level (pre-striping) completion observer, as in
  /// WorkloadRunner — this is what feeds the autopilot's OnlineAnalyzer.
  void set_logical_observer(StorageSystem::Observer observer) {
    logical_observer_ = std::move(observer);
  }

  /// Called once at the simulated time the scenario duration elapses
  /// (in-flight requests may still be draining).
  void set_on_finished(std::function<void()> hook) {
    on_finished_ = std::move(hook);
  }

  /// Plays the scenario to completion (pumps the event queue until idle)
  /// and returns the measured results.
  Result<RunResult> Play();

  const ScenarioPlayStats& stats() const { return stats_; }

 private:
  StorageSystem* system_;
  VolumeRouter* router_;
  const ScenarioSpec* spec_;
  ScenarioPlayerOptions options_;
  StorageSystem::Observer logical_observer_;
  std::function<void()> on_finished_;
  ScenarioPlayStats stats_;
};

}  // namespace ldb

#endif  // LAYOUTDB_SCENARIO_PLAYER_H_
