#ifndef LAYOUTDB_SCENARIO_SCENARIO_H_
#define LAYOUTDB_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/workload.h"
#include "util/status.h"

namespace ldb {

/// One tenant of a declarative scenario: a contiguous range of database
/// objects driven by a Poisson arrival process at `rate` arrivals/s per
/// object while the tenant is active ([arrive_s, depart_s)).
struct ScenarioTenant {
  std::string name;
  int first_object = 0;  ///< objects [first_object, first_object + count)
  int count = 0;
  double rate = 0.0;            ///< arrivals/s per object while active
  int64_t request_bytes = 64 * 1024;
  double write_fraction = 0.0;  ///< per-request Bernoulli write probability
  double run_length = 1.0;      ///< mean sequential run (1 = fully random)
  double arrive_s = 0.0;        ///< churn: tenant starts issuing here
  double depart_s = 0.0;        ///< and stops here; 0 = scenario end
};

/// A multiplicative rate window on one tenant: while start_s <= t < end_s
/// the tenant's per-object rate is scaled by `multiplier`. Flash crowds
/// are phases with large multipliers (the `flash=` clause is sugar).
struct ScenarioPhase {
  int tenant = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double multiplier = 1.0;
};

/// Slow adversarial drift: the tenant's rate multiplier ramps
/// geometrically from 1 at start_s to `multiplier` at end_s and plateaus
/// there — shaped so the DriftDetector score creeps up and then sits
/// still, never edge-triggering (the sustain knob exists for exactly
/// this).
struct ScenarioDrift {
  int tenant = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double multiplier = 1.0;
};

/// Evolving interaction-graph co-access over one tenant's objects: the
/// objects are partitioned into `communities`, each arrival touches
/// `burst` objects of one community together, and every `rewire_s`
/// seconds the partition is reshuffled (community rewiring). The same
/// epochs drive both the player (co-access bursts) and the analytic
/// timeline (overlap rows).
struct ScenarioGraph {
  int tenant = -1;
  int communities = 2;
  double coaccess = 0.5;  ///< intra-community overlap fraction in [0,1]
  double rewire_s = 0.0;  ///< rewiring period; 0 = static communities
  int burst = 2;          ///< objects co-accessed per arrival
};

/// A declarative time-varying multi-tenant workload scenario — the
/// `scenario` directive of the problem-file grammar. A scenario is data:
/// the same spec drives the event-queue player, the analytic timeline the
/// benches score against, and the documentation tables.
struct ScenarioSpec {
  double duration_s = 0.0;
  uint64_t seed = 42;  ///< root of the MixSeed-per-tenant RNG streams
  std::vector<ScenarioTenant> tenants;
  std::vector<ScenarioPhase> phases;
  std::vector<ScenarioDrift> drifts;
  std::vector<ScenarioGraph> graphs;

  bool empty() const { return tenants.empty(); }

  /// Index of the tenant named `name`, or -1.
  int FindTenant(const std::string& name) const;

  /// Structural validation. With `num_objects` >= 0 the tenant object
  /// ranges are checked against the catalog size; pass -1 when the
  /// catalog is not known yet (the parser does).
  Status Validate(int num_objects = -1) const;

  /// Effective depart time of tenant `t` (depart_s, or duration_s when 0).
  double DepartTime(size_t t) const;
};

/// Parses the scenario spec grammar: the util/spec_text.h clauses and
/// numbers, where the first key of each clause selects its kind. Errors are
/// clause-indexed ("scenario spec clause 3: ..."):
///
///   duration=<s>                      scenario length (required, once)
///   seed=<n>                          RNG root (optional)
///   tenant=<name>,objects=<a>:<b>,rate=<r/s>[,bytes=<n>][,write=<f>]
///          [,runs=<q>][,arrive=<t>][,depart=<t>]
///   phase=<tenant>,start=<t>,end=<t>,x=<mult>
///   flash=<tenant>,at=<t>,for=<s>,x=<mult>      # sugar for a phase
///   graph=<tenant>[,communities=<k>][,coaccess=<f>][,rewire=<s>]
///         [,burst=<n>]
///   drift=<tenant>,start=<t>,end=<t>,x=<mult>
///
/// Tenants must be declared before they are referenced.
Result<ScenarioSpec> ParseScenarioSpec(const std::string& text);

/// Renders a spec back to the clause grammar, every number exactly;
/// ParseScenarioSpec of the output reproduces the spec bit for bit (flash
/// clauses re-serialize as phases).
std::string ScenarioToString(const ScenarioSpec& spec);

/// Instantaneous rate multiplier of tenant `t` at time `time_s`: 0 while
/// inactive, otherwise the product of every covering phase window and the
/// drift ramp.
double TenantRateMultiplier(const ScenarioSpec& spec, size_t t,
                            double time_s);

/// Deterministic community assignments for the graph-structured tenants:
/// all rewire epochs are precomputed at construction from the scenario
/// seed, so the player and the analytic timeline see identical
/// partitions regardless of thread counts or call order.
class InteractionGraph {
 public:
  explicit InteractionGraph(const ScenarioSpec& spec);

  /// Index into spec.graphs of the graph covering `object`, or -1.
  int GraphOf(int object) const;

  /// Objects sharing `object`'s community at time `time_s`, including
  /// `object` itself, in increasing id order. `object` must belong to a
  /// graph-structured tenant (GraphOf(object) >= 0).
  const std::vector<int>& Community(int object, double time_s) const;

 private:
  size_t EpochOf(size_t graph, double time_s) const;

  const ScenarioSpec* spec_;
  std::vector<int> graph_of_;  ///< object -> graph index or -1
  /// members_[g][epoch][community] = sorted member object ids.
  std::vector<std::vector<std::vector<std::vector<int>>>> members_;
  /// community_of_[g][epoch][object - first_object] = community index.
  std::vector<std::vector<std::vector<int>>> community_of_;
};

/// One piecewise-stationary segment of the analytic scenario timeline.
struct ScenarioSegment {
  double start_s = 0.0;
  double end_s = 0.0;
  /// Workload descriptions at the segment midpoint; overlap rows hold the
  /// graph co-access structure.
  WorkloadSet workloads;
};

/// Builds the analytic timeline: boundaries at every phase, churn, drift
/// and rewire edge (drift ramps subdivided into four sub-segments), with
/// each segment's workloads evaluated at its midpoint. The benches score
/// oracle/static/autopilot layouts against these segments; the property
/// tests validate the CSR rows they share with the online analyzer.
std::vector<ScenarioSegment> BuildTimeline(const ScenarioSpec& spec,
                                           int num_objects);

}  // namespace ldb

#endif  // LAYOUTDB_SCENARIO_SCENARIO_H_
