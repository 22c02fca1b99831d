#ifndef LAYOUTDB_CORE_FLEET_H_
#define LAYOUTDB_CORE_FLEET_H_

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "model/layout.h"
#include "solver/layout_nlp.h"
#include "util/status.h"

namespace ldb {

/// Tuning knobs of the hierarchical fleet solver.
struct FleetOptions {
  /// Aimed objects per shard; the shard count is ceil(N / this), clamped
  /// so every shard can receive at least `min_shard_targets` targets.
  int shard_target_objects = 96;
  /// Minimum storage targets per shard (a single-target shard has no
  /// placement freedom at all).
  int min_shard_targets = 3;
  /// Inner-solve knobs for the per-shard and coordination solves. The
  /// per-shard `num_threads` is forced to 1 — shard-level parallelism comes
  /// from `num_threads` below, and serial inner solves are what keep the
  /// result bit-identical across thread counts.
  SolverOptions solver;
  /// Shard-level parallelism: shards solve concurrently on a ThreadPool
  /// (<= 0 = one lane per hardware core). Results are written to
  /// index-addressed slots and reduced serially, so output never depends
  /// on this value.
  int num_threads = 0;
  /// Extra random multi-start seeds per shard beyond the rate-balance
  /// heuristic (per-shard MixSeed streams keep them deterministic).
  int extra_random_seeds = 0;
  /// Coordination: per round, the shard owning the hottest target is
  /// re-solved jointly with up to this many of the coolest shards and the
  /// best re-balance is kept. Rounds stop when the relative max-util gain
  /// drops below `gain_tolerance` or after `max_coordination_rounds`.
  int coordination_partners = 2;
  int max_coordination_rounds = 12;
  double gain_tolerance = 0.002;
  /// Unfrozen rows per coordination subproblem: the pair objects with the
  /// largest utilization contribution on the pair's targets move; the
  /// interior stays frozen so the polish costs O(free rows), not O(pair).
  int coordination_free_rows = 128;
  uint64_t seed = 42;
};

/// Composition and final per-shard outcome, for reporting.
struct FleetShardInfo {
  std::vector<int> objects;  ///< initial membership, ascending object ids
  std::vector<int> targets;  ///< owned targets, ascending
  double demand = 0.0;       ///< Σ total request rate of the members
  double max_utilization = 0.0;  ///< max µ over owned targets (final)
};

/// Outcome of a fleet solve.
struct FleetResult {
  Layout layout;  ///< full N x M layout (generally non-regular)
  double max_utilization = 0.0;  ///< max_j µ_j of `layout`
  bool feasible = false;         ///< integrity + capacity satisfied
  std::vector<double> utilizations;  ///< µ_j per target
  std::vector<FleetShardInfo> shards;
  int coordination_rounds = 0;  ///< rounds executed
  int accepted_moves = 0;       ///< coordination re-balances adopted
  /// Summed inner-solver effort across shard and coordination solves.
  int iterations = 0;
  int64_t objective_evaluations = 0;
  int64_t gradient_evaluations = 0;
  int64_t interp_queries = 0;
  /// Wall-clock breakdown (measurement only, not deterministic).
  double cluster_seconds = 0.0;
  double shard_solve_seconds = 0.0;
  double coordination_seconds = 0.0;

  FleetResult() : layout(1, 1) {}
};

/// Hierarchical solver for fleet-scale layout problems (N = O(10k) objects,
/// M = O(100) targets), where the flat NLP's per-iteration cost collapses.
///
/// Three phases:
///  1. *Cluster*: objects are grouped along the co-access graph (edges
///     weighted by rate-scaled temporal overlap, the same graph the
///     AutoAdmin baseline builds) with a demand-balance cap, and clusters
///     are packed into shards; targets are partitioned across shards
///     proportionally to shard demand (capacity-feasibility first).
///  2. *Shard solves*: each shard is an independent LayoutProblem over its
///     own objects and targets, solved with the analytic-gradient engine on
///     a ThreadPool. Because shards own disjoint target sets, dropping
///     cross-shard overlap entries is *exact* — interference only couples
///     objects co-located on a target — so the decomposition loses nothing
///     but placement freedom.
///  3. *Coordinate*: while the gain tolerance is met, the shard owning the
///     hottest target is re-solved jointly with the coolest shards over the
///     union of their targets, warm-started from the current layout with
///     all but the top contributing rows frozen — boundary objects migrate
///     and target capacity is effectively traded between the shards.
///
/// Deterministic given FleetOptions::seed, and bit-identical across
/// `num_threads` values. Administrative placement constraints are not
/// supported (they couple objects to fixed targets across shard
/// boundaries); use the flat advisor for constrained problems.
class FleetSolver {
 public:
  explicit FleetSolver(FleetOptions options = {});

  Result<FleetResult> Solve(const LayoutProblem& problem) const;

 private:
  FleetOptions options_;
};

}  // namespace ldb

#endif  // LAYOUTDB_CORE_FLEET_H_
