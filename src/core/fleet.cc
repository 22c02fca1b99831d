#include "core/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/initial.h"
#include "solver/multistart.h"
#include "solver/projected_gradient.h"
#include "util/check.h"
#include "util/random.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ldb {

namespace {

/// Layout entries below this are "object not on target" for membership
/// accounting (matches the model's presence filter scale).
constexpr double kMassEpsilon = 1e-12;

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Union-find with deterministic roots: the smaller index always wins, so
/// cluster identities depend only on the merge sequence, never on rank
/// heuristics.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  /// Merges the trees of a and b; the smaller root becomes the root.
  int Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return a;
    if (b < a) std::swap(a, b);
    parent_[static_cast<size_t>(b)] = a;
    return a;
  }

 private:
  std::vector<int> parent_;
};

/// One undirected co-access edge (a < b).
struct CoEdge {
  int a = 0;
  int b = 0;
  double w = 0.0;
};

/// Builds the rate-weighted co-access graph from the overlap rows (sparse
/// or dense): edge weight a<->b accumulates O_a[b]·rate_a + O_b[a]·rate_b —
/// the interference both directions would price if the two objects shared a
/// target. Same graph family the AutoAdmin baseline separates on, here used
/// to keep co-accessed objects *together* so their coupling stays inside
/// one shard's solve.
std::vector<CoEdge> BuildCoAccessEdges(const WorkloadSet& workloads) {
  const int n = static_cast<int>(workloads.size());
  std::vector<CoEdge> directed;
  for (int i = 0; i < n; ++i) {
    const WorkloadDesc& w = workloads[static_cast<size_t>(i)];
    const double rate = w.total_rate();
    auto add = [&](int k, double v) {
      if (k == i || v <= 0.0) return;
      directed.push_back(CoEdge{std::min(i, k), std::max(i, k), v * rate});
    };
    if (w.has_sparse_overlap()) {
      for (size_t s = 0; s < w.overlap_index.size(); ++s) {
        add(w.overlap_index[s], w.overlap_value[s]);
      }
    } else {
      for (size_t k = 0; k < w.overlap.size(); ++k) {
        add(static_cast<int>(k), w.overlap[k]);
      }
    }
  }
  std::sort(directed.begin(), directed.end(),
            [](const CoEdge& x, const CoEdge& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  std::vector<CoEdge> edges;
  for (const CoEdge& e : directed) {
    if (!edges.empty() && edges.back().a == e.a && edges.back().b == e.b) {
      edges.back().w += e.w;
    } else {
      edges.push_back(e);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const CoEdge& x, const CoEdge& y) {
    if (x.w != y.w) return x.w > y.w;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return edges;
}

/// Restriction of `full` to the given objects and targets, with overlap
/// rows remapped to shard-local indices. Cross-shard overlap entries are
/// dropped — exact, not an approximation, because interference only couples
/// objects that share a target and the callers only ever pair objects with
/// the target set that holds all their mass.
LayoutProblem SubProblem(const LayoutProblem& full,
                         const std::vector<int>& objects,
                         const std::vector<int>& targets) {
  const size_t n = full.workloads.size();
  std::vector<int> inv(n, -1);
  for (size_t pos = 0; pos < objects.size(); ++pos) {
    inv[static_cast<size_t>(objects[pos])] = static_cast<int>(pos);
  }
  LayoutProblem sub;
  sub.lvm_stripe_bytes = full.lvm_stripe_bytes;
  const size_t ns = objects.size();
  sub.object_names.reserve(ns);
  sub.object_sizes.reserve(ns);
  sub.object_kinds.reserve(ns);
  sub.workloads.reserve(ns);
  for (const int o : objects) {
    const size_t uo = static_cast<size_t>(o);
    sub.object_names.push_back(full.object_names[uo]);
    sub.object_sizes.push_back(full.object_sizes[uo]);
    sub.object_kinds.push_back(full.object_kinds[uo]);
    WorkloadDesc w = full.workloads[uo];
    if (w.has_sparse_overlap()) {
      std::vector<int32_t> idx;
      std::vector<double> val;
      idx.reserve(w.overlap_index.size());
      val.reserve(w.overlap_value.size());
      // `objects` is ascending, so the remap preserves sort order.
      for (size_t s = 0; s < w.overlap_index.size(); ++s) {
        const int t = inv[static_cast<size_t>(w.overlap_index[s])];
        if (t < 0) continue;
        idx.push_back(static_cast<int32_t>(t));
        val.push_back(w.overlap_value[s]);
      }
      w.overlap_index = std::move(idx);
      w.overlap_value = std::move(val);
    }
    if (!w.overlap.empty()) {
      std::vector<double> dense(ns, 0.0);
      for (size_t k = 0; k < ns; ++k) {
        dense[k] = w.overlap[static_cast<size_t>(objects[k])];
      }
      w.overlap = std::move(dense);
    }
    sub.workloads.push_back(std::move(w));
  }
  sub.targets.reserve(targets.size());
  for (const int t : targets) {
    sub.targets.push_back(full.targets[static_cast<size_t>(t)]);
  }
  return sub;
}

/// Accumulates one inner solve's effort counters into the fleet result.
void AccumulateEffort(const SolverResult& r, FleetResult* out) {
  out->iterations += r.iterations;
  out->objective_evaluations += r.objective_evaluations;
  out->gradient_evaluations += r.gradient_evaluations;
  out->interp_queries += r.interp_queries;
}

}  // namespace

FleetSolver::FleetSolver(FleetOptions options) : options_(options) {
  LDB_CHECK_GE(options_.shard_target_objects, 1);
  LDB_CHECK_GE(options_.min_shard_targets, 1);
  LDB_CHECK_GE(options_.coordination_partners, 1);
  LDB_CHECK_GE(options_.max_coordination_rounds, 0);
  LDB_CHECK_GE(options_.gain_tolerance, 0.0);
  LDB_CHECK_GE(options_.coordination_free_rows, 1);
  LDB_CHECK_GE(options_.extra_random_seeds, 0);
}

Result<FleetResult> FleetSolver::Solve(const LayoutProblem& problem) const {
  LDB_RETURN_IF_ERROR(problem.Validate());
  if (!problem.constraints.empty()) {
    return Status::InvalidArgument(
        "fleet solver does not support placement constraints; use the flat "
        "advisor");
  }
  const int n = problem.num_objects();
  const int m = problem.num_targets();

  FleetResult out;
  auto t0 = std::chrono::steady_clock::now();

  // ---- Phase 1: cluster objects and partition targets ----

  std::vector<double> demand(static_cast<size_t>(n));
  double total_demand = 0.0;
  for (int i = 0; i < n; ++i) {
    demand[static_cast<size_t>(i)] =
        problem.workloads[static_cast<size_t>(i)].total_rate();
    total_demand += demand[static_cast<size_t>(i)];
  }

  int num_shards = (n + options_.shard_target_objects - 1) /
                   options_.shard_target_objects;
  num_shards = std::min(num_shards, std::max(1, m / options_.min_shard_targets));
  num_shards = std::max(1, std::min(num_shards, n));

  // Kruskal-style greedy merge along the heaviest co-access edges, capped
  // so no cluster exceeds the mean shard size or hogs the demand budget.
  UnionFind uf(n);
  std::vector<int> csize(static_cast<size_t>(n), 1);
  std::vector<double> cdemand = demand;
  const int cap_objects = (n + num_shards - 1) / num_shards;
  const double cap_demand =
      num_shards > 1 ? 1.25 * total_demand / num_shards
                     : std::numeric_limits<double>::infinity();
  for (const CoEdge& e : BuildCoAccessEdges(problem.workloads)) {
    const int ra = uf.Find(e.a);
    const int rb = uf.Find(e.b);
    if (ra == rb) continue;
    if (csize[static_cast<size_t>(ra)] + csize[static_cast<size_t>(rb)] >
        cap_objects) {
      continue;
    }
    if (cdemand[static_cast<size_t>(ra)] + cdemand[static_cast<size_t>(rb)] >
        cap_demand) {
      continue;
    }
    const int r = uf.Union(ra, rb);
    const int other = r == ra ? rb : ra;
    csize[static_cast<size_t>(r)] += csize[static_cast<size_t>(other)];
    cdemand[static_cast<size_t>(r)] += cdemand[static_cast<size_t>(other)];
  }

  // Collect clusters (objects ascending per root) and LPT-pack them into
  // shards by demand: heaviest cluster first, always into the currently
  // lightest shard. Every tie breaks toward the lower index.
  std::vector<std::vector<int>> members(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    members[static_cast<size_t>(uf.Find(i))].push_back(i);
  }
  std::vector<int> roots;
  for (int r = 0; r < n; ++r) {
    if (!members[static_cast<size_t>(r)].empty()) roots.push_back(r);
  }
  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    const double da = cdemand[static_cast<size_t>(a)];
    const double db = cdemand[static_cast<size_t>(b)];
    if (da != db) return da > db;
    return a < b;
  });
  num_shards = std::min(num_shards, static_cast<int>(roots.size()));
  std::vector<FleetShardInfo> shards(static_cast<size_t>(num_shards));
  std::vector<int64_t> shard_bytes(static_cast<size_t>(num_shards), 0);
  for (const int r : roots) {
    size_t best = 0;
    for (size_t s = 1; s < shards.size(); ++s) {
      if (shards[s].demand < shards[best].demand) best = s;
    }
    FleetShardInfo& sh = shards[best];
    sh.demand += cdemand[static_cast<size_t>(r)];
    for (const int o : members[static_cast<size_t>(r)]) {
      sh.objects.push_back(o);
      shard_bytes[best] += problem.object_sizes[static_cast<size_t>(o)];
    }
  }
  for (FleetShardInfo& sh : shards) {
    std::sort(sh.objects.begin(), sh.objects.end());
  }

  // Partition targets: byte feasibility first, then the minimum target
  // count, then proportionality to demand. Targets are dealt in capacity
  // order so the big devices settle the big deficits.
  const std::vector<int64_t> capacities = problem.capacities();
  double total_capacity = 0.0;
  for (const int64_t c : capacities) total_capacity += static_cast<double>(c);
  std::vector<int> target_order(static_cast<size_t>(m));
  std::iota(target_order.begin(), target_order.end(), 0);
  std::sort(target_order.begin(), target_order.end(), [&](int a, int b) {
    if (capacities[static_cast<size_t>(a)] !=
        capacities[static_cast<size_t>(b)]) {
      return capacities[static_cast<size_t>(a)] >
             capacities[static_cast<size_t>(b)];
    }
    return a < b;
  });
  std::vector<int64_t> shard_cap(shards.size(), 0);
  for (const int t : target_order) {
    int best = -1;
    int best_stage = -1;
    double best_value = 0.0;
    for (size_t s = 0; s < shards.size(); ++s) {
      const double deficit =
          static_cast<double>(shard_bytes[s] - shard_cap[s]);
      int stage;
      double value;
      if (deficit > 0.0) {
        stage = 2;
        value = deficit;
      } else if (static_cast<int>(shards[s].targets.size()) <
                 options_.min_shard_targets) {
        stage = 1;
        value = static_cast<double>(options_.min_shard_targets) -
                static_cast<double>(shards[s].targets.size());
      } else {
        stage = 0;
        value = (total_demand > 0.0 ? shards[s].demand / total_demand : 0.0) -
                (total_capacity > 0.0
                     ? static_cast<double>(shard_cap[s]) / total_capacity
                     : 0.0);
      }
      if (stage > best_stage ||
          (stage == best_stage && value > best_value)) {
        best = static_cast<int>(s);
        best_stage = stage;
        best_value = value;
      }
    }
    shards[static_cast<size_t>(best)].targets.push_back(t);
    shard_cap[static_cast<size_t>(best)] += capacities[static_cast<size_t>(t)];
  }
  for (FleetShardInfo& sh : shards) {
    std::sort(sh.targets.begin(), sh.targets.end());
  }

  // Spill pass: a shard whose clusters outweigh its assigned capacity
  // sheds its smallest objects to the shard with the most spare bytes.
  for (int guard = 0; guard < n; ++guard) {
    int worst = -1;
    int64_t worst_deficit = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      const int64_t deficit = shard_bytes[s] - shard_cap[s];
      if (deficit > worst_deficit) {
        worst = static_cast<int>(s);
        worst_deficit = deficit;
      }
    }
    if (worst < 0) break;
    int roomiest = -1;
    int64_t spare = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      if (static_cast<int>(s) == worst) continue;
      const int64_t sp = shard_cap[s] - shard_bytes[s];
      if (roomiest < 0 || sp > spare) {
        roomiest = static_cast<int>(s);
        spare = sp;
      }
    }
    FleetShardInfo& from = shards[static_cast<size_t>(worst)];
    int move_pos = -1;
    int64_t move_size = 0;
    for (size_t p = 0; p < from.objects.size(); ++p) {
      const int64_t sz =
          problem.object_sizes[static_cast<size_t>(from.objects[p])];
      if (sz > spare) continue;
      if (move_pos < 0 || sz < move_size) {
        move_pos = static_cast<int>(p);
        move_size = sz;
      }
    }
    if (roomiest < 0 || move_pos < 0) {
      return Status::Infeasible(
          StrFormat("fleet target partition infeasible: shard %d needs %lld "
                    "bytes over its capacity and no object fits elsewhere",
                    worst, static_cast<long long>(worst_deficit)));
    }
    const int obj = from.objects[static_cast<size_t>(move_pos)];
    from.objects.erase(from.objects.begin() + move_pos);
    from.demand -= demand[static_cast<size_t>(obj)];
    shard_bytes[static_cast<size_t>(worst)] -= move_size;
    FleetShardInfo& to = shards[static_cast<size_t>(roomiest)];
    to.objects.insert(
        std::lower_bound(to.objects.begin(), to.objects.end(), obj), obj);
    to.demand += demand[static_cast<size_t>(obj)];
    shard_bytes[static_cast<size_t>(roomiest)] += move_size;
  }

  out.cluster_seconds = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();

  // ---- Phase 2: independent shard solves on the pool ----

  SolverOptions inner = options_.solver;
  inner.num_threads = 1;  // shard-level parallelism only: see header
  struct ShardSlot {
    Status status;
    SolverResult result;
  };
  std::vector<ShardSlot> slots(shards.size());
  ThreadPool pool(ThreadPool::EffectiveThreads(options_.num_threads));
  const FleetOptions& opts = options_;
  pool.ParallelFor(
      static_cast<int64_t>(shards.size()), [&](int, int64_t s) {
        const FleetShardInfo& sh = shards[static_cast<size_t>(s)];
        ShardSlot& slot = slots[static_cast<size_t>(s)];
        if (sh.objects.empty()) {
          slot.result.feasible = true;
          return;
        }
        const LayoutProblem sub =
            SubProblem(problem, sh.objects, sh.targets);
        const TargetModel model = sub.MakeTargetModel();
        const LayoutNlpProblem nlp = sub.MakeNlp(&model);
        Result<Layout> init = InitialLayout(sub);
        Layout seed = init.ok()
                          ? std::move(init).value()
                          : Layout::StripeEverythingEverywhere(
                                sub.num_objects(), sub.num_targets());
        std::vector<Layout> seeds;
        seeds.push_back(std::move(seed));
        if (opts.extra_random_seeds > 0) {
          Rng rng(MixSeed(opts.seed, static_cast<uint64_t>(s)));
          const std::vector<Layout> extra = MultiStartSolver::RandomSeeds(
              nlp, opts.extra_random_seeds, &rng);
          seeds.insert(seeds.end(), extra.begin(), extra.end());
        }
        const MultiStartSolver solver(inner);
        Result<SolverResult> solved = solver.Solve(nlp, seeds);
        if (!solved.ok()) {
          slot.status = solved.status();
          return;
        }
        slot.result = std::move(solved).value();
      });
  for (size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].status.ok()) return slots[s].status;
  }

  Layout layout(n, m);
  for (size_t s = 0; s < shards.size(); ++s) {
    const FleetShardInfo& sh = shards[s];
    if (sh.objects.empty()) continue;
    const Layout& sub = slots[s].result.layout;
    for (size_t pi = 0; pi < sh.objects.size(); ++pi) {
      for (size_t pj = 0; pj < sh.targets.size(); ++pj) {
        layout.Set(sh.objects[pi], sh.targets[pj],
                   sub.At(static_cast<int>(pi), static_cast<int>(pj)));
      }
    }
    AccumulateEffort(slots[s].result, &out);
  }
  out.shard_solve_seconds = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();

  // ---- Phase 3: cross-shard coordination ----

  const TargetModel model = problem.MakeTargetModel();
  std::vector<int> owner(static_cast<size_t>(m), 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (const int t : shards[s].targets) {
      owner[static_cast<size_t>(t)] = static_cast<int>(s);
    }
  }

  std::vector<double> mu_ij;
  for (int round = 0; round < options_.max_coordination_rounds &&
                      shards.size() > 1;
       ++round) {
    const std::vector<double> mu =
        model.Utilizations(problem.workloads, layout, &mu_ij);
    int hot_target = 0;
    for (int j = 1; j < m; ++j) {
      if (mu[static_cast<size_t>(j)] > mu[static_cast<size_t>(hot_target)]) {
        hot_target = j;
      }
    }
    const double cur_max = mu[static_cast<size_t>(hot_target)];
    if (cur_max <= 0.0) break;
    const int hot_shard = owner[static_cast<size_t>(hot_target)];

    // Partner shards, coolest own-max first.
    std::vector<double> shard_max(shards.size(), 0.0);
    for (int j = 0; j < m; ++j) {
      double& sm = shard_max[static_cast<size_t>(owner[static_cast<size_t>(j)])];
      sm = std::max(sm, mu[static_cast<size_t>(j)]);
    }
    std::vector<int> partners;
    for (size_t s = 0; s < shards.size(); ++s) {
      if (static_cast<int>(s) != hot_shard) {
        partners.push_back(static_cast<int>(s));
      }
    }
    std::sort(partners.begin(), partners.end(), [&](int a, int b) {
      if (shard_max[static_cast<size_t>(a)] !=
          shard_max[static_cast<size_t>(b)]) {
        return shard_max[static_cast<size_t>(a)] <
               shard_max[static_cast<size_t>(b)];
      }
      return a < b;
    });
    if (partners.size() > static_cast<size_t>(options_.coordination_partners)) {
      partners.resize(static_cast<size_t>(options_.coordination_partners));
    }

    double best_gain = 0.0;
    Layout best_layout(1, 1);
    bool have_best = false;
    for (const int partner : partners) {
      // The pair subproblem: both shards' targets, every object with mass
      // on them. Objects whose mass extends outside the pair (straddlers
      // from earlier rounds) are frozen — their fixed fractions still
      // price into the pair's columns, but only fully-contained rows move.
      std::vector<int> pair_targets;
      for (const int t : shards[static_cast<size_t>(hot_shard)].targets) {
        pair_targets.push_back(t);
      }
      for (const int t : shards[static_cast<size_t>(partner)].targets) {
        pair_targets.push_back(t);
      }
      std::sort(pair_targets.begin(), pair_targets.end());
      std::vector<char> in_pair(static_cast<size_t>(m), 0);
      for (const int t : pair_targets) in_pair[static_cast<size_t>(t)] = 1;

      std::vector<int> pair_objects;
      std::vector<char> movable;
      std::vector<double> contribution;
      for (int i = 0; i < n; ++i) {
        double inside = 0.0;
        double contrib = 0.0;
        for (const int t : pair_targets) {
          inside += std::max(0.0, layout.At(i, t));
          contrib += mu_ij[static_cast<size_t>(i) * static_cast<size_t>(m) +
                           static_cast<size_t>(t)];
        }
        if (inside <= kMassEpsilon) continue;
        const double outside =
            std::max(0.0, layout.RowSum(i) - inside);
        pair_objects.push_back(i);
        movable.push_back(outside <= 1e-9 ? 1 : 0);
        contribution.push_back(contrib);
      }
      if (pair_objects.empty()) continue;

      // Free the top contributors on the pair's targets; freeze the rest.
      std::vector<int> order(pair_objects.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (contribution[static_cast<size_t>(a)] !=
            contribution[static_cast<size_t>(b)]) {
          return contribution[static_cast<size_t>(a)] >
                 contribution[static_cast<size_t>(b)];
        }
        return pair_objects[static_cast<size_t>(a)] <
               pair_objects[static_cast<size_t>(b)];
      });
      std::vector<char> frozen(pair_objects.size(), 1);
      int freed = 0;
      for (const int p : order) {
        if (freed >= options_.coordination_free_rows) break;
        if (!movable[static_cast<size_t>(p)]) continue;
        frozen[static_cast<size_t>(p)] = 0;
        ++freed;
      }
      if (freed == 0) continue;

      LayoutProblem sub = SubProblem(problem, pair_objects, pair_targets);
      const TargetModel sub_model = sub.MakeTargetModel();
      LayoutNlpProblem nlp = sub.MakeNlp(&sub_model);
      nlp.frozen_rows.assign(frozen.begin(), frozen.end());
      Layout warm(static_cast<int>(pair_objects.size()),
                  static_cast<int>(pair_targets.size()));
      for (size_t pi = 0; pi < pair_objects.size(); ++pi) {
        for (size_t pj = 0; pj < pair_targets.size(); ++pj) {
          warm.Set(static_cast<int>(pi), static_cast<int>(pj),
                   std::max(0.0, layout.At(pair_objects[pi],
                                           pair_targets[pj])));
        }
      }
      // Two seeds: the warm current layout, and a fresh rate-balance
      // initial of the pair subproblem (frozen rows overwritten from the
      // warm layout, which the solver takes verbatim) so the polish can
      // leave the sharded solution's basin when a better one exists.
      std::vector<Layout> seeds;
      seeds.push_back(warm);
      Result<Layout> fresh = InitialLayout(sub);
      if (fresh.ok()) {
        Layout f = std::move(fresh).value();
        for (size_t pi = 0; pi < pair_objects.size(); ++pi) {
          if (!frozen[pi]) continue;
          for (size_t pj = 0; pj < pair_targets.size(); ++pj) {
            f.Set(static_cast<int>(pi), static_cast<int>(pj),
                  warm.At(static_cast<int>(pi), static_cast<int>(pj)));
          }
        }
        seeds.push_back(std::move(f));
      }
      const MultiStartSolver solver(inner);
      Result<SolverResult> polished = solver.Solve(nlp, seeds);
      if (!polished.ok()) continue;
      AccumulateEffort(*polished, &out);

      Layout candidate = layout;
      for (size_t pi = 0; pi < pair_objects.size(); ++pi) {
        for (size_t pj = 0; pj < pair_targets.size(); ++pj) {
          candidate.Set(pair_objects[pi], pair_targets[pj],
                        polished->layout.At(static_cast<int>(pi),
                                            static_cast<int>(pj)));
        }
      }
      // Only the pair's columns changed; everything else keeps its µ.
      double new_max = 0.0;
      for (int j = 0; j < m; ++j) {
        const double v =
            in_pair[static_cast<size_t>(j)]
                ? model.TargetUtilization(problem.workloads, candidate, j)
                : mu[static_cast<size_t>(j)];
        new_max = std::max(new_max, v);
      }
      const double gain = cur_max - new_max;
      if (gain > best_gain) {
        best_gain = gain;
        best_layout = std::move(candidate);
        have_best = true;
      }
    }

    ++out.coordination_rounds;
    if (!have_best || best_gain <= options_.gain_tolerance * cur_max) break;
    layout = std::move(best_layout);
    ++out.accepted_moves;
  }
  out.coordination_seconds = SecondsSince(t0);

  // ---- Assemble ----
  out.utilizations = model.Utilizations(problem.workloads, layout);
  out.max_utilization =
      *std::max_element(out.utilizations.begin(), out.utilizations.end());
  for (FleetShardInfo& sh : shards) {
    sh.max_utilization = 0.0;
    for (const int t : sh.targets) {
      sh.max_utilization =
          std::max(sh.max_utilization, out.utilizations[static_cast<size_t>(t)]);
    }
  }
  out.feasible = layout.IsValid(problem.object_sizes, capacities);
  out.shards = std::move(shards);
  out.layout = std::move(layout);
  return out;
}

}  // namespace ldb
