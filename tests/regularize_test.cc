// Exactness of the regularizer's incremental candidate pricer. Every check
// compares doubles with EXPECT_EQ: the pricer must reproduce from-scratch
// TargetModel pricing bit for bit, and the regularizer, greedy placement
// into all-zero rows and failure re-planning must pick exactly what a
// from-scratch reference picks.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/problem.h"
#include "core/regularize.h"
#include "core/replan.h"
#include "full_overlap_row.h"
#include "solver/projected_gradient.h"
#include "util/random.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Two cost tables of different speeds, so targets are heterogeneous.
const CostModel& TestCost(int variant) {
  static const CostModel* models[2] = {nullptr, nullptr};
  if (models[variant] == nullptr) {
    const double scale = variant == 0 ? 1.0 : 0.35;
    std::vector<double> sizes{static_cast<double>(8 * kKiB),
                              static_cast<double>(256 * kKiB)};
    std::vector<double> runs{1, 64};
    std::vector<double> chis{0, 2, 8};
    std::vector<double> reads, writes;
    for (double s : sizes) {
      for (double q : runs) {
        for (double c : chis) {
          const double v = scale * 0.004 * (0.5 + 0.5 * s / (8 * kKiB)) *
                           (1.0 + 1.5 * c) / std::sqrt(q);
          reads.push_back(v);
          writes.push_back(0.8 * v);
        }
      }
    }
    auto m = CostModel::Create("regtest", sizes, runs, chis, reads, writes);
    LDB_CHECK(m.ok());
    models[variant] = new CostModel(std::move(m).value());
  }
  return *models[variant];
}

/// How overlap rows are stored: every entry (zeros included), zero-trimmed
/// (SetOverlapRow), or a random mix of the two.
enum class OverlapForm { kFull, kTrimmed, kMixed };

/// A random problem: idle and busy objects, reads and writes of two sizes,
/// random co-access (diagonal self-overlap included), RAID0/1/5 targets on
/// two device speeds. `slack` scales total capacity over the data size.
LayoutProblem RandomProblem(Rng& rng, int n, int m, OverlapForm form,
                            double slack) {
  LayoutProblem p;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(
        static_cast<int64_t>(1 + rng.UniformInt(uint64_t{4})) * kGiB);
    total += p.object_sizes.back();
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    if (!rng.Bernoulli(0.1)) w.read_rate = rng.Uniform(1, 200);
    w.read_size = rng.Bernoulli(0.5) ? 8 * kKiB : 256 * kKiB;
    if (rng.Bernoulli(0.4)) {
      w.write_rate = rng.Uniform(1, 60);
      w.write_size = rng.Bernoulli(0.5) ? 8 * kKiB : 256 * kKiB;
    }
    w.run_count = rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(1, 64);
    std::vector<double> row(static_cast<size_t>(n), 0.0);
    for (int k = 0; k < n; ++k) {
      if (k == i) {
        row[static_cast<size_t>(k)] = rng.Uniform(0, 2);
      } else if (rng.Bernoulli(0.4)) {
        row[static_cast<size_t>(k)] = rng.Uniform(0, 1);
      }
    }
    SetFullOverlapRow(&w, row);
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < m; ++j) {
    AdvisorTarget t;
    t.name = StrFormat("t%d", j);
    t.capacity_bytes =
        static_cast<int64_t>(slack * static_cast<double>(total) / m) + 1;
    t.cost_model = &TestCost(static_cast<int>(rng.UniformInt(uint64_t{2})));
    switch (rng.UniformInt(uint64_t{3})) {
      case 0:
        t.raid_level = RaidLevel::kRaid0;
        t.num_members = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
        break;
      case 1:
        t.raid_level = RaidLevel::kRaid1;
        t.num_members = 2;
        break;
      default:
        t.raid_level = RaidLevel::kRaid5;
        t.num_members = 3 + static_cast<int>(rng.UniformInt(uint64_t{3}));
        break;
    }
    p.targets.push_back(t);
  }
  if (form != OverlapForm::kFull) {
    for (int i = 0; i < n; ++i) {
      if (form == OverlapForm::kTrimmed || rng.Bernoulli(0.5)) {
        WorkloadDesc& w = p.workloads[static_cast<size_t>(i)];
        const std::vector<double> row = w.overlap_value;
        SetOverlapRow(&w, static_cast<size_t>(i), row);
      }
    }
  }
  return p;
}

/// A random nonempty subset of `universe`, each member kept with p = 0.4.
std::vector<int> RandomTargetsFrom(Rng& rng, const std::vector<int>& universe) {
  std::vector<int> targets;
  for (int j : universe) {
    if (rng.Bernoulli(0.4)) targets.push_back(j);
  }
  if (targets.empty()) {
    targets.push_back(universe[rng.UniformInt(universe.size())]);
  }
  return targets;
}

std::vector<int> RandomTargets(Rng& rng, int m) {
  std::vector<int> all(static_cast<size_t>(m));
  std::iota(all.begin(), all.end(), 0);
  return RandomTargetsFrom(rng, all);
}

/// A solver-like layout: regular rows, uneven rows with solver slivers in
/// (0, 1e-4], and (when `empty_rows`) all-zero rows of unplaced objects.
Layout RandomLayout(Rng& rng, int n, int m, bool empty_rows) {
  Layout l(n, m);
  for (int i = 0; i < n; ++i) {
    const uint64_t kind = rng.UniformInt(uint64_t{4});
    if (kind == 0) {
      l.SetRowRegular(i, RandomTargets(rng, m));
    } else if (kind == 1 && empty_rows) {
      continue;
    } else {
      std::vector<double> w(static_cast<size_t>(m), 0.0);
      for (int j : RandomTargets(rng, m)) {
        w[static_cast<size_t>(j)] = rng.Uniform(0.05, 1.0);
      }
      if (rng.Bernoulli(0.5)) {
        w[rng.UniformInt(static_cast<uint64_t>(m))] = rng.Uniform(1e-7, 1e-4);
      }
      const double sum = std::accumulate(w.begin(), w.end(), 0.0);
      for (int j = 0; j < m; ++j) l.Set(i, j, w[static_cast<size_t>(j)] / sum);
    }
  }
  return l;
}

void ExpectCacheExact(const LayoutProblem& p, const TargetModel& model,
                      const CandidatePricer& pricer) {
  std::vector<double> mu_ij;
  const std::vector<double> mu =
      model.Utilizations(p.workloads, pricer.layout(), &mu_ij);
  const int m = p.num_targets();
  for (int j = 0; j < m; ++j) {
    EXPECT_EQ(pricer.mu()[static_cast<size_t>(j)], mu[static_cast<size_t>(j)])
        << "target " << j;
    for (int i = 0; i < p.num_objects(); ++i) {
      EXPECT_EQ(pricer.mu_ij(i, j),
                mu_ij[static_cast<size_t>(i) * static_cast<size_t>(m) +
                      static_cast<size_t>(j)])
          << "object " << i << " target " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Reference: the candidate search without incremental pricing. Every
// candidate is applied to a copy of the layout and every target priced
// from scratch.

struct RefChoice {
  bool found = false;
  double objective = 0.0;
  std::vector<int> targets;
};

/// Candidates RefBestRow has seen tie the best so far bit for bit on a
/// different target set: the cases only the candidate order decides.
int ref_tied_candidates = 0;

/// `targets` as a set, ascending.
std::vector<int> Ascending(std::vector<int> targets) {
  std::sort(targets.begin(), targets.end());
  return targets;
}

double RefObjective(const RegularizerOptions& o,
                    const std::vector<double>& mu) {
  double out = 0.0;
  for (size_t j = 0; j < mu.size(); ++j) {
    out = std::max(out,
                   EffectiveTargetUtilization(o, mu[j], static_cast<int>(j)));
  }
  return out;
}

double RefObjective(const LayoutProblem& p, const TargetModel& model,
                    const RegularizerOptions& o, const Layout& l) {
  return RefObjective(o, model.Utilizations(p.workloads, l));
}

RefChoice RefBestRow(const LayoutProblem& p, const TargetModel& model,
                     const RegularizerOptions& o, const Layout& current,
                     int i) {
  const std::vector<double> mu = model.Utilizations(p.workloads, current);
  std::vector<int> universe = p.constraints.AllowedFor(i);
  if (universe.empty()) {
    universe.resize(static_cast<size_t>(p.num_targets()));
    std::iota(universe.begin(), universe.end(), 0);
  }
  std::vector<int> by_fraction = universe;
  std::stable_sort(by_fraction.begin(), by_fraction.end(),
                   [&](int a, int b) { return current.At(i, a) > current.At(i, b); });
  std::vector<int> by_load = universe;
  std::stable_sort(by_load.begin(), by_load.end(), [&](int a, int b) {
    return EffectiveTargetUtilization(o, mu[static_cast<size_t>(a)], a) <
           EffectiveTargetUtilization(o, mu[static_cast<size_t>(b)], b);
  });
  RefChoice best;
  const auto consider = [&](const std::vector<int>& targets) {
    for (const auto& [a, b] : p.constraints.separate) {
      const int partner = a == i ? b : (b == i ? a : -1);
      if (partner < 0) continue;
      for (int j : targets) {
        if (current.At(partner, j) > kLayoutZeroTolerance) return;
      }
    }
    Layout trial = current;
    trial.SetRowRegular(i, targets);
    if (!trial.SatisfiesCapacity(p.object_sizes, p.capacities())) return;
    const double objective = RefObjective(p, model, o, trial);
    if (!best.found || objective < best.objective) {
      best = RefChoice{true, objective, targets};
    } else if (objective == best.objective &&
               Ascending(targets) != Ascending(best.targets)) {
      ++ref_tied_candidates;
    }
  };
  for (size_t k = 1; k <= universe.size(); ++k) {
    const auto end = static_cast<std::ptrdiff_t>(k);
    consider({by_fraction.begin(), by_fraction.begin() + end});
    if (o.balancing_candidates) consider({by_load.begin(), by_load.begin() + end});
  }
  return best;
}

Result<Layout> RefRegularize(const LayoutProblem& p, const TargetModel& model,
                             const RegularizerOptions& o,
                             const Layout& solver_layout) {
  LDB_RETURN_IF_ERROR(p.Validate());
  const int n = p.num_objects();
  const int m = p.num_targets();
  std::vector<double> mu_ij;
  model.Utilizations(p.workloads, solver_layout, &mu_ij);
  std::vector<double> load(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      load[static_cast<size_t>(i)] +=
          mu_ij[static_cast<size_t>(i * m + j)];
    }
  }
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return load[static_cast<size_t>(a)] > load[static_cast<size_t>(b)];
  });
  Layout current = solver_layout;
  for (int i : order) {
    const RefChoice c = RefBestRow(p, model, o, current, i);
    if (!c.found) return Status::Infeasible("no regular candidate");
    current.SetRowRegular(i, c.targets);
  }
  for (int pass = 0; pass < o.refinement_passes; ++pass) {
    bool improved = false;
    for (int i : order) {
      const double incumbent = RefObjective(p, model, o, current);
      const RefChoice c = RefBestRow(p, model, o, current, i);
      if (c.found && c.objective < incumbent - 1e-12 &&
          current.TargetsOf(i) != c.targets) {
        current.SetRowRegular(i, c.targets);
        improved = true;
      }
    }
    if (!improved) break;
  }
  return current;
}

/// Random administrative constraints: some objects restricted to a target
/// subset, a few separation pairs.
void AddRandomConstraints(Rng& rng, LayoutProblem* p) {
  const int n = p->num_objects();
  const int m = p->num_targets();
  p->constraints.allowed_targets.assign(static_cast<size_t>(n), {});
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      p->constraints.allowed_targets[static_cast<size_t>(i)] =
          RandomTargets(rng, m);
    }
  }
  for (int s = 0; s < 2 && n >= 2; ++s) {
    const int a = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int b = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (a != b) p->constraints.separate.emplace_back(a, b);
  }
}

OverlapForm FormFor(uint64_t seed) {
  return static_cast<OverlapForm>(seed % 3);
}

// ------------------------------------------------------------------ pricer

TEST(CandidatePricerTest, TrialMuEqualsTargetUtilization) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed);
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{13}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const LayoutProblem p =
        RandomProblem(rng, n, m, FormFor(seed), rng.Uniform(1.05, 3.0));
    const TargetModel model = p.MakeTargetModel();
    const Layout layout = RandomLayout(rng, n, m, /*empty_rows=*/true);
    CandidatePricer pricer(&p, &model, layout);
    ExpectCacheExact(p, model, pricer);

    for (int t = 0; t < 20; ++t) {
      const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      const std::vector<int> targets = RandomTargets(rng, m);
      Layout trial = layout;
      trial.SetRowRegular(i, targets);
      const bool fits =
          trial.SatisfiesCapacity(p.object_sizes, p.capacities());
      const std::optional<double> got =
          pricer.Price(RegularizerOptions{}, i, targets, kInf);
      ASSERT_EQ(got.has_value(), fits) << "seed " << seed;
      if (!fits) continue;
      std::vector<double> want(static_cast<size_t>(m));
      for (int j = 0; j < m; ++j) {
        want[static_cast<size_t>(j)] =
            model.TargetUtilization(p.workloads, trial, j);
      }
      EXPECT_EQ(*got, RefObjective(RegularizerOptions{}, want))
          << "seed " << seed << " object " << i;
      // The same repricing, kept: every target's µ_j as TargetUtilization
      // prices the trial layout.
      CandidatePricer applied = pricer;
      applied.Apply(i, targets);
      for (int j = 0; j < m; ++j) {
        EXPECT_EQ(applied.mu()[static_cast<size_t>(j)],
                  want[static_cast<size_t>(j)])
            << "seed " << seed << " object " << i << " target " << j;
      }
    }
    // Pricing never disturbs the current state.
    EXPECT_TRUE(pricer.layout() == layout);
    ExpectCacheExact(p, model, pricer);
  }
}

// Bounded pricing against the exhaustive objective: a returned max is the
// exhaustive one bit for bit, a pruned candidate is at or above the bound
// or breaks a capacity, and no call disturbs the caches.
TEST(CandidatePricerTest, BoundedPriceIsExactOrPrunedAtTheBound) {
  int returned = 0;
  int pruned = 0;  // fitting candidates the bound dropped
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(7000 + seed);
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{13}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    LayoutProblem p =
        RandomProblem(rng, n, m, FormFor(seed), rng.Uniform(1.05, 3.0));
    AddRandomConstraints(rng, &p);
    RegularizerOptions o;
    o.target_derate.assign(static_cast<size_t>(m), 1.0);
    for (double& d : o.target_derate) {
      if (rng.Bernoulli(0.5)) d = rng.Uniform(0.2, 1.0);
    }
    if (seed % 2 == 0) {
      o.target_derate[rng.UniformInt(static_cast<uint64_t>(m))] = 0.0;
    }
    const TargetModel model = p.MakeTargetModel();
    Layout mirror = RandomLayout(rng, n, m, /*empty_rows=*/true);
    CandidatePricer pricer(&p, &model, mirror);
    for (int t = 0; t < 30; ++t) {
      const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      std::vector<int> universe = p.constraints.AllowedFor(i);
      if (universe.empty()) {
        universe.resize(static_cast<size_t>(m));
        std::iota(universe.begin(), universe.end(), 0);
      }
      const std::vector<int> targets = RandomTargetsFrom(rng, universe);
      Layout trial = mirror;
      trial.SetRowRegular(i, targets);
      const bool fits =
          trial.SatisfiesCapacity(p.object_sizes, p.capacities());
      const double want = RefObjective(p, model, o, trial);
      // Below, at (a tie must prune) and above the exhaustive max, and none.
      double bound = kInf;
      switch (rng.UniformInt(uint64_t{4})) {
        case 0: bound = want * rng.Uniform(0.5, 1.0); break;
        case 1: bound = want; break;
        case 2: bound = want * rng.Uniform(1.0, 2.0); break;
        default: break;
      }
      const int64_t before = pricer.columns_repriced();
      const std::optional<double> got = pricer.Price(o, i, targets, bound);
      const std::string where = StrFormat("seed %llu trial %d bound %.17g",
                                          static_cast<unsigned long long>(seed),
                                          t, bound);
      if (got.has_value()) {
        ++returned;
        EXPECT_TRUE(fits) << where;
        EXPECT_EQ(*got, want) << where;
        EXPECT_LT(*got, bound) << where;
      } else {
        pruned += fits;
        EXPECT_TRUE(!fits || want >= bound) << where << " want " << want;
      }
      if (fits && bound == kInf) {
        // Unbounded, exactly the columns whose entry changes are repriced.
        int64_t changed = 0;
        for (int j = 0; j < m; ++j) changed += trial.At(i, j) != mirror.At(i, j);
        EXPECT_EQ(pricer.columns_repriced() - before, changed) << where;
      }
      EXPECT_TRUE(pricer.layout() == mirror) << where;
      ExpectCacheExact(p, model, pricer);
      if (fits && t % 5 == 4) {
        pricer.Apply(i, targets);
        mirror = trial;
      }
    }
  }
  EXPECT_GT(returned, 500);
  EXPECT_GT(pruned, 500);
}

TEST(CandidatePricerTest, PartnerListsIgnoreStoredZeros) {
  // A stored zero is not a partner: full and zero-trimmed rows of the same
  // problem give identical partner lists.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{13}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const LayoutProblem full =
        RandomProblem(rng, n, m, OverlapForm::kFull, 2.0);
    LayoutProblem trimmed = full;
    for (int i = 0; i < n; ++i) {
      WorkloadDesc& w = trimmed.workloads[static_cast<size_t>(i)];
      const std::vector<double> row = w.overlap_value;
      SetOverlapRow(&w, static_cast<size_t>(i), row);
    }
    const TargetModel model = full.MakeTargetModel();
    const Layout layout = RandomLayout(rng, n, m, /*empty_rows=*/true);
    const CandidatePricer a(&full, &model, layout);
    const CandidatePricer b(&trimmed, &model, layout);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(a.partners(i), b.partners(i))
          << "seed " << seed << " object " << i;
    }
  }
}

TEST(CandidatePricerTest, CacheEqualsUtilizationsAfterEveryMove) {
  for (uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng(seed);
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{13}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    const LayoutProblem p = RandomProblem(rng, n, m, FormFor(seed), 3.0);
    const TargetModel model = p.MakeTargetModel();
    Layout mirror = RandomLayout(rng, n, m, /*empty_rows=*/true);
    CandidatePricer pricer(&p, &model, mirror);
    for (int move = 0; move < 25; ++move) {
      const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
      const std::vector<int> targets = RandomTargets(rng, m);
      pricer.Apply(i, targets);
      mirror.SetRowRegular(i, targets);
      ASSERT_TRUE(pricer.layout() == mirror);
      ExpectCacheExact(p, model, pricer);
    }
  }
}

// --------------------------------------------------- callers vs reference

TEST(RegularizeExactnessTest, MatchesFromScratchReference) {
  int regularized = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(1000 + seed);
    const int n = 2 + static_cast<int>(rng.UniformInt(uint64_t{9}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    LayoutProblem p =
        RandomProblem(rng, n, m, FormFor(seed), rng.Uniform(1.5, 3.0));
    if (rng.Bernoulli(0.5)) AddRandomConstraints(rng, &p);
    RegularizerOptions o;
    o.balancing_candidates = !rng.Bernoulli(0.2);
    if (rng.Bernoulli(0.4)) {
      o.target_derate.assign(static_cast<size_t>(m), 1.0);
      for (double& d : o.target_derate) {
        if (rng.Bernoulli(0.5)) d = rng.Uniform(0.2, 1.0);
      }
      if (rng.Bernoulli(0.3)) {
        o.target_derate[rng.UniformInt(static_cast<uint64_t>(m))] = 0.0;
      }
    }
    const TargetModel model = p.MakeTargetModel();
    const Layout solver_layout = RandomLayout(rng, n, m, /*empty_rows=*/false);

    const Result<Layout> got = Regularizer(&p, &model, o).Regularize(solver_layout);
    const Result<Layout> want = RefRegularize(p, model, o, solver_layout);
    ASSERT_EQ(got.ok(), want.ok()) << "seed " << seed;
    if (!got.ok()) continue;
    ++regularized;
    EXPECT_TRUE(*got == *want) << "seed " << seed << "\n"
                               << got->ToString() << want->ToString();
  }
  EXPECT_GT(regularized, 120);
}

// RelayoutRows places the all-zero rows one at a time, in decreasing
// request-rate order, on the best regular row the pricer finds, with every
// other row frozen (failure re-planning's path for displaced rows).
TEST(RegularizeExactnessTest, GreedyEmptyRowPlacementMatchesReference) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(2000 + seed);
    const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    const int m = 2 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    LayoutProblem p =
        RandomProblem(rng, n, m, FormFor(seed), rng.Uniform(1.3, 3.0));
    if (rng.Bernoulli(0.5)) AddRandomConstraints(rng, &p);
    Layout current(n, m);
    std::vector<int> to_place;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) {
        to_place.push_back(i);
      } else {
        current.SetRowRegular(i, RandomTargets(rng, m));
      }
    }
    if (!current.SatisfiesCapacity(p.object_sizes, p.capacities())) continue;

    const TargetModel model = p.MakeTargetModel();
    std::stable_sort(to_place.begin(), to_place.end(), [&](int a, int b) {
      return p.workloads[static_cast<size_t>(a)].total_rate() >
             p.workloads[static_cast<size_t>(b)].total_rate();
    });
    CandidatePricer pricer(&p, &model, current);
    const bool got_placed =
        RelayoutRows(RegularizerOptions{}, &pricer, to_place, {}, 0.0) < 0;
    Layout want = current;
    bool placed = true;
    for (int i : to_place) {
      const RefChoice c = RefBestRow(p, model, {}, want, i);
      if (!c.found) {
        placed = false;
        break;
      }
      want.SetRowRegular(i, c.targets);
    }
    ASSERT_EQ(got_placed, placed) << "seed " << seed;
    if (placed) {
      EXPECT_TRUE(pricer.layout() == want) << "seed " << seed;
    }
  }
}

TEST(TargetDerateTest, ScalesColumnPassesAndZeroesFailedTargets) {
  // Derate factors per target: failed, derated, healthy, above 1.
  const std::vector<double> derate{0.0, 0.4, 1.0, 1.5};
  const int m = static_cast<int>(derate.size());
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(5000 + seed);
    const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    const LayoutProblem p = RandomProblem(rng, n, m, FormFor(seed), 2.5);
    const TargetModel model = p.MakeTargetModel();
    const LayoutNlpProblem raw = p.MakeNlp(&model);
    LayoutNlpProblem derated = raw;
    ApplyTargetDerate(derate, &derated);
    const Layout layout = RandomLayout(rng, n, m, /*empty_rows=*/true);
    std::vector<double> raw_grad(static_cast<size_t>(n));
    std::vector<double> grad(static_cast<size_t>(n));
    for (int j = 0; j < m; ++j) {
      const double d = derate[static_cast<size_t>(j)];
      auto raw_col = raw.make_column_eval(j);
      auto col = derated.make_column_eval(j);
      const double u = raw_col->EvaluateWithGradient(layout, raw_grad.data());
      const double v = col->EvaluateWithGradient(layout, grad.data());
      const double scalar = derated.target_utilization(layout, j);
      const double raw_scalar = raw.target_utilization(layout, j);
      if (d <= 0.0) {
        EXPECT_EQ(v, 0.0) << "seed " << seed;
        EXPECT_EQ(scalar, 0.0);
        for (double g : grad) EXPECT_EQ(g, 0.0);
        continue;
      }
      const double scale = d >= 1.0 ? 1.0 : d;
      EXPECT_EQ(v, u / scale) << "seed " << seed << " j " << j;
      EXPECT_EQ(scalar, raw_scalar / scale);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(grad[static_cast<size_t>(i)],
                  raw_grad[static_cast<size_t>(i)] / scale)
            << "seed " << seed << " i " << i << " j " << j;
      }
      EXPECT_EQ(col->interp_queries(), raw_col->interp_queries());
      EXPECT_GT(col->interp_queries(), 0);
    }
  }
}

/// A random regular layout honoring `p`'s constraints: row i stripes a
/// random subset of its allowed targets, less those of its separation
/// partners placed before it. False when some row is left no target.
bool RandomHonoringLayout(Rng& rng, const LayoutProblem& p, Layout* layout) {
  for (int i = 0; i < p.num_objects(); ++i) {
    std::vector<int> universe = p.constraints.AllowedFor(i);
    if (universe.empty()) {
      universe.resize(static_cast<size_t>(p.num_targets()));
      std::iota(universe.begin(), universe.end(), 0);
    }
    for (const auto& [a, b] : p.constraints.separate) {
      const int partner = a == i ? b : (b == i ? a : -1);
      if (partner < 0 || partner > i) continue;
      std::erase_if(universe, [&](int j) { return layout->At(partner, j) > 0; });
    }
    if (universe.empty()) return false;
    layout->SetRowRegular(i, RandomTargetsFrom(rng, universe));
  }
  return true;
}

/// ReplanAfterFailure's placement, refinement and polish stages, with every
/// candidate priced from scratch.
Result<Layout> RefReplan(const LayoutProblem& p, const Layout& current,
                         const TargetHealth& health,
                         const ReplanOptions& options) {
  const int n = p.num_objects();
  const int m = p.num_targets();
  const TargetModel model = p.MakeTargetModel();
  LayoutProblem degraded = p;
  degraded.constraints.allowed_targets.assign(static_cast<size_t>(n), {});
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& base = p.constraints.AllowedFor(i);
    for (int j = 0; j < m; ++j) {
      if (health.IsFailed(j) ||
          (!base.empty() && std::find(base.begin(), base.end(), j) == base.end())) {
        continue;
      }
      degraded.constraints.allowed_targets[static_cast<size_t>(i)].push_back(j);
    }
  }
  RegularizerOptions o = options.regularize;
  o.target_derate = health.derate;
  for (int j = 0; j < m; ++j) {
    if (health.IsFailed(j)) o.target_derate[static_cast<size_t>(j)] = 0.0;
  }
  std::vector<int> displaced, movable;
  for (int i = 0; i < n; ++i) {
    bool on_failed = false, on_derated = false;
    for (int j = 0; j < m; ++j) {
      if (current.At(i, j) <= kLayoutZeroTolerance) continue;
      if (health.IsFailed(j)) {
        on_failed = true;
      } else if (health.derate[static_cast<size_t>(j)] < 1.0 - 1e-12) {
        on_derated = true;
      }
    }
    if (on_failed) displaced.push_back(i);
    if (on_failed || on_derated) movable.push_back(i);
  }
  Layout layout = current;
  for (int i : displaced) {
    for (int j = 0; j < m; ++j) layout.Set(i, j, 0.0);
  }
  std::stable_sort(displaced.begin(), displaced.end(), [&](int a, int b) {
    return p.workloads[static_cast<size_t>(a)].total_rate() >
           p.workloads[static_cast<size_t>(b)].total_rate();
  });
  for (int i : displaced) {
    const RefChoice c = RefBestRow(degraded, model, o, layout, i);
    if (!c.found) return Status::Infeasible("no surviving placement");
    layout.SetRowRegular(i, c.targets);
  }
  for (int pass = 0; pass < o.refinement_passes; ++pass) {
    bool improved = false;
    for (int i : movable) {
      const double incumbent = RefObjective(p, model, o, layout);
      const RefChoice c = RefBestRow(degraded, model, o, layout, i);
      if (c.found && c.objective < incumbent - kReplanImprovementMargin &&
          layout.TargetsOf(i) != c.targets) {
        layout.SetRowRegular(i, c.targets);
        improved = true;
      }
    }
    if (!improved) break;
  }
  if (!displaced.empty() && displaced.size() < static_cast<size_t>(n)) {
    LayoutNlpProblem nlp = degraded.MakeNlp(&model);
    nlp.frozen_rows.assign(static_cast<size_t>(n), 1);
    for (int i : displaced) nlp.frozen_rows[static_cast<size_t>(i)] = 0;
    ApplyTargetDerate(o.target_derate, &nlp);
    Result<SolverResult> polished =
        ProjectedGradientSolver(options.solver).Solve(nlp, layout);
    if (polished.ok()) {
      Layout candidate = polished->layout;
      bool regularized = true;
      for (int i : displaced) {
        const RefChoice c = RefBestRow(degraded, model, o, candidate, i);
        if (!c.found) {
          regularized = false;
          break;
        }
        candidate.SetRowRegular(i, c.targets);
      }
      if (regularized &&
          RefObjective(p, model, o, candidate) <
              RefObjective(p, model, o, layout) - kReplanImprovementMargin &&
          candidate.SatisfiesCapacity(p.object_sizes, p.capacities()) &&
          degraded.constraints.SatisfiedBy(candidate)) {
        layout = candidate;
      }
    }
  }
  return layout;
}

TEST(RegularizeExactnessTest, ReplanAfterFailureMatchesReference) {
  int replanned = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(3000 + seed);
    const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{2}));
    LayoutProblem p = RandomProblem(rng, n, m, FormFor(seed), 2.5);
    // Pins and separations on seeds 2, 3, 6, 7, ..., so the polish meets
    // the allowed-target intersection on half the seeds.
    if (seed / 2 % 2 == 1) AddRandomConstraints(rng, &p);
    Layout current(n, m);
    if (!RandomHonoringLayout(rng, p, &current) ||
        !current.SatisfiesCapacity(p.object_sizes, p.capacities())) {
      continue;
    }
    TargetHealth health = TargetHealth::Healthy(m);
    health.MarkFailed(static_cast<int>(rng.UniformInt(static_cast<uint64_t>(m))));
    // An object pinned to failed targets only is rejected up front, a check
    // the reference does not model.
    const auto stranded = [&](const std::vector<int>& allowed) {
      return !allowed.empty() &&
             std::all_of(allowed.begin(), allowed.end(),
                         [&](int j) { return health.IsFailed(j); });
    };
    const auto& pins = p.constraints.allowed_targets;
    if (std::any_of(pins.begin(), pins.end(), stranded)) continue;
    for (int j = 0; j < m; ++j) {
      if (!health.IsFailed(j) && rng.Bernoulli(0.3)) {
        health.Derate(j, rng.Uniform(0.3, 0.9));
      }
    }
    ReplanOptions options;
    options.solver.max_iterations_per_round = 20;
    options.solver.annealing_rounds = 3;

    const Result<ReplanResult> got = ReplanAfterFailure(p, current, health, options);
    const Result<Layout> want = RefReplan(p, current, health, options);
    ASSERT_EQ(got.ok(), want.ok()) << "seed " << seed;
    if (!got.ok()) continue;
    ++replanned;
    EXPECT_TRUE(got->layout == *want) << "seed " << seed << "\n"
                                      << got->layout.ToString()
                                      << want->ToString();
  }
  EXPECT_GT(replanned, 20);
}

/// `n` identical objects on `m` identical targets: one size, one workload,
/// the same co-access between every pair, one cost table, one geometry and
/// one capacity. Candidates then tie bit for bit, and only the candidate
/// order decides which one wins.
LayoutProblem SymmetricProblem(int n, int m) {
  LayoutProblem p;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back(StrFormat("obj%d", i));
    p.object_sizes.push_back(kGiB);
    p.object_kinds.push_back(ObjectKind::kTable);
    WorkloadDesc w;
    w.read_rate = 80;
    w.read_size = 8 * kKiB;
    w.write_rate = 20;
    w.write_size = 8 * kKiB;
    w.run_count = 4;
    std::vector<double> row(static_cast<size_t>(n), 0.5);
    row[static_cast<size_t>(i)] = 1.0;
    SetOverlapRow(&w, static_cast<size_t>(i), row);
    p.workloads.push_back(std::move(w));
  }
  for (int j = 0; j < m; ++j) {
    AdvisorTarget t;
    t.name = StrFormat("t%d", j);
    t.capacity_bytes = 2 * n * kGiB / m + 1;
    t.cost_model = &TestCost(0);
    t.raid_level = RaidLevel::kRaid0;
    t.num_members = 2;
    p.targets.push_back(t);
  }
  return p;
}

// Regularize and ReplanAfterFailure on problems full of exact ties: the
// first candidate with the lowest max must win, as in the reference, even
// though bounded pricing drops every later candidate that only ties it.
TEST(RegularizeExactnessTest, TiesGoToTheFirstCandidate) {
  ref_tied_candidates = 0;
  int replanned = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(9000 + seed);
    const int n = 3 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    const int m = 3 + static_cast<int>(rng.UniformInt(uint64_t{2}));
    const LayoutProblem p = SymmetricProblem(n, m);
    const TargetModel model = p.MakeTargetModel();
    Layout current(n, m);
    for (int i = 0; i < n; ++i) current.SetRowRegular(i, RandomTargets(rng, m));

    const Result<Layout> got = Regularizer(&p, &model).Regularize(current);
    const Result<Layout> want = RefRegularize(p, model, {}, current);
    ASSERT_EQ(got.ok(), want.ok()) << "seed " << seed;
    if (got.ok()) {
      EXPECT_TRUE(*got == *want) << "seed " << seed << "\n"
                                 << got->ToString() << want->ToString();
    }

    if (!current.SatisfiesCapacity(p.object_sizes, p.capacities())) continue;
    TargetHealth health = TargetHealth::Healthy(m);
    health.MarkFailed(static_cast<int>(rng.UniformInt(static_cast<uint64_t>(m))));
    ReplanOptions options;
    options.solver.max_iterations_per_round = 20;
    options.solver.annealing_rounds = 3;
    const Result<ReplanResult> replan =
        ReplanAfterFailure(p, current, health, options);
    const Result<Layout> ref = RefReplan(p, current, health, options);
    ASSERT_EQ(replan.ok(), ref.ok()) << "seed " << seed;
    if (!replan.ok()) continue;
    ++replanned;
    EXPECT_TRUE(replan->layout == *ref) << "seed " << seed << "\n"
                                        << replan->layout.ToString()
                                        << ref->ToString();
  }
  EXPECT_GT(replanned, 20);
  // The problems do exercise ties.
  EXPECT_GT(ref_tied_candidates, 200);
}

}  // namespace
}  // namespace ldb
