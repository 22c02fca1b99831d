#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "fd_oracle.h"
#include "model/column_eval.h"
#include "model/cost_model.h"
#include "model/layout_model.h"
#include "model/target_model.h"
#include "model/workload.h"
#include "solver/layout_nlp.h"
#include "solver/multistart.h"
#include "solver/projected_gradient.h"
#include "solver/randomized.h"
#include "solver/simplex.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

// --------------------------------------------------------------- Simplex

TEST(SimplexTest, AlreadyOnSimplexUnchanged) {
  double v[3] = {0.2, 0.5, 0.3};
  ProjectToSimplex(v, 3);
  EXPECT_NEAR(v[0], 0.2, 1e-12);
  EXPECT_NEAR(v[1], 0.5, 1e-12);
  EXPECT_NEAR(v[2], 0.3, 1e-12);
}

TEST(SimplexTest, ProjectionSumsToRadius) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> v(5);
    for (auto& x : v) x = rng.Uniform(-2, 2);
    ProjectToSimplex(v.data(), v.size());
    double sum = 0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SimplexTest, UniformShiftInvariance) {
  // Projection of v and v + c*1 are identical.
  double a[4] = {0.9, -0.3, 0.4, 0.1};
  double b[4] = {1.9, 0.7, 1.4, 1.1};
  ProjectToSimplex(a, 4);
  ProjectToSimplex(b, 4);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST(SimplexTest, DominantCoordinateWins) {
  double v[3] = {10.0, 0.0, 0.0};
  ProjectToSimplex(v, 3);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 0.0, 1e-12);
}

TEST(SimplexTest, ScaledRadius) {
  double v[2] = {3.0, 1.0};
  ProjectToSimplex(v, 2, 2.0);
  EXPECT_NEAR(v[0] + v[1], 2.0, 1e-12);
  EXPECT_GT(v[0], v[1]);
}

TEST(SimplexTest, ProjectionIsIdempotent) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(6), w;
    for (auto& x : v) x = rng.Uniform(-1, 3);
    ProjectToSimplex(v.data(), v.size());
    w = v;
    ProjectToSimplex(w.data(), w.size());
    for (size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(w[i], v[i], 1e-9);
  }
}

/// Bit pattern of a double, for bit-for-bit comparisons (`==` equates 0.0
/// and −0.0).
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The sort-and-threshold projection with std::sort on every row: what
/// ProjectToSimplex runs past its stack-array bound, here for every n.
std::vector<double> SortProjection(std::vector<double> v) {
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<double>());
  double running = 0.0, cumsum = 0.0;
  size_t rho = 0;
  for (size_t k = 0; k < u.size(); ++k) {
    running += u[k];
    const double t = (running - 1.0) / static_cast<double>(k + 1);
    if (u[k] - t > 0.0) {
      rho = k + 1;
      cumsum = running;
    }
  }
  const double theta = (cumsum - 1.0) / static_cast<double>(rho);
  for (double& x : v) x = std::max(0.0, x - theta);
  return v;
}

/// One random row of length n in one of four shapes: generic, heavy ties
/// (signed zeros included), all negative, or already on the simplex.
std::vector<double> ProjectionRow(size_t n, int shape, Rng* rng) {
  static const double kTies[] = {0.5, 0.25, 0.0, -0.0, 1.0, -0.25};
  std::vector<double> v(n);
  double sum = 0.0;
  for (double& x : v) {
    switch (shape) {
      case 0: x = rng->Uniform(-1, 2); break;
      case 1: x = kTies[rng->UniformInt(uint64_t{6})]; break;
      case 2: x = rng->Uniform(-3, -0.1); break;
      default: x = rng->Uniform(0, 1); break;
    }
    sum += x;
  }
  if (shape == 3) {
    for (double& x : v) x /= sum;
  }
  return v;
}

TEST(SimplexTest, SmallRowPathMatchesSortPathBitForBit) {
  // Rows up to 16 entries are insertion-sorted on the stack, longer ones
  // std::sort a scratch vector; both must give the sort path's doubles.
  Rng rng(2604);
  std::vector<double> scratch;
  std::vector<size_t> lengths{17, 40};
  for (size_t n = 1; n <= 16; ++n) lengths.push_back(n);
  for (size_t n : lengths) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<double> v = ProjectionRow(n, trial % 4, &rng);
      const std::vector<double> want = SortProjection(v);
      std::vector<double> got = v, got_scratch = v;
      ProjectToSimplex(got.data(), n);
      ProjectToSimplex(got_scratch.data(), n, 1.0, &scratch);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i]))
            << "n=" << n << " trial=" << trial << " i=" << i;
        ASSERT_EQ(Bits(got_scratch[i]), Bits(want[i]))
            << "n=" << n << " trial=" << trial << " i=" << i;
      }
    }
  }
}

TEST(SimplexTest, ConstrainedRowProjectionMatchesSubsetOracle) {
  // ProjectRowConstrained projects an unrestricted row onto the full
  // simplex and a restricted one onto the sub-simplex of its allowed
  // targets, zeroing the rest; subsets below and above the stack-array
  // bound take the two sort paths.
  Rng rng(2605);
  std::vector<double> sub_scratch, sort_scratch;
  for (int m : {10, 20, 40}) {
    LayoutNlpProblem p;
    p.num_objects = 4;
    p.num_targets = m;
    std::vector<int> odd, most, all_but_one;
    for (int j = 1; j < m; j += 2) odd.push_back(j);
    for (int j = 0; j < m; ++j) {
      if (j % 7 != 3) most.push_back(j);
      if (j != m / 2) all_but_one.push_back(j);
    }
    p.constraints.allowed_targets = {{}, odd, most, all_but_one};
    for (int trial = 0; trial < 100; ++trial) {
      for (int i = 0; i < p.num_objects; ++i) {
        const std::vector<double> v =
            ProjectionRow(static_cast<size_t>(m), trial % 4, &rng);
        std::vector<double> want(static_cast<size_t>(m), 0.0);
        const std::vector<int>& allowed = p.constraints.AllowedFor(i);
        if (allowed.empty()) {
          want = SortProjection(v);
        } else {
          std::vector<double> sub;
          for (int j : allowed) sub.push_back(v[static_cast<size_t>(j)]);
          sub = SortProjection(sub);
          for (size_t k = 0; k < allowed.size(); ++k) {
            want[static_cast<size_t>(allowed[k])] = sub[k];
          }
        }
        std::vector<double> got = v;
        ProjectRowConstrained(p, i, got.data(), &sub_scratch, &sort_scratch);
        for (int j = 0; j < m; ++j) {
          ASSERT_EQ(Bits(got[static_cast<size_t>(j)]),
                    Bits(want[static_cast<size_t>(j)]))
              << "m=" << m << " row=" << i << " trial=" << trial
              << " j=" << j;
        }
      }
    }
  }
}

// -------------------------------------------------------------- SmoothMax

TEST(SmoothMaxTest, UpperBoundsMaxAndConverges) {
  const double v[3] = {0.2, 0.9, 0.5};
  EXPECT_GE(SmoothMax(v, 3, 10), 0.9);
  EXPECT_LE(SmoothMax(v, 3, 10), 0.9 + std::log(3.0) / 10);
  EXPECT_NEAR(SmoothMax(v, 3, 1000), 0.9, 1e-2);
  EXPECT_LT(SmoothMax(v, 3, 1000), SmoothMax(v, 3, 10));
}

TEST(SmoothMaxTest, StableForLargeValues) {
  const double v[2] = {1e6, 1e6 - 1};
  const double s = SmoothMax(v, 2, 50);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_NEAR(s, 1e6, 0.1);
}

// ---------------------------------------------------------------- Solver

/// Analytic toy problem: µ_j = (weighted load on target j) / speed_j, no
/// interference. The optimum spreads load proportionally to speed. The
/// solver prices it through the finite-difference oracle.
LayoutNlpProblem MakeLinearProblem(std::vector<double> rates,
                                   std::vector<double> speeds,
                                   std::vector<int64_t> sizes = {},
                                   std::vector<int64_t> caps = {}) {
  LayoutNlpProblem p;
  p.num_objects = static_cast<int>(rates.size());
  p.num_targets = static_cast<int>(speeds.size());
  p.object_sizes =
      sizes.empty() ? std::vector<int64_t>(rates.size(), kGiB) : sizes;
  p.target_capacities =
      caps.empty() ? std::vector<int64_t>(speeds.size(), 100 * kGiB) : caps;
  p.target_utilization = [rates, speeds](const Layout& l, int j) {
    double load = 0;
    for (int i = 0; i < l.num_objects(); ++i) {
      load += rates[static_cast<size_t>(i)] * l.At(i, j);
    }
    return load / speeds[static_cast<size_t>(j)];
  };
  p.make_column_eval = FdColumnFactory(p.target_utilization);
  return p;
}

TEST(SolverTest, RejectsMalformedProblems) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({1, 2}, {1, 1});
  Layout init = Layout::StripeEverythingEverywhere(2, 2);
  // The solver prices layouts through column evaluators only: a problem
  // without a factory, or whose factory yields nothing, is rejected.
  p.make_column_eval = nullptr;
  EXPECT_EQ(solver.Solve(p, init).status().code(),
            StatusCode::kInvalidArgument);
  p = MakeLinearProblem({1, 2}, {1, 1});
  p.make_column_eval = [](int) -> std::unique_ptr<ColumnEvaluator> {
    return nullptr;
  };
  EXPECT_EQ(solver.Solve(p, init).status().code(),
            StatusCode::kInvalidArgument);
  p = MakeLinearProblem({1, 2}, {1, 1});
  EXPECT_FALSE(
      solver.Solve(p, Layout::StripeEverythingEverywhere(3, 2)).ok());
  p.object_sizes[0] = 0;
  EXPECT_FALSE(solver.Solve(p, init).ok());
}

TEST(SolverTest, BalancesEqualObjectsOnEqualTargets) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({10, 10}, {1, 1});
  // Seed everything on target 0: max µ = 20.
  Layout init(2, 2);
  init.SetRowRegular(0, {0});
  init.SetRowRegular(1, {0});
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  // Optimal max utilization is 10 (perfect balance).
  EXPECT_NEAR(r->max_utilization, 10.0, 0.3);
}

TEST(SolverTest, FasterTargetGetsMoreLoad) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({12}, {1, 3});
  Layout init = Layout::StripeEverythingEverywhere(1, 2);
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  // Optimum: L = (1/4, 3/4), max µ = 3.
  EXPECT_NEAR(r->max_utilization, 3.0, 0.15);
  EXPECT_GT(r->layout.At(0, 1), 2 * r->layout.At(0, 0));
}

TEST(SolverTest, ImprovesOnUnbalancedSeed) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({8, 4, 2, 1}, {1, 1, 1});
  Layout init(4, 3);
  for (int i = 0; i < 4; ++i) init.SetRowRegular(i, {0});
  const double seed_mu = 15.0;  // all on target 0
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->max_utilization, seed_mu / 2);
  EXPECT_NEAR(r->max_utilization, 5.0, 0.5);  // perfect balance = 5
  EXPECT_GT(r->iterations, 0);
  EXPECT_GT(r->gradient_evaluations, 0);
}

TEST(SolverTest, RespectsCapacityConstraints) {
  // Two objects of 10 GiB each; target 0 can hold only 5 GiB total but is
  // much faster. Load balance wants everything on 0; capacity forbids it.
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem(
      {10, 10}, {10, 1}, {10 * kGiB, 10 * kGiB}, {5 * kGiB, 40 * kGiB});
  Layout init = Layout::StripeEverythingEverywhere(2, 2);
  auto r = solver.Solve(p, init);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(
      r->layout.SatisfiesCapacity(p.object_sizes, p.target_capacities));
  // At most 5 GiB (25% of the 20 GiB total) fits on the fast target.
  const double on_fast = r->layout.At(0, 0) + r->layout.At(1, 0);
  EXPECT_LE(on_fast, 0.5 + 1e-6);
  EXPECT_GT(on_fast, 0.3);  // ...but the solver should use what it can
}

TEST(SolverTest, SolutionRowsStayOnSimplex) {
  ProjectedGradientSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({5, 3, 2}, {1, 2});
  Rng rng(5);
  auto seeds = MultiStartSolver::RandomSeeds(p, 3, &rng);
  for (const Layout& seed : seeds) {
    auto r = solver.Solve(p, seed);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->layout.SatisfiesIntegrity(1e-6));
  }
}

/// Two objects on two targets: µ_j = Σ load + a heavy quadratic
/// interaction between the co-located objects. SEE gives µ = 0.8 on both
/// targets, full separation µ = 0.3.
LayoutNlpProblem MakeInterferenceProblem() {
  LayoutNlpProblem p;
  p.num_objects = 2;
  p.num_targets = 2;
  p.object_sizes = {kGiB, kGiB};
  p.target_capacities = {10 * kGiB, 10 * kGiB};
  p.target_utilization = [](const Layout& l, int j) {
    const double a = l.At(0, j), b = l.At(1, j);
    return 0.3 * (a + b) + 2.0 * a * b;
  };
  p.make_column_eval = FdColumnFactory(p.target_utilization);
  return p;
}

/// A slightly off-balance seed of the interference problem, from which
/// the gradient finds the separation.
Layout OffBalanceSeed() {
  Layout seed(2, 2);
  seed.Set(0, 0, 0.6);
  seed.Set(0, 1, 0.4);
  seed.Set(1, 0, 0.4);
  seed.Set(1, 1, 0.6);
  return seed;
}

TEST(SolverTest, InterferenceAwareObjectiveSeparatesObjects) {
  const LayoutNlpProblem p = MakeInterferenceProblem();
  ProjectedGradientSolver solver;
  // SEE is a symmetric saddle of this objective — the same trap the paper
  // reports for MINOS (Section 4.2), and why its advisor seeds the solver
  // with an asymmetric heuristic layout instead. Seed slightly off-balance.
  auto r = solver.Solve(p, OffBalanceSeed());
  ASSERT_TRUE(r.ok());
  // SEE gives µ = 0.3 + 0.5 = 0.8 on both targets; full separation gives
  // µ = 0.3. The solver must discover the separation.
  EXPECT_LT(r->max_utilization, 0.35);
  const double co0 = r->layout.At(0, 0) * r->layout.At(1, 0);
  const double co1 = r->layout.At(0, 1) * r->layout.At(1, 1);
  EXPECT_LT(co0 + co1, 0.05);
}

/// Forwards to a real column evaluator and counts the fused passes that
/// reach it, independently of the solver's own accounting.
class CountingColumnEvaluator final : public ColumnEvaluator {
 public:
  CountingColumnEvaluator(std::unique_ptr<ColumnEvaluator> inner,
                          std::atomic<int64_t>* passes)
      : inner_(std::move(inner)), passes_(passes) {}

  double EvaluateWithGradient(const Layout& layout, double* grad) override {
    ++*passes_;
    return inner_->EvaluateWithGradient(layout, grad);
  }

 private:
  std::unique_ptr<ColumnEvaluator> inner_;
  std::atomic<int64_t>* passes_;
};

TEST(SolverTest, AnalyticStepPricesEachLayoutOnce) {
  // Analytic mode prices every line-search trial with one fused
  // value+gradient pass per column, and an accepted trial's gradient is
  // the next step's: the seed refresh plus one pass per trial, nothing
  // else.
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB)};
  std::vector<double> runs{1, 16};
  std::vector<double> chis{0, 1, 4};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v = 0.004 * (s / (8 * kKiB)) * (1 + c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(1.5 * v);
      }
    }
  }
  auto cost = CostModel::Create("step", sizes, runs, chis, reads, writes);
  ASSERT_TRUE(cost.ok());
  const int n = 10, m = 4;
  Rng rng(5);
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng.Uniform(5, 120);
    w.read_size = 8 * kKiB;
    w.write_rate = rng.Uniform(0, 30);
    w.write_size = 64 * kKiB;
    w.run_count = rng.Uniform(1, 20);
    std::vector<double> row(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      row[static_cast<size_t>(k)] = rng.Uniform(0, k == i ? 0.5 : 1);
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  TargetModel model(std::vector<TargetModelInfo>(
                        m, TargetModelInfo{&cost.value(), 1, 64 * kKiB}),
                    LvmLayoutModel(64 * kKiB));
  LayoutNlpProblem p;
  p.num_objects = n;
  p.num_targets = m;
  p.object_sizes.assign(static_cast<size_t>(n), kGiB);
  p.target_capacities.assign(static_cast<size_t>(m), 50 * kGiB);
  p.target_utilization = [&](const Layout& l, int j) {
    return model.TargetUtilization(ws, l, j);
  };
  std::atomic<int64_t> passes{0};
  p.make_column_eval = [&](int j) -> std::unique_ptr<ColumnEvaluator> {
    return std::make_unique<CountingColumnEvaluator>(
        model.MakeColumnEvaluator(ws, j), &passes);
  };
  Layout seed(n, m);
  for (int i = 0; i < n; ++i) seed.SetRowRegular(i, {i % 2});

  SolverOptions opts;
  opts.num_threads = 2;
  auto r = ProjectedGradientSolver(opts).Solve(p, seed);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->iterations, 1);
  // Every pass that reached a column kernel is counted, and there are no
  // others.
  EXPECT_EQ(r->gradient_evaluations, passes.load());
  EXPECT_EQ(r->gradient_evaluations,
            int64_t{m} * (r->profile.line_search.calls + 1));
  // The reported optimum is the scalar model's value at the layout.
  double true_max = 0.0;
  for (int j = 0; j < m; ++j) {
    true_max = std::max(true_max, p.target_utilization(r->layout, j));
  }
  EXPECT_NEAR(r->max_utilization, true_max, 1e-9 * std::max(1.0, true_max));
}

// ------------------------------------------------------------------ Race

/// Four objects on three equal targets (balanced optimum 5) and a seed
/// with everything on target 0.
LayoutNlpProblem MakeRaceProblem() {
  return MakeLinearProblem({8, 4, 2, 1}, {1, 1, 1});
}

Layout AllOnFirstTarget(int n, int m) {
  Layout l(n, m);
  for (int i = 0; i < n; ++i) l.SetRowRegular(i, {0});
  return l;
}

TEST(SolverTest, RecordsTrueMaxAfterEveryRound) {
  ProjectedGradientSolver solver;
  auto r = solver.Solve(MakeRaceProblem(), AllOnFirstTarget(4, 3));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->seeds.size(), 1u);
  const SeedTrajectory& t = r->seeds.front();
  EXPECT_FALSE(t.stopped());
  ASSERT_EQ(t.round_max.size(),
            static_cast<size_t>(SolverOptions{}.annealing_rounds));
  ASSERT_EQ(t.round_steps.size(), t.round_max.size());
  EXPECT_LT(t.round_max.front(), 15.0);  // the seed's max is 15
  // Capacity is ample, so no repair moves the last round's layout.
  EXPECT_EQ(t.round_max.back(), r->max_utilization);
}

TEST(SolverTest, RoundsEndOnceConvergedNearTheKnownOptimum) {
  // Five objects that may split freely over targets of speed 1, 2 and 2:
  // the optimum balances every target at Σ rates / Σ speeds = 3.
  const LayoutNlpProblem p = MakeLinearProblem({5, 4, 3, 2, 1}, {1, 2, 2});
  const Layout seed = AllOnFirstTarget(5, 3);
  std::vector<SolverResult> results;
  for (int threads : {1, 2, 4}) {
    SolverOptions options;
    options.num_threads = threads;
    auto r = ProjectedGradientSolver(options).Solve(p, seed);
    ASSERT_TRUE(r.ok()) << threads;
    results.push_back(std::move(r).value());
  }
  const SolverResult& r = results.front();
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.max_utilization, 3.0, 1e-4);
  // Every round converges well before the per-round cap, and the rounds'
  // steps are all the steps the solve took.
  const SeedTrajectory& t = r.seeds.front();
  ASSERT_EQ(t.round_steps.size(),
            static_cast<size_t>(SolverOptions{}.annealing_rounds));
  for (int steps : t.round_steps) {
    EXPECT_GT(steps, 0);
    EXPECT_LT(steps, SolverOptions{}.max_iterations_per_round / 2);
  }
  EXPECT_EQ(std::accumulate(t.round_steps.begin(), t.round_steps.end(), 0),
            r.iterations);
  // The exit never depends on the thread count.
  for (size_t k = 1; k < results.size(); ++k) {
    EXPECT_TRUE(results[k].layout == r.layout) << k;
    EXPECT_EQ(results[k].max_utilization, r.max_utilization) << k;
    EXPECT_EQ(results[k].seeds.front().round_steps, t.round_steps) << k;
  }
}

TEST(SolverTest, StopsOnceItCannotCatchTheRival) {
  // A rival at zero in every round cannot be caught: the solve stops at
  // round kRaceFirstRound or later, skips the repair, reports infeasible,
  // and has spent fewer passes than the full schedule.
  const LayoutNlpProblem p = MakeRaceProblem();
  const Layout seed = AllOnFirstTarget(4, 3);
  ProjectedGradientSolver solver;
  auto full = solver.Solve(p, seed);
  const int rounds = SolverOptions{}.annealing_rounds;
  auto raced = solver.Solve(p, seed, std::vector<double>(rounds, 0.0));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(raced.ok());
  const SeedTrajectory& t = raced->seeds.front();
  ASSERT_TRUE(t.stopped());
  EXPECT_GE(t.stopped_round, ProjectedGradientSolver::kRaceFirstRound);
  EXPECT_LT(t.stopped_round, rounds);
  EXPECT_EQ(t.round_max.size(), static_cast<size_t>(t.stopped_round) + 1);
  EXPECT_FALSE(raced->feasible);
  EXPECT_EQ(raced->max_utilization, t.round_max.back());
  EXPECT_LT(raced->gradient_evaluations, full->gradient_evaluations);
  EXPECT_GT(raced->gradient_evaluations, 0);
  // Up to the stop the raced solve is the unraced one.
  for (size_t r = 0; r < t.round_max.size(); ++r) {
    EXPECT_EQ(t.round_max[r], full->seeds.front().round_max[r]) << r;
  }
}

TEST(SolverTest, NeverStopsLevelWithTheRivalOrBeforeRoundTwo) {
  const LayoutNlpProblem p = MakeRaceProblem();
  const Layout seed = AllOnFirstTarget(4, 3);
  ProjectedGradientSolver solver;
  auto full = solver.Solve(p, seed);
  ASSERT_TRUE(full.ok());
  // Racing its own trajectory: never strictly behind, never stopped, and
  // the result is the unraced one.
  auto self = solver.Solve(p, seed, full->seeds.front().round_max);
  ASSERT_TRUE(self.ok());
  EXPECT_FALSE(self->seeds.front().stopped());
  EXPECT_TRUE(self->layout == full->layout);
  EXPECT_EQ(self->gradient_evaluations, full->gradient_evaluations);
  // With two rounds there is no round ≥ kRaceFirstRound to stop after.
  SolverOptions two;
  two.annealing_rounds = 2;
  auto short_race =
      ProjectedGradientSolver(two).Solve(p, seed, {0.0, 0.0});
  ASSERT_TRUE(short_race.ok());
  EXPECT_FALSE(short_race->seeds.front().stopped());
  EXPECT_TRUE(short_race->feasible);
}

// ------------------------------------------------------------- MultiStart

TEST(MultiStartTest, RequiresSeeds) {
  MultiStartSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({1}, {1});
  EXPECT_FALSE(solver.Solve(p, {}).ok());
}

TEST(MultiStartTest, PicksBestOfSeeds) {
  MultiStartSolver ms;
  // Non-convex-ish: interference makes "together" a local optimum trap when
  // seeded together.
  LayoutNlpProblem p = MakeLinearProblem({6, 6}, {1, 1});
  Layout bad(2, 2), good(2, 2);
  bad.SetRowRegular(0, {0});
  bad.SetRowRegular(1, {0});
  good.SetRowRegular(0, {0});
  good.SetRowRegular(1, {1});
  auto r = ms.Solve(p, {bad, good});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->max_utilization, 6.0, 0.3);
}

TEST(MultiStartTest, AccumulatesEffortCounters) {
  MultiStartSolver ms;
  LayoutNlpProblem p = MakeLinearProblem({3, 2}, {1, 1});
  Layout a = Layout::StripeEverythingEverywhere(2, 2);
  ProjectedGradientSolver single;
  auto one = single.Solve(p, a);
  auto two = ms.Solve(p, {a, a});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  EXPECT_GE(two->gradient_evaluations, 2 * one->gradient_evaluations);
  // A seed identical to seed 0 is never behind it, so never stopped.
  ASSERT_EQ(two->seeds.size(), 2u);
  EXPECT_FALSE(two->seeds[1].stopped());
}

/// Seed 0 balanced-ish, the others worse starts of the race problem.
std::vector<Layout> RaceSeeds() {
  Layout balanced(4, 3);
  balanced.SetRowRegular(0, {0});
  balanced.SetRowRegular(1, {1});
  balanced.SetRowRegular(2, {2});
  balanced.SetRowRegular(3, {2});
  return {balanced, AllOnFirstTarget(4, 3),
          Layout::StripeEverythingEverywhere(4, 3)};
}

TEST(MultiStartTest, RacedSeedsStopButSeedZeroNever) {
  // Seed 0 separates the interfering objects (µ → 0.3); SEE sits on the
  // objective's symmetric saddle (µ = 0.8), trailing seed 0 by far more
  // than it gains per round, so the race stops it.
  const LayoutNlpProblem p = MakeInterferenceProblem();
  const std::vector<Layout> seeds = {OffBalanceSeed(),
                                     Layout::StripeEverythingEverywhere(2, 2)};
  auto raced = MultiStartSolver().Solve(p, seeds);
  ASSERT_TRUE(raced.ok());
  ASSERT_EQ(raced->seeds.size(), seeds.size());
  EXPECT_FALSE(raced->seeds[0].stopped());
  int stopped = 0;
  for (const SeedTrajectory& t : raced->seeds) stopped += t.stopped() ? 1 : 0;
  EXPECT_GE(stopped, 1) << "the race must stop a trailing seed here";
  EXPECT_TRUE(raced->seeds[1].stopped());
  EXPECT_GT(raced->seeds[1].round_max.back(),
            raced->seeds[0].round_max.back() + 0.4);
  // Never worse than seed 0 solved alone, and every seed's passes count.
  auto alone = ProjectedGradientSolver().Solve(p, seeds[0]);
  ASSERT_TRUE(alone.ok());
  EXPECT_TRUE(raced->feasible);
  EXPECT_LE(raced->max_utilization, alone->max_utilization);
  EXPECT_GT(raced->gradient_evaluations, alone->gradient_evaluations);
}

TEST(MultiStartTest, InfeasibleSeedZeroOrTwoRoundsMeansNoRace) {
  // Twice the data the targets hold: seed 0 ends infeasible, so it is no
  // rival, and no seed stops.
  LayoutNlpProblem over = MakeLinearProblem(
      {8, 4, 2, 1}, {1, 1, 1}, std::vector<int64_t>(4, 3 * kGiB),
      std::vector<int64_t>(3, 2 * kGiB));
  // Seed 0 is SEE, which stays ahead of the other two here.
  std::vector<Layout> seeds = RaceSeeds();
  std::rotate(seeds.begin(), seeds.begin() + 2, seeds.end());
  auto r = MultiStartSolver().Solve(over, seeds);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->feasible);
  for (const SeedTrajectory& t : r->seeds) EXPECT_FALSE(t.stopped());
  // ...although racing seed 0's trajectory would have stopped one.
  int would_stop = 0;
  for (size_t s = 1; s < seeds.size(); ++s) {
    auto raced = ProjectedGradientSolver().Solve(over, seeds[s],
                                                 r->seeds[0].round_max);
    ASSERT_TRUE(raced.ok());
    would_stop += raced->seeds.front().stopped() ? 1 : 0;
  }
  EXPECT_GE(would_stop, 1);
  // Two annealing rounds leave no round to race after.
  SolverOptions two;
  two.annealing_rounds = 2;
  auto short_run = MultiStartSolver(two).Solve(MakeRaceProblem(), RaceSeeds());
  ASSERT_TRUE(short_run.ok());
  for (const SeedTrajectory& t : short_run->seeds) {
    EXPECT_FALSE(t.stopped());
    EXPECT_EQ(t.round_max.size(), 2u);
  }
}

TEST(MultiStartTest, RandomSeedsAreValidSimplexRows) {
  LayoutNlpProblem p = MakeLinearProblem({1, 2, 3}, {1, 1, 1, 1});
  Rng rng(9);
  auto seeds = MultiStartSolver::RandomSeeds(p, 5, &rng);
  EXPECT_EQ(seeds.size(), 5u);
  for (const Layout& l : seeds) {
    EXPECT_EQ(l.num_objects(), 3);
    EXPECT_EQ(l.num_targets(), 4);
    EXPECT_TRUE(l.SatisfiesIntegrity(1e-9));
  }
}


// --------------------------------------------------- RandomizedSearch

TEST(RandomizedSearchTest, RejectsBadInputs) {
  RandomizedSearchSolver solver;
  LayoutNlpProblem p = MakeLinearProblem({1, 2}, {1, 1});
  Layout nonregular(2, 2);
  nonregular.Set(0, 0, 0.3);
  nonregular.Set(0, 1, 0.7);
  nonregular.SetRowRegular(1, {0});
  EXPECT_FALSE(solver.Solve(p, nonregular).ok());
}

TEST(RandomizedSearchTest, ImprovesOnUnbalancedSeedAndStaysRegular) {
  LayoutNlpProblem p = MakeLinearProblem({8, 4, 2, 1}, {1, 1, 1});
  Layout seed(4, 3);
  for (int i = 0; i < 4; ++i) seed.SetRowRegular(i, {0});
  RandomizedSearchSolver solver;
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(r->layout.IsRegular(1e-9));
  EXPECT_LT(r->max_utilization, 15.0 / 2);      // beats the all-on-one seed
  EXPECT_NEAR(r->max_utilization, 5.0, 0.6);    // near-balanced optimum
}

TEST(RandomizedSearchTest, EscapesSeeSaddleUnlikeGradient) {
  // The interference objective whose SEE point traps the gradient solver
  // (symmetric saddle): random moves break the symmetry immediately.
  const LayoutNlpProblem p = MakeInterferenceProblem();
  RandomizedSearchSolver solver;
  auto r = solver.Solve(p, Layout::StripeEverythingEverywhere(2, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->max_utilization, 0.35);  // full separation found
}

TEST(RandomizedSearchTest, HonorsConstraints) {
  LayoutNlpProblem p = MakeLinearProblem({5, 5, 2}, {1, 1, 1});
  p.constraints.allowed_targets = {{0, 1}, {}, {2}};
  p.constraints.separate = {{0, 1}};
  Layout seed(3, 3);
  seed.SetRowRegular(0, {0});
  seed.SetRowRegular(1, {1});
  seed.SetRowRegular(2, {2});
  RandomizedSearchSolver solver;
  auto r = solver.Solve(p, seed);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->feasible);
  EXPECT_TRUE(p.constraints.SatisfiedBy(r->layout));
}

TEST(RandomizedSearchTest, DeterministicForEqualSeeds) {
  LayoutNlpProblem p = MakeLinearProblem({6, 3, 2, 1}, {1, 2});
  Layout seed = Layout::StripeEverythingEverywhere(4, 2);
  auto a = RandomizedSearchSolver().Solve(p, seed);
  auto b = RandomizedSearchSolver().Solve(p, seed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->max_utilization, b->max_utilization);
  EXPECT_TRUE(a->layout == b->layout);
}

}  // namespace
}  // namespace ldb
