// Tests for the parallel solver evaluation engine: the thread pool itself,
// bit-identical solver and calibration results across thread counts, and
// the analytic engine against a finite-difference oracle.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fd_oracle.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "model/target_model.h"
#include "storage/disk.h"
#include "storage/ssd.h"
#include "solver/multistart.h"
#include "solver/projected_gradient.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace ldb {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, EffectiveThreads) {
  EXPECT_EQ(ThreadPool::EffectiveThreads(1), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(5), 5);
  EXPECT_GE(ThreadPool::EffectiveThreads(0), 1);  // hardware cores
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  // Disjoint index-addressed writes, the pattern the solver relies on.
  std::vector<int> visits(1000, 0);
  pool.ParallelFor(static_cast<int64_t>(visits.size()), [&](int rank,
                                                            int64_t i) {
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, 4);
    visits[static_cast<size_t>(i)] += 1;
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(8);
  int ran = 0;
  pool.ParallelFor(0, [&](int, int64_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  std::vector<int> visits(3, 0);
  pool.ParallelFor(3, [&](int, int64_t i) { visits[static_cast<size_t>(i)]++; });
  EXPECT_EQ(visits, (std::vector<int>{1, 1, 1}));
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::vector<int> counts(6, 0);
  pool.ParallelFor(static_cast<int64_t>(counts.size()), [&](int, int64_t i) {
    // A nested call from a pool task must not deadlock; it runs inline on
    // the calling lane.
    int inner = 0;
    pool.ParallelFor(4, [&](int, int64_t) { ++inner; });
    counts[static_cast<size_t>(i)] = inner;
  });
  for (int c : counts) EXPECT_EQ(c, 4);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> visits(17, 0);
    pool.ParallelFor(17, [&](int, int64_t i) { visits[static_cast<size_t>(i)]++; });
    for (int v : visits) EXPECT_EQ(v, 1);
  }
}

// --------------------------------------------------- Model test fixtures

CostModel MakeSyntheticCostModel() {
  // Several contention-axis points so the column kernel's χ lookups
  // land in interior cells and clamped tails.
  std::vector<double> sizes{static_cast<double>(8 * kKiB),
                            static_cast<double>(64 * kKiB),
                            static_cast<double>(512 * kKiB)};
  std::vector<double> runs{1, 8, 64};
  std::vector<double> chis{0, 0.5, 1, 2, 4};
  std::vector<double> reads, writes;
  for (double s : sizes) {
    for (double q : runs) {
      for (double c : chis) {
        const double v =
            0.004 * (s / (8 * kKiB)) * (1.0 + 0.7 * c) / std::sqrt(q);
        reads.push_back(v);
        writes.push_back(1.4 * v);
      }
    }
  }
  auto m = CostModel::Create("synthetic", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

WorkloadSet MakeWorkloads(int n, Rng* rng) {
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 150);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 25);
    w.write_size = 8 * kKiB;
    w.run_count = rng->Uniform(1, 60);
    std::vector<double> row(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      row[static_cast<size_t>(k)] =
          k == i ? rng->Uniform(0, 0.5) : rng->Uniform(0, 1);
    }
    SetOverlapRow(&w, static_cast<size_t>(i), row);
  }
  return ws;
}

/// A full target-model NLP problem with stable addresses (everything the
/// lambdas capture lives behind unique_ptrs).
struct ModelProblem {
  std::unique_ptr<CostModel> cost;
  std::unique_ptr<TargetModel> model;
  std::unique_ptr<WorkloadSet> workloads;
  LayoutNlpProblem nlp;
};

ModelProblem MakeModelProblem(int n, int m, uint64_t seed) {
  ModelProblem mp;
  mp.cost = std::make_unique<CostModel>(MakeSyntheticCostModel());
  Rng rng(seed);
  mp.workloads = std::make_unique<WorkloadSet>(MakeWorkloads(n, &rng));
  std::vector<TargetModelInfo> infos(
      static_cast<size_t>(m), TargetModelInfo{mp.cost.get(), 1, 64 * kKiB});
  mp.model =
      std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
  mp.nlp.num_objects = n;
  mp.nlp.num_targets = m;
  mp.nlp.object_sizes.assign(static_cast<size_t>(n), kGiB);
  mp.nlp.target_capacities.assign(static_cast<size_t>(m), 50 * kGiB);
  const TargetModel* model = mp.model.get();
  const WorkloadSet* ws = mp.workloads.get();
  mp.nlp.target_utilization = [model, ws](const Layout& l, int j) {
    return model->TargetUtilization(*ws, l, j);
  };
  mp.nlp.make_column_eval = [model, ws](int j) {
    return model->MakeColumnEvaluator(*ws, j);
  };
  return mp;
}

// ----------------------------------------------------- Solver determinism

SolverOptions FastOptions() {
  SolverOptions o;
  o.annealing_rounds = 3;
  o.max_iterations_per_round = 20;
  return o;
}

TEST(SolverThreadingTest, AnalyticBitIdenticalAcrossThreadCounts) {
  // The analytic engine's gradient sweep fans one fused kernel pass per
  // column over the pool; entries land in disjoint dmu spans and all
  // reductions are serial, so the whole solve must be invariant in the
  // thread count — layout, objective, and every effort counter.
  const int n = 12, m = 6;
  ModelProblem mp = MakeModelProblem(n, m, 17);
  const Layout seed = Layout::StripeEverythingEverywhere(n, m);

  SolverResult reference;
  bool have_reference = false;
  for (int threads : {1, 2, 8}) {
    SolverOptions o = FastOptions();  // analytic is the default mode
    o.num_threads = threads;
    ProjectedGradientSolver solver(o);
    auto r = solver.Solve(mp.nlp, seed);
    ASSERT_TRUE(r.ok()) << "threads=" << threads;
    if (!have_reference) {
      reference = std::move(r).value();
      have_reference = true;
      EXPECT_GT(reference.gradient_evaluations, 0);
      EXPECT_GT(reference.interp_queries, 0);
      continue;
    }
    EXPECT_TRUE(r->layout == reference.layout) << "threads=" << threads;
    EXPECT_EQ(r->max_utilization, reference.max_utilization)
        << "threads=" << threads;
    EXPECT_EQ(r->iterations, reference.iterations);
    EXPECT_EQ(r->gradient_evaluations, reference.gradient_evaluations);
    EXPECT_EQ(r->interp_queries, reference.interp_queries);
    EXPECT_EQ(r->feasible, reference.feasible);
  }
}

TEST(MultiStartThreadingTest, BitIdenticalAcrossThreadCounts) {
  // Seed 0 runs on the column pool, the raced seeds 1..k−1 on the seed
  // pool; the outcome, stopped seeds included, must not depend on either.
  const int n = 12, m = 6;
  ModelProblem mp = MakeModelProblem(n, m, 23);
  Rng rng(5);
  std::vector<Layout> seeds = MultiStartSolver::RandomSeeds(mp.nlp, 4, &rng);
  seeds.push_back(Layout::StripeEverythingEverywhere(n, m));

  SolverResult reference;
  bool have_reference = false;
  for (int threads : {1, 2, 8}) {
    SolverOptions o = FastOptions();
    o.num_threads = threads;
    MultiStartSolver solver(o);
    auto r = solver.Solve(mp.nlp, seeds);
    ASSERT_TRUE(r.ok()) << "threads=" << threads;
    if (!have_reference) {
      reference = std::move(r).value();
      have_reference = true;
      int stopped = 0;
      for (const SeedTrajectory& t : reference.seeds) {
        stopped += t.stopped() ? 1 : 0;
      }
      EXPECT_GE(stopped, 1) << "the race must stop a seed on this problem";
      continue;
    }
    EXPECT_TRUE(r->layout == reference.layout) << "threads=" << threads;
    EXPECT_EQ(r->max_utilization, reference.max_utilization)
        << "threads=" << threads;
    EXPECT_EQ(r->iterations, reference.iterations);
    EXPECT_EQ(r->gradient_evaluations, reference.gradient_evaluations);
    EXPECT_EQ(r->interp_queries, reference.interp_queries);
    ASSERT_EQ(r->seeds.size(), reference.seeds.size());
    for (size_t s = 0; s < r->seeds.size(); ++s) {
      EXPECT_EQ(r->seeds[s].round_max, reference.seeds[s].round_max)
          << "threads=" << threads << " seed " << s;
      EXPECT_EQ(r->seeds[s].stopped_round, reference.seeds[s].stopped_round)
          << "threads=" << threads << " seed " << s;
    }
  }
}

// ------------------------------------------------- Calibration threading

TEST(CalibrationThreadingTest, BitIdenticalAcrossThreadCounts) {
  DiskModel disk(Scsi15kParams());
  CalibrationOptions options;
  // Small multi-axis grid: fast, but still exercises the point -> (size,
  // runs, chi) decoding and the per-point RNG streams.
  options.size_axis = {static_cast<double>(8 * kKiB),
                       static_cast<double>(64 * kKiB)};
  options.run_axis = {1, 16};
  options.contention_axis = {0, 2};
  options.sample_requests = 48;

  options.num_threads = 1;
  auto golden = CalibrateDevice(disk, options);
  ASSERT_TRUE(golden.ok());
  const std::string golden_text = golden->ToText();

  for (int threads : {2, 8, 0}) {
    options.num_threads = threads;
    auto m = CalibrateDevice(disk, options);
    ASSERT_TRUE(m.ok()) << "threads=" << threads;
    EXPECT_EQ(m->ToText(), golden_text) << "threads=" << threads;
  }
}

TEST(CalibrationThreadingTest, SsdBitIdenticalAcrossThreadCounts) {
  SsdModel ssd(SsdParams{});
  CalibrationOptions options;
  options.size_axis = {static_cast<double>(8 * kKiB)};
  options.run_axis = {1, 8};
  options.contention_axis = {0, 4};
  options.sample_requests = 32;

  options.num_threads = 1;
  auto golden = CalibrateDevice(ssd, options);
  ASSERT_TRUE(golden.ok());

  options.num_threads = 8;
  auto parallel = CalibrateDevice(ssd, options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->ToText(), golden->ToText());
}

// ------------------------------------------------------- Engine economics

TEST(EngineTest, AnalyticAgreesWithFdAndDropsPerturbations) {
  // Differential test for the analytic-gradient engine: the same solve
  // with the column kernels swapped for the finite-difference oracle over
  // the scalar TargetUtilization must converge to a layout of equal
  // quality. Only the analytic solve touches the cost tables through the
  // batched kernels; the oracle's 2·N scalar evaluations per column pass
  // are what the fused pass replaces.
  const int n = 12, m = 6;
  ModelProblem mp = MakeModelProblem(n, m, 29);
  Layout seed(n, m);
  for (int i = 0; i < n; ++i) seed.SetRowRegular(i, {0});
  LayoutNlpProblem fd_nlp = mp.nlp;
  fd_nlp.make_column_eval = FdColumnFactory(mp.nlp.target_utilization);

  // Full default annealing schedule: under the fast test schedule the two
  // solves stop mid-descent at slightly different points; at convergence
  // they must agree tightly.
  const SolverOptions options;
  auto a = ProjectedGradientSolver(options).Solve(mp.nlp, seed);
  auto f = ProjectedGradientSolver(options).Solve(fd_nlp, seed);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.ok());

  EXPECT_GT(a->gradient_evaluations, 0);
  EXPECT_GT(a->interp_queries, 0);
  EXPECT_EQ(f->interp_queries, 0);
  ASSERT_GT(a->iterations, 0);
  // Equal converged quality. The objective is nonconvex (interference
  // couples columns), so the exact and FD gradients can descend into
  // different basins — pointwise gradient agreement is what the
  // GradientProperty suite asserts; here the solves must land within
  // basin-hopping noise of each other.
  EXPECT_NEAR(a->max_utilization, f->max_utilization,
              0.02 * std::max(1.0, std::fabs(f->max_utilization)));
  EXPECT_EQ(a->feasible, f->feasible);
  // Reported quality must be the honest scalar recomputation at the
  // returned layout, not a batched-path approximation.
  double true_max = 0.0;
  for (int j = 0; j < m; ++j) {
    true_max = std::max(true_max, mp.nlp.target_utilization(a->layout, j));
  }
  EXPECT_NEAR(a->max_utilization, true_max,
              1e-9 * std::max(1.0, std::fabs(true_max)));
  // Per-phase profile: every phase that ran reported wall time.
  EXPECT_EQ(a->profile.gradient.calls, a->iterations);
  EXPECT_GT(a->profile.line_search.calls, 0);
  EXPECT_GT(a->profile.refresh.calls, 0);
}

}  // namespace
}  // namespace ldb
