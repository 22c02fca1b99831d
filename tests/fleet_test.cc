// Tests of the fleet-scale layer: the sparse CSR overlap representation
// against the dense one through every TargetModel evaluation path, and the
// hierarchical FleetSolver (shard decomposition, coordination, determinism).

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fleet.h"
#include "core/initial.h"
#include "model/cost_model.h"
#include "model/target_model.h"
#include "model/workload.h"
#include "solver/projected_gradient.h"
#include "solver/simplex.h"
#include "util/random.h"
#include "util/units.h"

namespace ldb {
namespace {

/// Synthetic multi-point cost grid (no device calibration in unit tests):
/// cost grows with size and contention, shrinks with run length.
CostModel MakeTestCostModel() {
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
  auto m = CostModel::Create("fleet-grid", sizes, runs, chis, reads, writes);
  LDB_CHECK(m.ok());
  return std::move(m).value();
}

/// Tenant-structured workloads with genuinely sparse co-access: dense rows
/// whose off-diagonals are mostly exact zeros.
WorkloadSet MakeTenantWorkloads(int n, Rng* rng) {
  constexpr int kTenantSize = 6;
  WorkloadSet ws(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkloadDesc& w = ws[static_cast<size_t>(i)];
    w.read_rate = rng->Uniform(1, 150);
    w.read_size = 64 * kKiB;
    w.write_rate = rng->Uniform(0, 25);
    w.write_size = 8 * kKiB;
    w.run_count = rng->Uniform(1, 60);
    w.overlap.assign(static_cast<size_t>(n), 0.0);
    const int lo = (i / kTenantSize) * kTenantSize;
    const int hi = std::min(n, lo + kTenantSize);
    for (int k = lo; k < hi; ++k) {
      if (k != i) w.overlap[static_cast<size_t>(k)] = rng->Uniform(0.05, 0.8);
    }
    w.overlap[static_cast<size_t>(i)] = rng->Uniform(0, 1.5);
    // One weak cross-tenant link now and then.
    if (rng->Uniform() < 0.5) {
      const int k = static_cast<int>(
          rng->UniformInt(int64_t{0}, static_cast<int64_t>(n) - 1));
      if (k != i) w.overlap[static_cast<size_t>(k)] = rng->Uniform(0.01, 0.1);
    }
  }
  return ws;
}

LayoutProblem MakeFleetProblem(int n, int m, const CostModel* cost_model,
                               uint64_t seed, bool sparse) {
  Rng rng(seed);
  LayoutProblem p;
  p.workloads = MakeTenantWorkloads(n, &rng);
  if (sparse) SparsifyOverlap(&p.workloads);
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    p.object_names.push_back("o" + std::to_string(i));
    const int64_t size = rng.UniformInt(int64_t{1}, int64_t{8}) * kGiB;
    p.object_sizes.push_back(size);
    total += size;
    p.object_kinds.push_back(ObjectKind::kTable);
  }
  for (int j = 0; j < m; ++j) {
    AdvisorTarget t;
    t.name = "d" + std::to_string(j);
    t.capacity_bytes = total * 8 / (5 * m) + kMiB;
    t.cost_model = cost_model;
    p.targets.push_back(std::move(t));
  }
  return p;
}

Layout RandomSimplexLayout(int n, int m, Rng* rng) {
  Layout layout(n, m);
  for (int i = 0; i < n; ++i) {
    double* row = layout.Row(i);
    for (int j = 0; j < m; ++j) row[j] = rng->Uniform(0, 1);
    ProjectToSimplex(row, static_cast<size_t>(m));
    if (rng->Uniform() < 0.4) {
      row[rng->UniformInt(static_cast<uint64_t>(m - 1))] = 0.0;
    }
  }
  return layout;
}

// -------------------------------------------- sparse ≡ dense differential

class SparseDenseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cost_ = std::make_unique<CostModel>(MakeTestCostModel());
    Rng rng(91);
    dense_ = MakeTenantWorkloads(kN, &rng);
    sparse_ = dense_;
    SparsifyOverlap(&sparse_);
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(sparse_[static_cast<size_t>(i)].has_sparse_overlap());
      ASSERT_TRUE(sparse_[static_cast<size_t>(i)].overlap.empty());
    }
    std::vector<TargetModelInfo> infos(
        static_cast<size_t>(kM), TargetModelInfo{cost_.get(), 1, 64 * kKiB});
    model_ = std::make_unique<TargetModel>(infos, LvmLayoutModel(64 * kKiB));
  }

  static constexpr int kN = 24;
  static constexpr int kM = 4;
  std::unique_ptr<CostModel> cost_;
  std::unique_ptr<TargetModel> model_;
  WorkloadSet dense_;
  WorkloadSet sparse_;
};

TEST_F(SparseDenseTest, ScalarUtilizationMatches) {
  // Threshold-0 sparsification drops only exact-zero products, so the
  // sparse path must reproduce the dense µ_j to well inside 1e-9 relative
  // (lane assignment differs between the representations).
  Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    const Layout layout = RandomSimplexLayout(kN, kM, &rng);
    for (int j = 0; j < kM; ++j) {
      const double d = model_->TargetUtilization(dense_, layout, j);
      const double s = model_->TargetUtilization(sparse_, layout, j);
      EXPECT_NEAR(s, d, 1e-9 * std::max(1.0, std::fabs(d)))
          << "j=" << j << " trial=" << trial;
    }
  }
}

TEST_F(SparseDenseTest, UtilizationsAndMuMatrixMatch) {
  Rng rng(18);
  const Layout layout = RandomSimplexLayout(kN, kM, &rng);
  std::vector<double> mu_ij_d, mu_ij_s;
  const std::vector<double> mu_d =
      model_->Utilizations(dense_, layout, &mu_ij_d);
  const std::vector<double> mu_s =
      model_->Utilizations(sparse_, layout, &mu_ij_s);
  ASSERT_EQ(mu_d.size(), mu_s.size());
  for (size_t j = 0; j < mu_d.size(); ++j) {
    EXPECT_NEAR(mu_s[j], mu_d[j], 1e-9 * std::max(1.0, std::fabs(mu_d[j])));
  }
  ASSERT_EQ(mu_ij_d.size(), mu_ij_s.size());
  for (size_t e = 0; e < mu_ij_d.size(); ++e) {
    EXPECT_NEAR(mu_ij_s[e], mu_ij_d[e],
                1e-9 * std::max(1.0, std::fabs(mu_ij_d[e])));
  }
}

TEST_F(SparseDenseTest, BatchedEvaluateAndGradientMatch) {
  Rng rng(19);
  std::vector<double> grad_d(kN), grad_s(kN);
  for (int trial = 0; trial < 4; ++trial) {
    const Layout layout = RandomSimplexLayout(kN, kM, &rng);
    for (int j = 0; j < kM; ++j) {
      auto ctx_d = model_->MakeColumnEvaluator(dense_, j);
      auto ctx_s = model_->MakeColumnEvaluator(sparse_, j);
      const double vd = ctx_d->EvaluateWithGradient(layout, grad_d.data());
      const double vs = ctx_s->EvaluateWithGradient(layout, grad_s.data());
      EXPECT_NEAR(vs, vd, 1e-9 * std::max(1.0, std::fabs(vd)));
      for (int i = 0; i < kN; ++i) {
        EXPECT_NEAR(grad_s[static_cast<size_t>(i)],
                    grad_d[static_cast<size_t>(i)],
                    1e-9 * std::max(1.0,
                                    std::fabs(grad_d[static_cast<size_t>(i)])))
            << "i=" << i << " j=" << j;
      }
    }
  }
}

// ------------------------------------------------------------ FleetSolver

FleetOptions FastFleetOptions() {
  FleetOptions options;
  options.shard_target_objects = 24;
  options.solver.annealing_rounds = 3;
  options.solver.max_iterations_per_round = 25;
  options.max_coordination_rounds = 4;
  options.coordination_free_rows = 32;
  return options;
}

TEST(FleetSolverTest, RejectsPlacementConstraints) {
  CostModel cost = MakeTestCostModel();
  LayoutProblem problem = MakeFleetProblem(12, 3, &cost, 5, true);
  problem.constraints.allowed_targets.assign(12, {});
  problem.constraints.allowed_targets[0] = {0};
  const auto result = FleetSolver(FastFleetOptions()).Solve(problem);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FleetSolverTest, SolvesShardedProblem) {
  CostModel cost = MakeTestCostModel();
  const LayoutProblem problem = MakeFleetProblem(72, 6, &cost, 6, true);
  const auto result = FleetSolver(FastFleetOptions()).Solve(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->feasible);
  EXPECT_TRUE(
      result->layout.IsValid(problem.object_sizes, problem.capacities()));
  EXPECT_GT(result->max_utilization, 0.0);
  EXPECT_GT(result->shards.size(), 1u);

  // Shards partition the objects and the targets.
  std::vector<int> object_owner(72, -1);
  std::vector<int> target_owner(6, -1);
  for (size_t s = 0; s < result->shards.size(); ++s) {
    for (const int o : result->shards[s].objects) {
      EXPECT_EQ(object_owner[static_cast<size_t>(o)], -1);
      object_owner[static_cast<size_t>(o)] = static_cast<int>(s);
    }
    for (const int t : result->shards[s].targets) {
      EXPECT_EQ(target_owner[static_cast<size_t>(t)], -1);
      target_owner[static_cast<size_t>(t)] = static_cast<int>(s);
    }
  }
  for (const int owner : object_owner) EXPECT_NE(owner, -1);
  for (const int owner : target_owner) EXPECT_NE(owner, -1);

  // Max utilization agrees with the reported per-target vector, and the
  // sharded result must at least beat stripe-everything-everywhere (the
  // maximally interfering baseline).
  const TargetModel model = problem.MakeTargetModel();
  double expect_max = 0.0;
  for (const double mu : result->utilizations) {
    expect_max = std::max(expect_max, mu);
  }
  EXPECT_DOUBLE_EQ(result->max_utilization, expect_max);
  const double see_max = model.MaxUtilization(
      problem.workloads, Layout::StripeEverythingEverywhere(72, 6));
  EXPECT_LT(result->max_utilization, see_max);
}

TEST(FleetSolverTest, BitIdenticalAcrossThreadCountsAndRuns) {
  CostModel cost = MakeTestCostModel();
  const LayoutProblem problem = MakeFleetProblem(48, 6, &cost, 7, true);
  FleetOptions options = FastFleetOptions();
  options.num_threads = 1;
  const auto base = FleetSolver(options).Solve(problem);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  for (const int threads : {1, 2, 8}) {
    FleetOptions alt = options;
    alt.num_threads = threads;
    const auto run = FleetSolver(alt).Solve(problem);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_TRUE(run->layout == base->layout) << "threads=" << threads;
    EXPECT_EQ(run->max_utilization, base->max_utilization)
        << "threads=" << threads;
    EXPECT_EQ(run->accepted_moves, base->accepted_moves)
        << "threads=" << threads;
  }
}

TEST(FleetSolverTest, SingleShardDegeneratesGracefully) {
  CostModel cost = MakeTestCostModel();
  const LayoutProblem problem = MakeFleetProblem(12, 3, &cost, 8, true);
  FleetOptions options = FastFleetOptions();
  options.shard_target_objects = 100;  // everything fits one shard
  const auto result = FleetSolver(options).Solve(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->shards.size(), 1u);
  EXPECT_EQ(result->coordination_rounds, 0);
  EXPECT_TRUE(result->feasible);
}

TEST(FleetSolverTest, DenseRowsSolveToo) {
  // The fleet path does not require sparse inputs; dense overlap rows run
  // through the same decomposition.
  CostModel cost = MakeTestCostModel();
  const LayoutProblem problem = MakeFleetProblem(48, 4, &cost, 9, false);
  const auto result = FleetSolver(FastFleetOptions()).Solve(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->feasible);
}

}  // namespace
}  // namespace ldb
