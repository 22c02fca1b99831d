#include "solver/multistart.h"

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "solver/simplex.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ldb {

MultiStartSolver::MultiStartSolver(SolverOptions options)
    : options_(options), solver_(options) {}

Result<SolverResult> MultiStartSolver::Solve(
    const LayoutNlpProblem& problem,
    const std::vector<Layout>& initials) const {
  if (initials.empty()) {
    return Status::InvalidArgument("at least one initial layout required");
  }

  // Seed 0 runs to completion; a feasible seed 0 is the rival every other
  // seed races.
  std::vector<std::optional<Result<SolverResult>>> runs(initials.size());
  runs[0] = solver_.Solve(problem, initials[0]);
  if (!runs[0]->ok()) return runs[0]->status();
  std::vector<double> rival;
  if ((*runs[0])->feasible) rival = (*runs[0])->seeds.front().round_max;

  // Each later seed's run lands in its own slot; the reduction below walks
  // the slots serially in seed order, so the outcome (winner, accumulated
  // counters, first error) is identical for every thread count.
  const int threads = ThreadPool::EffectiveThreads(options_.num_threads);
  const int64_t rest = static_cast<int64_t>(initials.size()) - 1;
  if (threads > 1 && rest > 1) {
    // The later seeds are the parallel unit here; force their solves
    // serial so the pools do not compose.
    SolverOptions inner = options_;
    inner.num_threads = 1;
    const ProjectedGradientSolver inner_solver(inner);
    ThreadPool pool(threads);
    pool.ParallelFor(rest, [&](int, int64_t k) {
      const size_t s = static_cast<size_t>(k) + 1;
      runs[s] = inner_solver.Solve(problem, initials[s], rival);
    });
  } else {
    for (size_t s = 1; s < initials.size(); ++s) {
      runs[s] = solver_.Solve(problem, initials[s], rival);
      if (!runs[s]->ok()) break;  // later seeds would be discarded anyway
    }
  }

  SolverResult total;  // summed effort and every trajectory, in seed order
  size_t best = 0;
  for (size_t s = 0; s < runs.size(); ++s) {
    LDB_CHECK(runs[s].has_value());
    if (!runs[s]->ok()) return runs[s]->status();
    const SolverResult& r = **runs[s];
    total.iterations += r.iterations;
    total.objective_evaluations += r.objective_evaluations;
    total.gradient_evaluations += r.gradient_evaluations;
    total.interp_queries += r.interp_queries;
    total.profile.Accumulate(r.profile);
    total.seeds.push_back(r.seeds.front());
    const SolverResult& b = **runs[best];
    if (!r.seeds.front().stopped() &&
        ((r.feasible && !b.feasible) ||
         (r.feasible == b.feasible &&
          r.max_utilization < b.max_utilization))) {
      best = s;
    }
  }
  SolverResult result = std::move(*runs[best]).value();
  result.iterations = total.iterations;
  result.objective_evaluations = total.objective_evaluations;
  result.gradient_evaluations = total.gradient_evaluations;
  result.interp_queries = total.interp_queries;
  result.profile = total.profile;
  result.seeds = std::move(total.seeds);
  return result;
}

std::vector<Layout> MultiStartSolver::RandomSeeds(
    const LayoutNlpProblem& problem, int count, Rng* rng) {
  LDB_CHECK(rng != nullptr);
  LDB_CHECK_GT(count, 0);
  std::vector<Layout> seeds;
  seeds.reserve(static_cast<size_t>(count));
  for (int s = 0; s < count; ++s) {
    Layout l(problem.num_objects, problem.num_targets);
    for (int i = 0; i < problem.num_objects; ++i) {
      double* row = l.Row(i);
      // Sparse random rows: most mass on a couple of targets.
      for (int j = 0; j < problem.num_targets; ++j) {
        const double u = rng->Uniform();
        row[j] = u * u * u;
      }
      ProjectToSimplex(row, static_cast<size_t>(problem.num_targets));
    }
    seeds.push_back(std::move(l));
  }
  return seeds;
}

}  // namespace ldb
