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

  // Each seed's run lands in its own slot; the reduction below walks the
  // slots serially in seed order, so the outcome (winner, accumulated
  // counters, first error) is identical for every thread count.
  std::vector<std::optional<Result<SolverResult>>> runs(initials.size());
  const int threads = ThreadPool::EffectiveThreads(options_.num_threads);
  if (threads > 1 && initials.size() > 1) {
    // Seeds are the parallel unit here; force the per-seed solves serial so
    // the pools do not compose (and per-seed results stay identical to a
    // standalone serial solve).
    SolverOptions inner = options_;
    inner.num_threads = 1;
    const ProjectedGradientSolver inner_solver(inner);
    ThreadPool pool(threads);
    pool.ParallelFor(static_cast<int64_t>(initials.size()),
                     [&](int, int64_t s) {
                       runs[static_cast<size_t>(s)] =
                           inner_solver.Solve(problem, initials[static_cast<size_t>(s)]);
                     });
  } else {
    for (size_t s = 0; s < initials.size(); ++s) {
      runs[s] = solver_.Solve(problem, initials[s]);
      if (!runs[s]->ok()) break;  // later seeds would be discarded anyway
    }
  }

  bool have_best = false;
  SolverResult best;
  for (size_t s = 0; s < runs.size(); ++s) {
    LDB_CHECK(runs[s].has_value());
    Result<SolverResult>& run = *runs[s];
    if (!run.ok()) return run.status();
    SolverResult r = std::move(run).value();
    const bool better =
        !have_best ||
        (r.feasible && !best.feasible) ||
        (r.feasible == best.feasible &&
         r.max_utilization < best.max_utilization);
    if (better) {
      // Accumulate effort counters across starts before overwriting.
      r.iterations += have_best ? best.iterations : 0;
      r.objective_evaluations +=
          have_best ? best.objective_evaluations : 0;
      r.gradient_evaluations += have_best ? best.gradient_evaluations : 0;
      r.interp_queries += have_best ? best.interp_queries : 0;
      if (have_best) r.profile.Accumulate(best.profile);
      best = std::move(r);
      have_best = true;
    } else {
      best.iterations += r.iterations;
      best.objective_evaluations += r.objective_evaluations;
      best.gradient_evaluations += r.gradient_evaluations;
      best.interp_queries += r.interp_queries;
      best.profile.Accumulate(r.profile);
    }
  }
  return best;
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
