#include "solver/randomized.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/random.h"
#include "util/table.h"

namespace ldb {

namespace {

// Acceptance temperatures, relative to the seed's objective.
constexpr double kInitialTemperature = 0.25;
constexpr double kFinalTemperature = 1e-3;
// Proposed moves per search, and the seed of the move stream.
constexpr int kIterations = 20000;
constexpr uint64_t kSeed = 42;

/// Proposes a mutation of object i's stripe set: add, remove, or swap one
/// target. Returns false if no move is possible.
bool ProposeMove(const LayoutNlpProblem& p, const std::vector<int>& current,
                 Rng* rng, std::vector<int>* proposed) {
  const int m = p.num_targets;
  *proposed = current;
  const int kind = static_cast<int>(rng->UniformInt(uint64_t{3}));
  if (kind == 0 && static_cast<int>(current.size()) < m) {
    // Add a target not in the set.
    std::vector<int> candidates;
    for (int j = 0; j < m; ++j) {
      if (std::find(current.begin(), current.end(), j) == current.end()) {
        candidates.push_back(j);
      }
    }
    if (candidates.empty()) return false;
    proposed->push_back(
        candidates[rng->UniformInt(candidates.size())]);
    std::sort(proposed->begin(), proposed->end());
    return true;
  }
  if (kind == 1 && current.size() > 1) {
    // Remove one target.
    proposed->erase(proposed->begin() +
                    static_cast<std::ptrdiff_t>(
                        rng->UniformInt(proposed->size())));
    return true;
  }
  // Swap one target for an unused one.
  std::vector<int> unused;
  for (int j = 0; j < m; ++j) {
    if (std::find(current.begin(), current.end(), j) == current.end()) {
      unused.push_back(j);
    }
  }
  if (unused.empty()) return false;
  (*proposed)[rng->UniformInt(proposed->size())] =
      unused[rng->UniformInt(unused.size())];
  std::sort(proposed->begin(), proposed->end());
  return true;
}

/// Checks the allowed-targets and separation constraints for setting
/// object i's stripe set to `targets` within `layout`.
bool MoveSatisfiesConstraints(const LayoutNlpProblem& p, const Layout& layout,
                              int i, const std::vector<int>& targets) {
  const std::vector<int>& allowed = p.constraints.AllowedFor(i);
  if (!allowed.empty()) {
    for (int j : targets) {
      if (std::find(allowed.begin(), allowed.end(), j) == allowed.end()) {
        return false;
      }
    }
  }
  for (const auto& [a, b] : p.constraints.separate) {
    const int partner = a == i ? b : (b == i ? a : -1);
    if (partner < 0) continue;
    for (int j : targets) {
      if (layout.At(partner, j) > 1e-9) return false;
    }
  }
  return true;
}

}  // namespace

Result<SolverResult> RandomizedSearchSolver::Solve(
    const LayoutNlpProblem& problem, const Layout& initial) const {
  if (problem.num_objects <= 0 || problem.num_targets <= 0 ||
      !problem.target_utilization) {
    return Status::InvalidArgument("malformed problem");
  }
  LDB_RETURN_IF_ERROR(
      problem.constraints.Validate(problem.num_objects, problem.num_targets));
  if (initial.num_objects() != problem.num_objects ||
      initial.num_targets() != problem.num_targets) {
    return Status::InvalidArgument("initial layout dimension mismatch");
  }
  if (!initial.IsRegular(1e-9) ||
      !initial.IsValid(problem.object_sizes, problem.target_capacities)) {
    return Status::InvalidArgument(
        "randomized search needs a valid regular seed");
  }

  const int n = problem.num_objects;
  const int m = problem.num_targets;
  Rng rng(kSeed);

  SolverResult result;
  result.layout = initial;
  Layout& x = result.layout;

  std::vector<double> mu(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    mu[static_cast<size_t>(j)] = problem.target_utilization(x, j);
    ++result.objective_evaluations;
  }
  double objective = *std::max_element(mu.begin(), mu.end());
  Layout best = x;
  double best_objective = objective;

  const double t0 = kInitialTemperature * std::max(1e-9, objective);
  const double t1 = kFinalTemperature * std::max(1e-9, objective);
  const double cooling = std::pow(t1 / t0, 1.0 / (kIterations - 1));
  double temperature = t0;

  std::vector<int> proposed;
  for (int iter = 0; iter < kIterations; ++iter) {
    ++result.iterations;
    const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const std::vector<int> current = x.TargetsOf(i);
    if (!ProposeMove(problem, current, &rng, &proposed)) {
      temperature *= cooling;
      continue;
    }
    if (!MoveSatisfiesConstraints(problem, x, i, proposed)) {
      temperature *= cooling;
      continue;
    }
    x.SetRowRegular(i, proposed);
    if (!x.SatisfiesCapacity(problem.object_sizes,
                             problem.target_capacities)) {
      x.SetRowRegular(i, current);
      temperature *= cooling;
      continue;
    }
    // Incremental evaluation: recompute only the touched targets.
    std::vector<double> trial_mu = mu;
    for (int j = 0; j < m; ++j) {
      const bool touched =
          std::find(current.begin(), current.end(), j) != current.end() ||
          std::find(proposed.begin(), proposed.end(), j) != proposed.end();
      if (touched) {
        trial_mu[static_cast<size_t>(j)] = problem.target_utilization(x, j);
        ++result.objective_evaluations;
      }
    }
    const double trial_objective =
        *std::max_element(trial_mu.begin(), trial_mu.end());
    const double delta = trial_objective - objective;
    if (delta <= 0 || rng.Bernoulli(std::exp(-delta / temperature))) {
      mu = std::move(trial_mu);
      objective = trial_objective;
      if (objective < best_objective) {
        best_objective = objective;
        best = x;
      }
    } else {
      x.SetRowRegular(i, current);
    }
    temperature *= cooling;
  }

  result.layout = best;
  result.max_utilization = best_objective;
  result.feasible =
      best.IsValid(problem.object_sizes, problem.target_capacities) &&
      problem.constraints.SatisfiedBy(best);
  return result;
}

}  // namespace ldb
