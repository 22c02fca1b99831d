#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/table.h"

namespace ldb {

Result<Layout> PlaceIncrementally(const LayoutProblem& problem,
                                  const Layout& current,
                                  RegularizerOptions options) {
  LDB_RETURN_IF_ERROR(problem.Validate());
  const int n = problem.num_objects();
  const int m = problem.num_targets();
  if (current.num_objects() != n || current.num_targets() != m) {
    return Status::InvalidArgument("layout dimensions mismatch problem");
  }

  // Split objects into frozen (already placed) and new (all-zero rows).
  std::vector<int> to_place;
  for (int i = 0; i < n; ++i) {
    const double sum = current.RowSum(i);
    if (sum <= 1e-9) {
      to_place.push_back(i);
    } else if (std::fabs(sum - 1.0) > 1e-6) {
      return Status::InvalidArgument(StrFormat(
          "object %s is partially placed (row sums to %.3f); rows must be "
          "complete or empty",
          problem.object_names[static_cast<size_t>(i)].c_str(), sum));
    }
  }
  // The frozen rows must already fit; otherwise only a full re-layout can
  // help (e.g. an object grew past its targets' capacity). New objects'
  // all-zero rows contribute no bytes yet.
  {
    const auto bytes = current.BytesPerTarget(problem.object_sizes);
    const auto caps = problem.capacities();
    for (int j = 0; j < m; ++j) {
      if (bytes[static_cast<size_t>(j)] > caps[static_cast<size_t>(j)]) {
        return Status::CapacityExceeded(StrFormat(
            "frozen layout already exceeds target %d; re-run the full "
            "advisor",
            j));
      }
    }
  }
  if (to_place.empty()) return current;

  // Place new objects in decreasing request-rate order (the same ordering
  // the initial-layout heuristic uses).
  std::stable_sort(to_place.begin(), to_place.end(), [&](int a, int b) {
    return problem.workloads[static_cast<size_t>(a)].total_rate() >
           problem.workloads[static_cast<size_t>(b)].total_rate();
  });

  const TargetModel model = problem.MakeTargetModel();
  CandidatePricer pricer(&problem, &model, current);
  for (int i : to_place) {
    const RegularCandidateChoice choice =
        BestRegularRowForObject(options, &pricer, i);
    if (!choice.found) {
      return Status::Infeasible(StrFormat(
          "no placement for new object %s without moving existing data; "
          "re-run the full advisor",
          problem.object_names[static_cast<size_t>(i)].c_str()));
    }
    pricer.Apply(i, choice.targets);
  }
  return pricer.layout();
}

}  // namespace ldb
