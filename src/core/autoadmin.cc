#include "core/autoadmin.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

/// Step 2 considers spreading an object only if its total estimated volume
/// is at least this fraction of the heaviest object's.
constexpr double kSpreadThreshold = 0.10;
/// Step 2 spreads an object onto a target only if the co-access weight
/// with objects already there is at most this fraction of the object's own
/// weight. Zero spreads only onto targets holding no co-accessed object at
/// all — which is why AutoAdmin keeps LINEITEM on a single target in the
/// paper's Figure 20(b).
constexpr double kCoaccessTolerance = 0.0;

}  // namespace

Result<Layout> AutoAdminAdvisor::Recommend(
    const LayoutProblem& problem,
    const std::vector<QueryEstimate>& queries) const {
  LDB_RETURN_IF_ERROR(problem.Validate());
  if (queries.empty()) {
    return Status::InvalidArgument("no query estimates");
  }
  const int n = problem.num_objects();
  const int m = problem.num_targets();
  const size_t nn = static_cast<size_t>(n);

  // Build the co-access graph: node weights (estimated volume) and edge
  // weights (concurrent-access volume).
  std::vector<double> weight(nn, 0.0);
  std::vector<double> edge(nn * nn, 0.0);
  for (const QueryEstimate& q : queries) {
    for (const QueryAccessEstimate& a : q.accesses) {
      if (a.object < 0 || a.object >= n) {
        return Status::InvalidArgument(
            StrFormat("estimate references unknown object %d", a.object));
      }
      weight[static_cast<size_t>(a.object)] += a.estimated_bytes;
    }
    for (size_t x = 0; x < q.accesses.size(); ++x) {
      for (size_t y = x + 1; y < q.accesses.size(); ++y) {
        const QueryAccessEstimate& a = q.accesses[x];
        const QueryAccessEstimate& b = q.accesses[y];
        if (a.object == b.object) continue;
        const double w = std::min(a.estimated_bytes, b.estimated_bytes);
        edge[static_cast<size_t>(a.object) * nn +
             static_cast<size_t>(b.object)] += w;
        edge[static_cast<size_t>(b.object) * nn +
             static_cast<size_t>(a.object)] += w;
      }
    }
  }

  std::vector<int> order(nn);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weight[static_cast<size_t>(a)] > weight[static_cast<size_t>(b)];
  });

  // Step 1: single-target placement separating co-accessed objects.
  Layout layout(n, m);
  std::vector<std::vector<int>> on_target(static_cast<size_t>(m));
  std::vector<double> target_weight(static_cast<size_t>(m), 0.0);
  std::vector<int64_t> remaining = problem.capacities();
  std::vector<int> home(nn, -1);
  for (int i : order) {
    const int64_t size = problem.object_sizes[static_cast<size_t>(i)];
    int best = -1;
    double best_penalty = 0.0;
    double best_load = 0.0;
    for (int j = 0; j < m; ++j) {
      if (remaining[static_cast<size_t>(j)] < size) continue;
      double penalty = 0.0;
      for (int k : on_target[static_cast<size_t>(j)]) {
        penalty += edge[static_cast<size_t>(i) * nn + static_cast<size_t>(k)];
      }
      const double load = target_weight[static_cast<size_t>(j)];
      if (best < 0 || penalty < best_penalty ||
          (penalty == best_penalty && load < best_load)) {
        best = j;
        best_penalty = penalty;
        best_load = load;
      }
    }
    if (best < 0) {
      return Status::Infeasible(StrFormat(
          "object %s fits on no target",
          problem.object_names[static_cast<size_t>(i)].c_str()));
    }
    layout.SetRowRegular(i, {best});
    home[static_cast<size_t>(i)] = best;
    on_target[static_cast<size_t>(best)].push_back(i);
    target_weight[static_cast<size_t>(best)] +=
        weight[static_cast<size_t>(i)];
    remaining[static_cast<size_t>(best)] -= size;
  }

  // Step 2: spread heavy objects across additional targets for I/O
  // parallelism, where co-location stays negligible.
  const double max_weight =
      *std::max_element(weight.begin(), weight.end());
  const std::vector<int64_t> capacities = problem.capacities();
  for (int i : order) {
    const double wi = weight[static_cast<size_t>(i)];
    if (max_weight <= 0.0 || wi < kSpreadThreshold * max_weight) {
      continue;
    }
    std::vector<int> spread_targets;
    for (int j = 0; j < m; ++j) {
      double coaccess = 0.0;
      for (int k : on_target[static_cast<size_t>(j)]) {
        if (k == i) continue;
        coaccess +=
            edge[static_cast<size_t>(i) * nn + static_cast<size_t>(k)];
      }
      if (j == home[static_cast<size_t>(i)] ||
          coaccess <= kCoaccessTolerance * wi) {
        spread_targets.push_back(j);
      }
    }
    if (spread_targets.size() < 2) continue;
    // Tentatively spread; revert if capacity breaks.
    const std::vector<int> old_targets = layout.TargetsOf(i);
    layout.SetRowRegular(i, spread_targets);
    if (!layout.SatisfiesCapacity(problem.object_sizes, capacities)) {
      layout.SetRowRegular(i, old_targets);
      continue;
    }
    for (int j : spread_targets) {
      auto& list = on_target[static_cast<size_t>(j)];
      if (std::find(list.begin(), list.end(), i) == list.end()) {
        list.push_back(i);
      }
    }
  }

  LDB_CHECK(layout.IsRegular(1e-9));
  return layout;
}

std::vector<QueryEstimate> EstimateQueriesFromSpec(
    const OlapSpec& spec, const LayoutProblem& problem,
    double temp_estimate_error) {
  std::vector<QueryEstimate> out;
  out.reserve(spec.queries.size());
  for (const QueryProfile& q : spec.queries) {
    QueryEstimate est;
    // Aggregate per-object bytes across the whole query (the optimizer
    // sees the statement, not its execution phases).
    std::vector<double> bytes(problem.object_sizes.size(), 0.0);
    for (const QueryStep& step : q.steps) {
      for (const StreamSpec& s : step.streams) {
        bytes[static_cast<size_t>(s.object)] +=
            static_cast<double>(s.bytes);
      }
    }
    for (size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] <= 0.0) continue;
      double v = bytes[i];
      if (problem.object_kinds[i] == ObjectKind::kTempSpace) {
        v *= temp_estimate_error;
      }
      est.accesses.push_back(
          QueryAccessEstimate{static_cast<ObjectId>(i), v});
    }
    out.push_back(std::move(est));
  }
  return out;
}

}  // namespace ldb
