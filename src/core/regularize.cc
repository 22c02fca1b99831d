#include "core/regularize.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

double EffectiveTargetUtilization(const RegularizerOptions& options,
                                  double mu_j, int j) {
  if (options.target_derate.empty()) return mu_j;
  const double d = options.target_derate[static_cast<size_t>(j)];
  if (d >= 1.0) return mu_j;
  // Failed target: any load at all disqualifies the candidate.
  if (d <= 0.0) return mu_j > 0.0 ? 1e12 : 0.0;
  return mu_j / d;
}

Regularizer::Regularizer(const LayoutProblem* problem,
                         const TargetModel* model,
                         RegularizerOptions options)
    : problem_(problem), model_(model), options_(options) {
  LDB_CHECK(problem_ != nullptr);
  LDB_CHECK(model_ != nullptr);
}

namespace {

/// Bytes object entry `fraction` of an object of `size` bytes occupies, as
/// Layout::BytesPerTarget counts them.
int64_t EntryBytes(double fraction, int64_t size) {
  return static_cast<int64_t>(std::ceil(fraction * static_cast<double>(size)));
}

}  // namespace

CandidatePricer::CandidatePricer(const LayoutProblem* problem,
                                 const TargetModel* model, Layout layout)
    : problem_(problem),
      model_(model),
      layout_(std::move(layout)),
      n_(layout_.num_objects()),
      m_(layout_.num_targets()),
      capacities_(problem->capacities()),
      bytes_(layout_.BytesPerTarget(problem->object_sizes)),
      mu_(static_cast<size_t>(m_)),
      row_(static_cast<size_t>(m_)) {
  LDB_CHECK_EQ(n_, problem_->num_objects());
  LDB_CHECK_EQ(m_, problem_->num_targets());
  const WorkloadSet& workloads = problem_->workloads;
  const size_t un = static_cast<size_t>(n_);

  // Every column priced as TargetUtilization prices it.
  per_.resize(un * static_cast<size_t>(m_));
  rate_.resize(per_.size());
  mu_kj_.resize(per_.size());
  nonzero_.resize(static_cast<size_t>(m_));
  for (int j = 0; j < m_; ++j) {
    const size_t base = static_cast<size_t>(j) * un;
    for (size_t k = 0; k < un; ++k) {
      per_[base + k] = model_->layout_model().Transform(
          workloads[k], std::max(0.0, layout_.At(static_cast<int>(k), j)));
      rate_[base + k] = per_[base + k].total_rate();
    }
    double mu_j = 0.0;
    for (size_t k = 0; k < un; ++k) {
      const double mu_kj = model_->ObjectUtilization(
          workloads, static_cast<int>(k), j, per_[base + k], &rate_[base]);
      mu_kj_[base + k] = mu_kj;
      mu_j += mu_kj;
      if (mu_kj != 0.0) {
        nonzero_[static_cast<size_t>(j)].push_back(static_cast<int>(k));
      }
    }
    mu_[static_cast<size_t>(j)] = mu_j;
  }

  // Transposed overlap: object k's χ reads object i's rate iff k's row
  // holds a nonzero O_k[i].
  partner_begin_.assign(un + 1, 0);
  const auto for_each_partner = [&](auto&& fn) {
    for (size_t k = 0; k < un; ++k) {
      const WorkloadDesc& w = workloads[k];
      for (size_t s = 0; s < w.overlap_index.size(); ++s) {
        const size_t i = static_cast<size_t>(w.overlap_index[s]);
        if (i != k && w.overlap_value[s] != 0.0) fn(i, k);
      }
    }
  };
  for_each_partner([&](size_t i, size_t) { ++partner_begin_[i + 1]; });
  for (size_t i = 0; i < un; ++i) partner_begin_[i + 1] += partner_begin_[i];
  partners_.resize(partner_begin_[un]);
  std::vector<size_t> cursor(partner_begin_.begin(), partner_begin_.end() - 1);
  for_each_partner([&](size_t i, size_t k) {
    partners_[cursor[i]++] = static_cast<int>(k);
  });
}

void CandidatePricer::SetTrialRow(std::span<const int> targets) {
  LDB_CHECK(!targets.empty());
  std::fill(row_.begin(), row_.end(), 0.0);
  const double share = 1.0 / static_cast<double>(targets.size());
  for (int j : targets) row_[static_cast<size_t>(j)] = share;
}

double CandidatePricer::RepriceColumn(int i, int j, double fraction,
                                      bool commit) {
  const WorkloadSet& workloads = problem_->workloads;
  const size_t base = static_cast<size_t>(j) * static_cast<size_t>(n_);
  double* rate = &rate_[base];
  double* mu = &mu_kj_[base];
  const size_t ui = static_cast<size_t>(i);
  ++columns_repriced_;

  const PerTargetWorkload wij = model_->layout_model().Transform(
      workloads[ui], std::max(0.0, fraction));
  const double saved_rate = rate[ui];
  rate[ui] = wij.total_rate();
  // Reprice object i and its partners, recording them in ascending order.
  undo_.clear();
  const auto reprice = [&](int k, const PerTargetWorkload& wkj) {
    undo_.emplace_back(k, mu[k]);
    mu[k] = model_->ObjectUtilization(workloads, k, j, wkj, rate);
  };
  bool repriced_i = false;
  for (size_t s = partner_begin_[ui]; s < partner_begin_[ui + 1]; ++s) {
    const int k = partners_[s];
    if (!repriced_i && k > i) {
      reprice(i, wij);
      repriced_i = true;
    }
    reprice(k, per_[base + static_cast<size_t>(k)]);
  }
  if (!repriced_i) reprice(i, wij);

  // µ_j in object order over the nonzero terms: the cached ones merged
  // with the repriced ones (skipping a zero term is exact, x + 0.0 == x).
  std::vector<int>& nonzero = nonzero_[static_cast<size_t>(j)];
  double mu_j = 0.0;
  size_t a = 0;
  for (const auto& [k, unused] : undo_) {
    for (; a < nonzero.size() && nonzero[a] < k; ++a) mu_j += mu[nonzero[a]];
    if (a < nonzero.size() && nonzero[a] == k) ++a;
    mu_j += mu[k];
  }
  for (; a < nonzero.size(); ++a) mu_j += mu[nonzero[a]];

  if (commit) {
    per_[base + ui] = wij;
    mu_[static_cast<size_t>(j)] = mu_j;
    for (const auto& [k, unused] : undo_) {
      const auto it = std::lower_bound(nonzero.begin(), nonzero.end(), k);
      const bool listed = it != nonzero.end() && *it == k;
      if (mu[k] != 0.0 && !listed) {
        nonzero.insert(it, k);
      } else if (mu[k] == 0.0 && listed) {
        nonzero.erase(it);
      }
    }
  } else {
    rate[ui] = saved_rate;
    for (const auto& [k, v] : undo_) mu[k] = v;
  }
  return mu_j;
}

std::optional<double> CandidatePricer::Price(const RegularizerOptions& options,
                                             int i,
                                             std::span<const int> targets,
                                             double bound) {
  SetTrialRow(targets);
  const double* old_row = layout_.Row(i);
  const int64_t size = problem_->object_sizes[static_cast<size_t>(i)];
  for (int j = 0; j < m_; ++j) {
    const size_t uj = static_cast<size_t>(j);
    if (bytes_[uj] - EntryBytes(old_row[j], size) +
            EntryBytes(row_[uj], size) >
        capacities_[uj]) {
      return std::nullopt;
    }
  }
  // The max is exact in any order, so the columns the candidate leaves
  // alone go first (cached µ_j, nothing repriced), then the touched ones,
  // hottest first: the ones most likely to reach the bound.
  double max_mu = 0.0;
  touched_.clear();
  for (int j = 0; j < m_; ++j) {
    const size_t uj = static_cast<size_t>(j);
    const double effective = EffectiveTargetUtilization(options, mu_[uj], j);
    if (row_[uj] != old_row[j]) {
      touched_.emplace_back(effective, j);
    } else {
      max_mu = std::max(max_mu, effective);
    }
  }
  if (max_mu >= bound) return std::nullopt;
  std::sort(touched_.begin(), touched_.end(), std::greater<>());
  for (const auto& [unused, j] : touched_) {
    const double effective = EffectiveTargetUtilization(
        options,
        RepriceColumn(i, j, row_[static_cast<size_t>(j)], /*commit=*/false),
        j);
    if (effective >= bound) return std::nullopt;
    max_mu = std::max(max_mu, effective);
  }
  return max_mu;
}

void CandidatePricer::Apply(int i, const std::vector<int>& targets) {
  SetTrialRow(targets);
  const double* old_row = layout_.Row(i);
  const int64_t size = problem_->object_sizes[static_cast<size_t>(i)];
  for (int j = 0; j < m_; ++j) {
    const size_t uj = static_cast<size_t>(j);
    if (row_[uj] == old_row[j]) continue;
    bytes_[uj] += EntryBytes(row_[uj], size) - EntryBytes(old_row[j], size);
    RepriceColumn(i, j, row_[uj], /*commit=*/true);
  }
  layout_.SetRowRegular(i, targets);
}

double MaxEffectiveUtilization(const RegularizerOptions& options,
                               const std::vector<double>& mu) {
  double out = 0.0;
  for (size_t j = 0; j < mu.size(); ++j) {
    out = std::max(out, EffectiveTargetUtilization(options, mu[j],
                                                   static_cast<int>(j)));
  }
  return out;
}

namespace {

/// Outcome of searching the 2M regular candidates for one object.
struct RegularCandidateChoice {
  bool found = false;
  double objective = 0.0;  ///< max_j µ_j with the candidate applied
  std::vector<int> targets;
};

/// Generates the paper's 2M candidate regular rows for object `i` against
/// the pricer's layout, drops capacity and constraint violators, and
/// returns the first one minimizing the maximum (derated) utilization among
/// those below `cap` (not found when none is).
RegularCandidateChoice BestRegularRowForObject(
    const RegularizerOptions& options, CandidatePricer* pricer, int i,
    double cap) {
  const LayoutProblem& problem = pricer->problem();
  const Layout& current = pricer->layout();
  const std::vector<double>& mu = pricer->mu();
  const int m = problem.num_targets();
  LDB_CHECK(options.target_derate.empty() ||
            options.target_derate.size() == static_cast<size_t>(m));

  // Candidate universe: the object's allowed targets (all targets when
  // unrestricted). Generating prefixes from the allowed set — rather than
  // filtering afterwards — keeps candidates available even when a
  // disallowed target would sort ahead of every allowed one.
  std::vector<int> universe = problem.constraints.AllowedFor(i);
  if (universe.empty()) {
    universe.resize(static_cast<size_t>(m));
    std::iota(universe.begin(), universe.end(), 0);
  }
  // Class 1 (consistent): targets by current fraction, descending; ties
  // broken by target id (paper footnote 1).
  std::vector<int> by_fraction = universe;
  std::stable_sort(by_fraction.begin(), by_fraction.end(), [&](int a, int b) {
    return current.At(i, a) > current.At(i, b);
  });
  // Class 2 (balancing): targets by current load, ascending.
  std::vector<int> by_load = universe;
  std::stable_sort(by_load.begin(), by_load.end(), [&](int a, int b) {
    return EffectiveTargetUtilization(options, mu[static_cast<size_t>(a)],
                                      a) <
           EffectiveTargetUtilization(options, mu[static_cast<size_t>(b)], b);
  });

  // Separation constraints drop candidates that share a target with a
  // partner (allowed-target restrictions already shaped the universe).
  const auto co_locates = [&](std::span<const int> targets) {
    for (const auto& [a, b] : problem.constraints.separate) {
      const int partner = a == i ? b : (b == i ? a : -1);
      if (partner < 0) continue;
      for (int j : targets) {
        if (current.At(partner, j) > kLayoutZeroTolerance) return true;
      }
    }
    return false;
  };

  // A candidate is a prefix of one of the two orders. Each is priced
  // against the best max so far (which is below `cap`): the pricer returns
  // only a strictly lower one, so the first candidate with the lowest max
  // wins, exactly as if every candidate were priced in full.
  RegularCandidateChoice best;
  const auto consider = [&](const std::vector<int>& order, size_t k) {
    const std::span<const int> targets(order.data(), k);
    if (co_locates(targets)) return;
    const std::optional<double> objective =
        pricer->Price(options, i, targets, best.found ? best.objective : cap);
    if (!objective) return;
    best.found = true;
    best.objective = *objective;
    best.targets.assign(targets.begin(), targets.end());
  };
  for (size_t k = 1; k <= universe.size(); ++k) {
    consider(by_fraction, k);
    if (options.balancing_candidates) consider(by_load, k);
  }
  return best;
}

}  // namespace

int RelayoutRows(const RegularizerOptions& options, CandidatePricer* pricer,
                 const std::vector<int>& place, const std::vector<int>& refine,
                 double margin) {
  for (int i : place) {
    const RegularCandidateChoice choice = BestRegularRowForObject(
        options, pricer, i, std::numeric_limits<double>::infinity());
    if (!choice.found) return i;
    pricer->Apply(i, choice.targets);
  }
  for (int pass = 0; pass < options.refinement_passes; ++pass) {
    bool improved = false;
    for (int i : refine) {
      // Only a winner below the incumbent by more than `margin` moves, so
      // nothing at or above that is worth pricing.
      const double cap =
          MaxEffectiveUtilization(options, pricer->mu()) - margin;
      const RegularCandidateChoice choice =
          BestRegularRowForObject(options, pricer, i, cap);
      if (choice.found && pricer->layout().TargetsOf(i) != choice.targets) {
        pricer->Apply(i, choice.targets);
        improved = true;
      }
    }
    if (!improved) break;
  }
  return -1;
}

Result<Layout> Regularizer::Regularize(const Layout& solver_layout,
                                       int64_t* columns_repriced) const {
  LDB_RETURN_IF_ERROR(problem_->Validate());
  const int n = problem_->num_objects();
  const int m = problem_->num_targets();
  if (solver_layout.num_objects() != n || solver_layout.num_targets() != m) {
    return Status::InvalidArgument("layout dimensions mismatch problem");
  }

  CandidatePricer pricer(problem_, model_, solver_layout);

  // Object order: decreasing total imposed load Σ_j µ_ij under the
  // solver's layout.
  std::vector<double> object_load(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      object_load[static_cast<size_t>(i)] += pricer.mu_ij(i, j);
    }
  }
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return object_load[static_cast<size_t>(a)] >
           object_load[static_cast<size_t>(b)];
  });

  // Greedy pass, one object at a time (paper Section 4.3), then refinement
  // sweeps over the now-regular layout keeping strict improvements.
  const int stuck = RelayoutRows(options_, &pricer, order, order, 1e-12);
  if (columns_repriced != nullptr) {
    *columns_repriced = pricer.columns_repriced();
  }
  if (stuck >= 0) {
    return Status::Infeasible(StrFormat(
        "no regular candidate for object %s fits the capacity "
        "constraints; manual intervention required",
        problem_->object_names[static_cast<size_t>(stuck)].c_str()));
  }

  LDB_CHECK(pricer.layout().IsRegular(1e-9));
  return pricer.layout();
}

}  // namespace ldb
