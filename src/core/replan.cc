#include "core/replan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "solver/projected_gradient.h"
#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

/// A column evaluator seen through one target's derate factor `d`: value
/// and gradient divided by d (unchanged at d >= 1), both zero when d <= 0.
class DeratedColumnEvaluator final : public ColumnEvaluator {
 public:
  DeratedColumnEvaluator(std::unique_ptr<ColumnEvaluator> inner, double d)
      : inner_(std::move(inner)), d_(d) {}

  double EvaluateWithGradient(const Layout& layout, double* grad) override {
    if (d_ <= 0.0) {
      std::fill(grad, grad + layout.num_objects(), 0.0);
      return 0.0;
    }
    const double u = inner_->EvaluateWithGradient(layout, grad);
    if (d_ >= 1.0) return u;
    for (int i = 0; i < layout.num_objects(); ++i) grad[i] /= d_;
    return u / d_;
  }

  int64_t interp_queries() const override { return inner_->interp_queries(); }

 private:
  std::unique_ptr<ColumnEvaluator> inner_;
  double d_;
};

}  // namespace

void ApplyTargetDerate(const std::vector<double>& derate,
                       LayoutNlpProblem* nlp) {
  LDB_CHECK_EQ(derate.size(), static_cast<size_t>(nlp->num_targets));
  auto base = std::move(nlp->target_utilization);
  nlp->target_utilization = [base, derate](const Layout& l, int j) {
    const double d = derate[static_cast<size_t>(j)];
    if (d <= 0.0) return 0.0;
    const double u = base(l, j);
    return d >= 1.0 ? u : u / d;
  };
  auto make = std::move(nlp->make_column_eval);
  nlp->make_column_eval =
      [make, derate](int j) -> std::unique_ptr<ColumnEvaluator> {
    std::unique_ptr<ColumnEvaluator> inner = make(j);
    if (inner == nullptr) return nullptr;
    return std::make_unique<DeratedColumnEvaluator>(
        std::move(inner), derate[static_cast<size_t>(j)]);
  };
}

bool TargetHealth::AllHealthy() const {
  for (double d : derate) {
    if (d < 1.0 - 1e-12) return false;
  }
  return true;
}

Status TargetHealth::Validate(int num_targets) const {
  if (derate.size() != static_cast<size_t>(num_targets)) {
    return Status::InvalidArgument("health dimensions mismatch problem");
  }
  for (size_t j = 0; j < derate.size(); ++j) {
    if (!(derate[j] >= 0.0 && derate[j] <= 1.0)) {
      return Status::InvalidArgument(StrFormat(
          "derate[%d]=%.3f outside [0,1]", static_cast<int>(j), derate[j]));
    }
  }
  return Status::Ok();
}

TargetHealth HealthFromFaultPlan(const FaultPlan& plan,
                                 const std::vector<AdvisorTarget>& targets) {
  const int m = static_cast<int>(targets.size());
  TargetHealth health = TargetHealth::Healthy(m);

  // Replay the plan in time order, tracking per-member end states; only
  // sticky conditions (duration == 0, never recovered/rebuilt) survive
  // into the health picture.
  struct MemberEnd {
    bool dead = false;
    double scale = 1.0;
    double prob = 0.0;
  };
  std::vector<std::vector<MemberEnd>> members(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    members[static_cast<size_t>(j)].resize(
        static_cast<size_t>(std::max(1, targets[static_cast<size_t>(j)]
                                            .num_members)));
  }
  std::vector<const FaultSpec*> order;
  order.reserve(plan.faults.size());
  for (const FaultSpec& f : plan.faults) order.push_back(&f);
  std::stable_sort(order.begin(), order.end(),
                   [](const FaultSpec* a, const FaultSpec* b) {
                     return a->time < b->time;
                   });
  for (const FaultSpec* f : order) {
    if (f->target < 0 || f->target >= m) continue;
    auto& group = members[static_cast<size_t>(f->target)];
    if (f->member < 0 || f->member >= static_cast<int>(group.size())) {
      continue;
    }
    MemberEnd& me = group[static_cast<size_t>(f->member)];
    switch (f->kind) {
      case FaultKind::kFailStop:
        me.dead = true;
        break;
      case FaultKind::kLimp:
        if (f->duration <= 0.0) me.scale = f->latency_scale;
        break;
      case FaultKind::kTransient:
        if (f->duration <= 0.0) me.prob = f->error_prob;
        break;
      case FaultKind::kRebuild:
      case FaultKind::kRecover:
        me = MemberEnd{};
        break;
    }
  }

  for (int j = 0; j < m; ++j) {
    const auto& group = members[static_cast<size_t>(j)];
    const int k = static_cast<int>(group.size());
    int dead = 0;
    double alive_fraction = 0.0;  // Σ over live members of their remaining
                                  // service rate, relative to one healthy
    for (const MemberEnd& me : group) {
      if (me.dead) {
        ++dead;
        continue;
      }
      alive_fraction += (1.0 / me.scale) * (1.0 - me.prob);
    }
    const RaidLevel level = targets[static_cast<size_t>(j)].raid_level;
    bool failed = false;
    switch (level) {
      case RaidLevel::kRaid0:
        failed = dead > 0;
        break;
      case RaidLevel::kRaid1:
        failed = dead >= k;
        break;
      case RaidLevel::kRaid5:
        failed = dead >= 2;
        break;
    }
    if (failed) {
      health.MarkFailed(j);
      continue;
    }
    double derate = alive_fraction / static_cast<double>(k);
    if (level == RaidLevel::kRaid5 && dead == 1) {
      // Degraded RAID5 reconstructs reads from every survivor: roughly
      // half the group's effective throughput remains.
      derate *= 0.5;
    }
    health.derate[static_cast<size_t>(j)] =
        std::min(1.0, std::max(derate, 1e-6));
  }
  return health;
}

namespace {

/// Row i of `layout` is regular over exactly `targets` within `tol`: every
/// listed fraction equals 1/k up to tol (TargetsOf already excluded the
/// sub-tol rest).
bool RowIsRegular(const Layout& layout, int i, const std::vector<int>& targets,
                  double tol) {
  if (targets.empty()) return false;
  const double share = 1.0 / static_cast<double>(targets.size());
  for (int j : targets) {
    if (std::fabs(layout.At(i, j) - share) > tol) return false;
  }
  return true;
}

}  // namespace

MigrationPlan PriceMigration(const LayoutProblem& problem, const Layout& from,
                             const Layout& to) {
  constexpr double tol = kLayoutZeroTolerance;
  MigrationPlan plan;
  const int n = problem.num_objects();
  const int m = problem.num_targets();
  plan.moved_in_bytes.assign(static_cast<size_t>(n),
                             std::vector<double>(static_cast<size_t>(m),
                                                 0.0));
  for (int i = 0; i < n; ++i) {
    const double s =
        static_cast<double>(problem.object_sizes[static_cast<size_t>(i)]);
    // Regular rows are priced on the exact 1/k fractions their target sets
    // imply; fraction values within tol of 1/k are solver noise, not
    // movement.
    const std::vector<int> from_targets = from.TargetsOf(i, tol);
    const std::vector<int> to_targets = to.TargetsOf(i, tol);
    const bool regular = RowIsRegular(from, i, from_targets, tol) &&
                         RowIsRegular(to, i, to_targets, tol);
    bool moved = false;
    if (regular) {
      if (from_targets != to_targets) {
        moved = true;
        const double to_fraction =
            1.0 / static_cast<double>(to_targets.size());
        const double from_fraction =
            1.0 / static_cast<double>(from_targets.size());
        for (int j : to_targets) {
          const bool was_on =
              std::find(from_targets.begin(), from_targets.end(), j) !=
              from_targets.end();
          const double delta = to_fraction - (was_on ? from_fraction : 0.0);
          if (delta > 0.0) {
            const double bytes = delta * s;
            plan.moved_in_bytes[static_cast<size_t>(i)]
                               [static_cast<size_t>(j)] = bytes;
            plan.total_bytes += bytes;
          }
        }
      }
    } else {
      for (int j = 0; j < m; ++j) {
        const double delta = to.At(i, j) - from.At(i, j);
        if (delta > tol) {
          const double bytes = delta * s;
          plan.moved_in_bytes[static_cast<size_t>(i)][static_cast<size_t>(j)] =
              bytes;
          plan.total_bytes += bytes;
        }
        if (std::fabs(delta) > tol) moved = true;
      }
    }
    if (moved) ++plan.objects_moved;
  }
  return plan;
}

Result<ReplanResult> ReplanAfterFailure(const LayoutProblem& problem,
                                        const Layout& current,
                                        const TargetHealth& health,
                                        const ReplanOptions& options) {
  LDB_RETURN_IF_ERROR(problem.Validate());
  const int n = problem.num_objects();
  const int m = problem.num_targets();
  if (current.num_objects() != n || current.num_targets() != m) {
    return Status::InvalidArgument("layout dimensions mismatch problem");
  }
  LDB_RETURN_IF_ERROR(health.Validate(m));
  if (!current.SatisfiesIntegrity()) {
    return Status::InvalidArgument("current layout rows must sum to 1");
  }
  if (!current.IsRegular()) {
    return Status::InvalidArgument("current layout must be regular");
  }

  const TargetModel model = problem.MakeTargetModel();
  constexpr double tol = kLayoutZeroTolerance;

  // Healthy input: guaranteed no-op — the differential baseline.
  if (health.AllHealthy()) {
    ReplanResult result;
    result.layout = current;
    result.migration = PriceMigration(problem, current, current);
    const std::vector<double> mu =
        model.Utilizations(problem.workloads, current);
    result.max_utilization = *std::max_element(mu.begin(), mu.end());
    result.previous_max_utilization = result.max_utilization;
    result.replanned = false;
    return result;
  }

  // The degraded problem: same objects and targets, but every object's
  // allowed-target set excludes failed targets, and candidate ranking is
  // derated. Keeping failed targets in the matrix (at zero) keeps
  // dimensions stable for the caller.
  std::vector<int> alive;
  for (int j = 0; j < m; ++j) {
    if (!health.IsFailed(j)) alive.push_back(j);
  }
  if (alive.empty()) {
    return Status::Infeasible("every target failed; nothing to replan onto");
  }
  {
    int64_t total_size = 0;
    for (int64_t s : problem.object_sizes) total_size += s;
    int64_t alive_capacity = 0;
    for (int j : alive) {
      alive_capacity +=
          problem.targets[static_cast<size_t>(j)].capacity_bytes;
    }
    if (total_size > alive_capacity) {
      return Status::Infeasible(
          StrFormat("surviving capacity %lld < data size %lld",
                    static_cast<long long>(alive_capacity),
                    static_cast<long long>(total_size)));
    }
  }
  LayoutProblem degraded = problem;
  {
    std::vector<std::vector<int>> allowed(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::vector<int>& base = problem.constraints.AllowedFor(i);
      std::vector<int>& out = allowed[static_cast<size_t>(i)];
      for (int j : alive) {
        if (!base.empty() &&
            std::find(base.begin(), base.end(), j) == base.end()) {
          continue;
        }
        out.push_back(j);
      }
      if (out.empty()) {
        return Status::Infeasible(StrFormat(
            "object %s has no surviving allowed target",
            problem.object_names[static_cast<size_t>(i)].c_str()));
      }
    }
    degraded.constraints.allowed_targets = std::move(allowed);
  }
  RegularizerOptions ropts = options.regularize;
  ropts.target_derate = health.derate;

  // Partition rows: displaced (mass on a failed target — must move),
  // eligible (mass on a derated target — may move if it helps), frozen
  // (everything else — never moves). Displaced and eligible rows are
  // movable.
  std::vector<int> displaced;
  std::vector<int> movable;
  std::vector<char> is_displaced(static_cast<size_t>(n), 0);
  std::vector<char> is_eligible(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      if (current.At(i, j) <= tol) continue;
      if (health.IsFailed(j)) {
        is_displaced[static_cast<size_t>(i)] = 1;
      } else if (health.derate[static_cast<size_t>(j)] < 1.0 - 1e-12) {
        is_eligible[static_cast<size_t>(i)] = 1;
      }
    }
    if (is_displaced[static_cast<size_t>(i)]) displaced.push_back(i);
    if (is_displaced[static_cast<size_t>(i)] ||
        is_eligible[static_cast<size_t>(i)]) {
      movable.push_back(i);
    }
  }

  // Displaced rows start empty; the pricer is built on that layout.
  CandidatePricer pricer = [&] {
    Layout emptied = current;
    for (int i : displaced) {
      for (int j = 0; j < m; ++j) emptied.Set(i, j, 0.0);
    }
    return CandidatePricer(&degraded, &model, std::move(emptied));
  }();
  // Every row but the displaced ones keeps its targets unless a refinement
  // move happens to pay, so it must already honor the policy. A deployed
  // layout need not (the autopilot migrates to one that does), hence an
  // error here rather than the layout check below.
  if (const int bad = degraded.constraints.FirstViolation(pricer.layout());
      bad >= 0) {
    return Status::InvalidArgument(StrFormat(
        "object %s breaks a pin or separation in the current layout; "
        "replan re-places only rows on failed targets",
        problem.object_names[static_cast<size_t>(bad)].c_str()));
  }

  // Displaced objects re-enter by decreasing request rate (the ordering
  // the initial-layout heuristic uses).
  std::stable_sort(displaced.begin(), displaced.end(), [&](int a, int b) {
    return problem.workloads[static_cast<size_t>(a)].total_rate() >
           problem.workloads[static_cast<size_t>(b)].total_rate();
  });

  // Place the displaced rows, then refine the movable rows only: displaced
  // rows may settle better once all are placed, and rows on derated
  // targets may escape them. Frozen rows are never revisited.
  const int stuck = RelayoutRows(ropts, &pricer, displaced, movable,
                                 kReplanImprovementMargin);
  if (stuck >= 0) {
    return Status::Infeasible(StrFormat(
        "no surviving placement for object %s; re-run the full advisor",
        problem.object_names[static_cast<size_t>(stuck)].c_str()));
  }

  // Warm-started solver polish: re-optimize the displaced rows only (all
  // surviving rows frozen), under the derated objective, then
  // re-regularize the displaced rows. Kept only on strict improvement.
  if (!displaced.empty() && displaced.size() < static_cast<size_t>(n)) {
    LayoutNlpProblem nlp = degraded.MakeNlp(&model);
    nlp.frozen_rows.assign(static_cast<size_t>(n), 1);
    for (int i : displaced) nlp.frozen_rows[static_cast<size_t>(i)] = 0;
    ApplyTargetDerate(ropts.target_derate, &nlp);

    ProjectedGradientSolver solver(options.solver);
    Result<SolverResult> polished = solver.Solve(nlp, pricer.layout());
    if (polished.ok()) {
      CandidatePricer candidate(&degraded, &model, polished->layout);
      if (RelayoutRows(ropts, &candidate, displaced, {},
                       kReplanImprovementMargin) < 0 &&
          MaxEffectiveUtilization(ropts, candidate.mu()) <
              MaxEffectiveUtilization(ropts, pricer.mu()) -
                  kReplanImprovementMargin &&
          candidate.layout().SatisfiesCapacity(problem.object_sizes,
                                               problem.capacities()) &&
          degraded.constraints.SatisfiedBy(candidate.layout())) {
        pricer = std::move(candidate);
      }
    }
  }
  const Layout& layout = pricer.layout();

  // Structural guarantees the property tests lean on.
  LDB_CHECK(layout.SatisfiesIntegrity());
  LDB_CHECK(layout.IsRegular());
  LDB_CHECK(
      layout.SatisfiesCapacity(problem.object_sizes, problem.capacities()));
  LDB_CHECK(degraded.constraints.SatisfiedBy(layout));
  for (int i = 0; i < n; ++i) {
    if (!is_displaced[static_cast<size_t>(i)] &&
        !is_eligible[static_cast<size_t>(i)]) {
      for (int j = 0; j < m; ++j) {
        LDB_CHECK_MSG(layout.At(i, j) == current.At(i, j),
                      "frozen row %d moved", i);
      }
    }
    for (int j = 0; j < m; ++j) {
      if (health.IsFailed(j)) LDB_CHECK_MSG(layout.At(i, j) == 0.0,
                                            "mass left on failed target %d",
                                            j);
    }
  }

  ReplanResult result;
  result.layout = layout;
  result.migration = PriceMigration(problem, current, layout);
  result.max_utilization = MaxEffectiveUtilization(ropts, pricer.mu());
  {
    const std::vector<double> prev_mu =
        model.Utilizations(problem.workloads, current);
    double prev = 0.0;
    bool on_failed = false;
    for (int j = 0; j < m; ++j) {
      if (health.IsFailed(j)) {
        for (int i = 0; i < n; ++i) {
          if (current.At(i, j) > tol) on_failed = true;
        }
        continue;
      }
      prev = std::max(prev, EffectiveTargetUtilization(
                                ropts, prev_mu[static_cast<size_t>(j)], j));
    }
    result.previous_max_utilization =
        on_failed ? std::numeric_limits<double>::infinity() : prev;
  }
  result.replanned = true;
  return result;
}

}  // namespace ldb
