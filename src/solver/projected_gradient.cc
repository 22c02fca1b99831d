#include "solver/projected_gradient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "solver/simplex.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ldb {

namespace {

// Line search and annealing schedule constants.
constexpr double kInitialStep = 0.25;   // first trial step length
constexpr double kArmijoC = 1e-4;       // sufficient-decrease coefficient
constexpr double kBacktrack = 0.5;      // step shrink factor
constexpr int kMaxBacktracks = 25;
// Convergence test: a round ends once kMoveWindow steps together have moved
// no layout entry by kMoveTolerance (a fraction of its object) or more.
constexpr int kMoveWindow = 5;
constexpr double kMoveTolerance = 3e-3;
constexpr double kPenalty0 = 10.0;      // initial capacity-violation weight
constexpr double kPenaltyGrowth = 4.0;  // penalty multiplier per round

/// Monotonic nanoseconds for the per-phase profiling counters. Timings are
/// observability only — they never feed back into the optimization, so the
/// solve stays deterministic.
int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ValidateProblem(const LayoutNlpProblem& p, const Layout& initial) {
  if (p.num_objects <= 0 || p.num_targets <= 0) {
    return Status::InvalidArgument("problem dimensions must be positive");
  }
  if (p.object_sizes.size() != static_cast<size_t>(p.num_objects) ||
      p.target_capacities.size() != static_cast<size_t>(p.num_targets)) {
    return Status::InvalidArgument("sizes/capacities dimension mismatch");
  }
  for (int64_t s : p.object_sizes) {
    if (s <= 0) return Status::InvalidArgument("object sizes must be > 0");
  }
  for (int64_t c : p.target_capacities) {
    if (c <= 0) return Status::InvalidArgument("capacities must be > 0");
  }
  if (!p.make_column_eval) {
    return Status::InvalidArgument("make_column_eval factory required");
  }
  if (initial.num_objects() != p.num_objects ||
      initial.num_targets() != p.num_targets) {
    return Status::InvalidArgument("initial layout dimension mismatch");
  }
  if (!p.frozen_rows.empty() &&
      p.frozen_rows.size() != static_cast<size_t>(p.num_objects)) {
    return Status::InvalidArgument("frozen_rows dimension mismatch");
  }
  return p.constraints.Validate(p.num_objects, p.num_targets);
}

/// True when row i is frozen: kept verbatim from the initial layout.
bool RowFrozen(const LayoutNlpProblem& p, int i) {
  return !p.frozen_rows.empty() &&
         p.frozen_rows[static_cast<size_t>(i)] != 0;
}

/// Quadratic separation penalty: sum over constrained pairs of the
/// pairwise co-location mass Σ_j L_aj * L_bj.
double SeparationPenalty(const LayoutNlpProblem& p, const Layout& layout) {
  double total = 0.0;
  for (const auto& [a, b] : p.constraints.separate) {
    for (int j = 0; j < p.num_targets; ++j) {
      total += layout.At(a, j) * layout.At(b, j);
    }
  }
  return total;
}

/// Working evaluation state for one candidate layout: cached per-target
/// utilizations and their gradients, assigned bytes, the capacity-penalty
/// sum and the separation penalty. Every refresh is one
/// fused value+gradient pass per column, leaving ∂µ_j/∂L_·j in dmu() — the
/// gradient of the step that starts from this layout. Refresh runs its
/// per-column work on the pool when one is given; every reduction stays
/// serial so results are thread-count invariant.
class Evaluator {
 public:
  /// `contexts` holds one column evaluator per target. Each refresh adds
  /// its column passes to `pass_counter`.
  Evaluator(const LayoutNlpProblem& p, ThreadPool* pool,
            std::vector<std::unique_ptr<ColumnEvaluator>> contexts,
            int64_t* pass_counter)
      : p_(p),
        pool_(pool),
        pass_counter_(pass_counter),
        contexts_(std::move(contexts)) {
    dmu_.resize(static_cast<size_t>(p.num_objects) *
                static_cast<size_t>(p.num_targets));
    partners_.resize(static_cast<size_t>(p.num_objects));
    for (const auto& [a, b] : p.constraints.separate) {
      partners_[static_cast<size_t>(a)].push_back(b);
      partners_[static_cast<size_t>(b)].push_back(a);
    }
  }

  /// Fully (re)computes caches for `layout`. Column passes fan out over
  /// the pool; each writes its own µ slot and its own column-major dmu
  /// span.
  void Refresh(const Layout& layout) {
    const int m = p_.num_targets;
    const size_t un = static_cast<size_t>(p_.num_objects);
    mu_.resize(static_cast<size_t>(m));
    auto column = [&](int, int64_t j) {
      const size_t uj = static_cast<size_t>(j);
      mu_[uj] = contexts_[uj]->EvaluateWithGradient(layout, &dmu_[uj * un]);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(m, column);
    } else {
      for (int j = 0; j < m; ++j) column(0, j);
    }
    *pass_counter_ += m;

    bytes_.assign(static_cast<size_t>(m), 0.0);
    for (int i = 0; i < p_.num_objects; ++i) {
      const double s =
          static_cast<double>(p_.object_sizes[static_cast<size_t>(i)]);
      for (int j = 0; j < m; ++j) {
        bytes_[static_cast<size_t>(j)] += layout.At(i, j) * s;
      }
    }
    penalty_sum_ = 0.0;
    for (int j = 0; j < m; ++j) {
      penalty_sum_ += CapacityTerm(j, bytes_[static_cast<size_t>(j)]);
    }
    separation_ = SeparationPenalty(p_, layout);
  }

  /// Composite objective from the current caches.
  double Objective(double temp, double penalty) const {
    return SmoothMax(mu_.data(), mu_.size(), temp) +
           penalty * (penalty_sum_ + separation_);
  }

  /// Relative-overflow penalty term of one target.
  double CapacityTerm(int j, double bytes) const {
    const double cap =
        static_cast<double>(p_.target_capacities[static_cast<size_t>(j)]);
    const double over = (bytes - cap) / cap;
    return over > 0.0 ? over * over : 0.0;
  }

  /// Co-located separation-partner mass of object i on target j — the
  /// linear coefficient of the separation penalty in L_ij.
  double PartnerMass(int i, int j, const Layout& layout) const {
    double total = 0.0;
    for (int partner : partners_[static_cast<size_t>(i)]) {
      total += layout.At(partner, j);
    }
    return total;
  }

  /// Takes over another evaluator's caches, gradient included, by
  /// swapping buffers. Valid because a column pass is a pure function of
  /// its layout (a column evaluator's lookup memo only skips work): the
  /// line search just priced the accepted trial layout — value and
  /// gradient — so the step needs no further column pass. `o` is left
  /// with this evaluator's stale buffers, which its next Refresh
  /// overwrites.
  void AdoptState(Evaluator* o) {
    mu_.swap(o->mu_);
    dmu_.swap(o->dmu_);
    bytes_.swap(o->bytes_);
    penalty_sum_ = o->penalty_sum_;
    separation_ = o->separation_;
  }

  /// Interpolator queries issued by this evaluator's column kernels,
  /// summed serially in column order.
  int64_t TotalInterpQueries() const {
    int64_t total = 0;
    for (const auto& ctx : contexts_) total += ctx->interp_queries();
    return total;
  }

  double TrueMax() const { return *std::max_element(mu_.begin(), mu_.end()); }
  const std::vector<double>& mu() const { return mu_; }
  /// ∂µ_j/∂L_ij of the last refresh at [j·N + i].
  const std::vector<double>& dmu() const { return dmu_; }
  double bytes(int j) const { return bytes_[static_cast<size_t>(j)]; }

 private:
  const LayoutNlpProblem& p_;
  ThreadPool* pool_;
  int64_t* pass_counter_;
  std::vector<std::unique_ptr<ColumnEvaluator>> contexts_;
  std::vector<std::vector<int>> partners_;
  std::vector<double> mu_;
  std::vector<double> dmu_;  // column-major N x M
  std::vector<double> bytes_;
  double penalty_sum_ = 0.0;
  double separation_ = 0.0;
};

/// Largest change of any one entry between two layouts of equal shape.
double MaxEntryChange(const Layout& a, const Layout& b) {
  double change = 0.0;
  for (int i = 0; i < a.num_objects(); ++i) {
    const double* ra = a.Row(i);
    const double* rb = b.Row(i);
    for (int j = 0; j < a.num_targets(); ++j) {
      change = std::max(change, std::fabs(ra[j] - rb[j]));
    }
  }
  return change;
}

/// Greedy feasibility repair: shifts fractions of objects off over-full
/// targets onto targets with free bytes. Used when the penalty method
/// leaves a small residual violation.
void RepairCapacity(const LayoutNlpProblem& p, Layout* layout) {
  const int n = p.num_objects;
  const int m = p.num_targets;
  std::vector<double> bytes(static_cast<size_t>(m));
  for (int pass = 0; pass < 4 * m; ++pass) {
    std::fill(bytes.begin(), bytes.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      const double s =
          static_cast<double>(p.object_sizes[static_cast<size_t>(i)]);
      for (int j = 0; j < m; ++j) {
        bytes[static_cast<size_t>(j)] += layout->At(i, j) * s;
      }
    }
    // Most over-full target.
    int worst = -1;
    double worst_over = 0.0;
    for (int j = 0; j < m; ++j) {
      const double over =
          bytes[static_cast<size_t>(j)] -
          static_cast<double>(p.target_capacities[static_cast<size_t>(j)]);
      if (over > worst_over) {
        worst_over = over;
        worst = j;
      }
    }
    if (worst < 0) return;  // feasible

    // Donor object and receiver target: the donor with the largest byte
    // footprint on the over-full target that has an allowed target with
    // free space to move to.
    int donor = -1;
    int dest = -1;
    double donor_bytes = 0.0;
    double best_free = 0.0;
    for (int i = 0; i < n; ++i) {
      if (RowFrozen(p, i)) continue;  // frozen rows never donate
      const double b =
          layout->At(i, worst) *
          static_cast<double>(p.object_sizes[static_cast<size_t>(i)]);
      if (b <= donor_bytes) continue;
      const std::vector<int>& allowed = p.constraints.AllowedFor(i);
      int candidate_dest = -1;
      double candidate_free = 0.0;
      for (int j = 0; j < m; ++j) {
        if (j == worst) continue;
        if (!allowed.empty() &&
            std::find(allowed.begin(), allowed.end(), j) == allowed.end()) {
          continue;
        }
        const double free = static_cast<double>(
                                p.target_capacities[static_cast<size_t>(j)]) -
                            bytes[static_cast<size_t>(j)];
        if (free > candidate_free) {
          candidate_free = free;
          candidate_dest = j;
        }
      }
      if (candidate_dest < 0) continue;
      donor = i;
      donor_bytes = b;
      dest = candidate_dest;
      best_free = candidate_free;
    }
    if (donor < 0 || dest < 0) return;  // nowhere to move (caller sees flag)
    const double si =
        static_cast<double>(p.object_sizes[static_cast<size_t>(donor)]);
    // Overshoot slightly: per-entry byte accounting rounds up, so landing
    // exactly on the capacity boundary would still register as a violation.
    const double margin = static_cast<double>(n + 1);
    const double move_bytes =
        std::min({worst_over + margin, best_free, donor_bytes});
    const double delta = move_bytes / si;
    layout->Set(donor, worst, layout->At(donor, worst) - delta);
    layout->Set(donor, dest, layout->At(donor, dest) + delta);
  }
}

}  // namespace

void ProjectRowConstrained(const LayoutNlpProblem& p, int i, double* row,
                           std::vector<double>* sub_scratch,
                           std::vector<double>* sort_scratch) {
  const std::vector<int>& allowed = p.constraints.AllowedFor(i);
  if (allowed.empty()) {
    ProjectToSimplex(row, static_cast<size_t>(p.num_targets), 1.0,
                     sort_scratch);
    return;
  }
  std::vector<double>& sub = *sub_scratch;
  sub.clear();
  for (int j : allowed) sub.push_back(row[j]);
  ProjectToSimplex(sub.data(), sub.size(), 1.0, sort_scratch);
  for (int j = 0; j < p.num_targets; ++j) row[j] = 0.0;
  for (size_t k = 0; k < allowed.size(); ++k) {
    row[allowed[k]] = sub[k];
  }
}

ProjectedGradientSolver::ProjectedGradientSolver(SolverOptions options)
    : options_(options) {}

Result<SolverResult> ProjectedGradientSolver::Solve(
    const LayoutNlpProblem& problem, const Layout& initial,
    const std::vector<double>& rival) const {
  LDB_RETURN_IF_ERROR(ValidateProblem(problem, initial));
  const int n = problem.num_objects;
  const int m = problem.num_targets;

  const int threads = ThreadPool::EffectiveThreads(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  SolverResult result;
  result.layout = initial;
  // Project the seed onto the feasible (integrity + allowed-target) set.
  // Frozen rows are trusted as-is: they come from the surviving layout.
  std::vector<double> sub_scratch, sort_scratch;
  for (int i = 0; i < n; ++i) {
    if (RowFrozen(problem, i)) continue;
    ProjectRowConstrained(problem, i, result.layout.Row(i), &sub_scratch,
                          &sort_scratch);
  }

  // One evaluator per column for the accepted iterate and one set for the
  // line-search trials, so a trial can be adopted without another pass.
  std::vector<std::unique_ptr<ColumnEvaluator>> contexts;
  std::vector<std::unique_ptr<ColumnEvaluator>> trial_contexts;
  for (int j = 0; j < m; ++j) {
    contexts.push_back(problem.make_column_eval(j));
    trial_contexts.push_back(problem.make_column_eval(j));
    if (contexts.back() == nullptr || trial_contexts.back() == nullptr) {
      return Status::InvalidArgument(
          StrFormat("make_column_eval returned null for target %d", j));
    }
  }

  Evaluator eval(problem, pool.get(), std::move(contexts),
                 &result.gradient_evaluations);
  {
    const int64_t t0 = NowNanos();
    eval.Refresh(result.layout);
    result.profile.refresh.calls += 1;
    result.profile.refresh.ns += NowNanos() - t0;
  }
  // Line-search evaluator: each trial's fused passes also price the
  // gradient the next step needs if the trial is accepted.
  Evaluator trial_eval(problem, pool.get(), std::move(trial_contexts),
                       &result.gradient_evaluations);

  Layout& x = result.layout;
  std::vector<double> grad(static_cast<size_t>(n) * static_cast<size_t>(m));
  // Gradient composition scratch: SmoothMax weights and capacity-penalty
  // slopes.
  std::vector<double> smw(static_cast<size_t>(m));
  std::vector<double> dcap(static_cast<size_t>(m));
  Layout trial(n, m);
  double step = kInitialStep;

  SeedTrajectory& trajectory = result.seeds.emplace_back();
  const int rounds = options_.annealing_rounds;
  double temp = options_.smoothmax_t0;
  double penalty = kPenalty0;
  for (int round = 0; round < rounds; ++round) {
    double f = eval.Objective(temp, penalty);
    // The layout at the start of the current convergence window.
    Layout anchor = x;
    const int first_iteration = result.iterations;
    for (int iter = 0; iter < options_.max_iterations_per_round; ++iter) {
      ++result.iterations;

      const int64_t grad_t0 = NowNanos();
      // ∂µ_j/∂L_·j was priced by the fused pass that priced x itself (the
      // seed refresh or the accepted line-search trial), one disjoint
      // span per column. The SmoothMax and penalty compositions are
      // chain-ruled serially in index order, so the gradient is
      // bit-identical for every thread count.
      const std::vector<double>& dmu = eval.dmu();
      // ∂SmoothMax/∂µ_j = softmax weight of µ_j at the current
      // temperature (see simplex.h: F = vmax + log Σ exp(t(µ−vmax))/t).
      const std::vector<double>& mu = eval.mu();
      double vmax = mu[0];
      for (double v : mu) vmax = std::max(vmax, v);
      double wsum = 0.0;
      for (int j = 0; j < m; ++j) {
        const size_t uj = static_cast<size_t>(j);
        smw[uj] = std::exp(temp * (mu[uj] - vmax));
        wsum += smw[uj];
      }
      for (int j = 0; j < m; ++j) smw[static_cast<size_t>(j)] /= wsum;
      // Capacity penalty max(0, over)² with over = (bytes−cap)/cap:
      // slope in bytes is 2·over/cap on over-full targets, 0 elsewhere
      // (0 is the valid subgradient at the kink).
      for (int j = 0; j < m; ++j) {
        const size_t uj = static_cast<size_t>(j);
        const double cap = static_cast<double>(
            problem.target_capacities[static_cast<size_t>(j)]);
        const double over = (eval.bytes(j) - cap) / cap;
        dcap[uj] = over > 0.0 ? 2.0 * over / cap : 0.0;
      }
      for (int i = 0; i < n; ++i) {
        double* grow = &grad[static_cast<size_t>(i) * static_cast<size_t>(m)];
        if (RowFrozen(problem, i)) {
          for (int j = 0; j < m; ++j) grow[j] = 0.0;
          continue;
        }
        const double si = static_cast<double>(
            problem.object_sizes[static_cast<size_t>(i)]);
        for (int j = 0; j < m; ++j) {
          const size_t uj = static_cast<size_t>(j);
          grow[j] = smw[uj] * dmu[uj * static_cast<size_t>(n) +
                                  static_cast<size_t>(i)] +
                    penalty * (dcap[uj] * si + eval.PartnerMass(i, j, x));
        }
      }
      result.profile.gradient.calls += 1;
      result.profile.gradient.ns += NowNanos() - grad_t0;
      // Serial reduction in index order: the gradient norm comes out
      // identical for every thread count.
      double grad_norm2 = 0.0;
      for (double g : grad) grad_norm2 += g * g;
      if (grad_norm2 < 1e-18) break;

      // Backtracking projected-gradient step.
      bool accepted = false;
      double alpha = step;
      const int64_t ls_t0 = NowNanos();
      for (int bt = 0; bt < kMaxBacktracks; ++bt) {
        trial = x;
        for (int i = 0; i < n; ++i) {
          if (RowFrozen(problem, i)) continue;
          double* row = trial.Row(i);
          const double* grow =
              &grad[static_cast<size_t>(i) * static_cast<size_t>(m)];
          for (int j = 0; j < m; ++j) row[j] -= alpha * grow[j];
          ProjectRowConstrained(problem, i, row, &sub_scratch, &sort_scratch);
        }
        trial_eval.Refresh(trial);
        result.profile.line_search.calls += 1;
        const double f_trial = trial_eval.Objective(temp, penalty);
        if (f_trial < f - kArmijoC * alpha * grad_norm2) {
          accepted = true;
          break;
        }
        alpha *= kBacktrack;
      }
      result.profile.line_search.ns += NowNanos() - ls_t0;
      if (!accepted) break;  // no descent direction at this temperature

      x = trial;
      {
        const int64_t rf_t0 = NowNanos();
        // trial_eval just priced the accepted layout, value and gradient,
        // with the same stateless fused kernels — adopt its caches instead
        // of paying another column pass.
        eval.AdoptState(&trial_eval);
        result.profile.refresh.calls += 1;
        result.profile.refresh.ns += NowNanos() - rf_t0;
      }
      f = eval.Objective(temp, penalty);
      step = std::min(kInitialStep, alpha * 2.0);
      // Every step that gets here was accepted, so iter + 1 counts them.
      if ((iter + 1) % kMoveWindow == 0) {
        if (MaxEntryChange(x, anchor) < kMoveTolerance) break;
        anchor = x;
      }
    }
    trajectory.round_steps.push_back(result.iterations - first_iteration);
    temp *= options_.smoothmax_growth;
    penalty *= kPenaltyGrowth;

    const double mu = eval.TrueMax();
    trajectory.round_max.push_back(mu);
    const size_t r = static_cast<size_t>(round);
    if (round >= kRaceFirstRound && r < rival.size() && mu > rival[r] &&
        mu - rival[r] > (trajectory.round_max[r - 1] - mu) *
                            static_cast<double>(rounds - 1 - round)) {
      trajectory.stopped_round = round;
      break;
    }
  }

  // Penalty methods can leave a small capacity violation; repair greedily.
  // A stopped seed is no candidate, so it skips the repair.
  if (!trajectory.stopped() &&
      !x.SatisfiesCapacity(problem.object_sizes, problem.target_capacities)) {
    RepairCapacity(problem, &x);
    eval.Refresh(x);
  }
  result.feasible =
      !trajectory.stopped() &&
      x.IsValid(problem.object_sizes, problem.target_capacities, 1e-6) &&
      problem.constraints.SatisfiedBy(x, /*tol=*/1e-3);
  result.max_utilization = eval.TrueMax();
  result.interp_queries =
      eval.TotalInterpQueries() + trial_eval.TotalInterpQueries();
  return result;
}

}  // namespace ldb
