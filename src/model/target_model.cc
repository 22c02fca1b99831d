#include "model/target_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace ldb {

namespace {

/// Rates below this are treated as "object not present on target".
constexpr double kRateEpsilon = 1e-12;

/// Stand-in for χ → ∞ when pricing the gradient of an absent object: as
/// its fraction leaves zero, a positive interference accumulator divided
/// by a vanishing own rate sends χ beyond any calibration axis, where
/// lookups clamp. Any value past the axis end prices that limit exactly.
constexpr double kClampedChi = 1e30;

}  // namespace

TargetModel::TargetModel(std::vector<TargetModelInfo> targets,
                         LvmLayoutModel layout_model)
    : targets_(std::move(targets)), layout_model_(layout_model) {
  LDB_CHECK(!targets_.empty());
  for (const TargetModelInfo& t : targets_) {
    LDB_CHECK(t.cost_model != nullptr);
    LDB_CHECK_GT(t.num_members, 0);
    LDB_CHECK_GT(t.stripe_bytes, 0);
  }
}

double TargetModel::TargetUtilizationInternal(
    const WorkloadSet& workloads, const Layout& layout, int j,
    std::vector<double>* mu_i) const {
  const size_t un = static_cast<size_t>(layout.num_objects());
  if (mu_i != nullptr) mu_i->assign(un, 0.0);

  // Pass 1: per-target workloads and on-target rates of every object.
  std::vector<PerTargetWorkload> per(un);
  std::vector<double> rates(un);
  for (size_t i = 0; i < un; ++i) {
    per[i] = layout_model_.Transform(
        workloads[i], std::max(0.0, layout.At(static_cast<int>(i), j)));
    rates[i] = per[i].total_rate();
  }

  // Pass 2: contention factors (Eq. 2) and utilizations (Eq. 1), summed in
  // object order. Absent objects price at 0, and x + 0.0 == x.
  double mu_j = 0.0;
  for (size_t i = 0; i < un; ++i) {
    const double mu_ij = ObjectUtilization(workloads, static_cast<int>(i), j,
                                           per[i], rates.data());
    if (mu_i != nullptr) (*mu_i)[i] = mu_ij;
    mu_j += mu_ij;
  }
  return mu_j;
}

double TargetModel::ObjectUtilization(const WorkloadSet& workloads, int i,
                                      int j, const PerTargetWorkload& wij,
                                      const double* rates) const {
  const double rate_ij = wij.total_rate();
  if (rate_ij <= kRateEpsilon) return 0.0;
  const WorkloadDesc& wi = workloads[static_cast<size_t>(i)];

  // χ_ij (Eq. 2): temporally-correlated competing requests per own
  // request, plus the self-overlap extension — an object's own concurrent
  // streams compete with each other wherever the object is placed, so the
  // fitted mean concurrent-request count is added directly (it does not
  // dilute with striping: the streams follow the object onto every
  // target).
  double interfering = 0.0;
  const size_t nnz = wi.overlap_index.size();
  for (size_t s = 0; s < nnz; ++s) {
    const int k = wi.overlap_index[s];
    if (k == i) continue;
    const double rate_kj = rates[k];
    if (rate_kj <= kRateEpsilon) continue;
    interfering += rate_kj * wi.overlap_value[s];
  }
  const double chi =
      interfering / rate_ij + wi.overlap_with(static_cast<size_t>(i));
  return PerObjectUtilization(targets_[static_cast<size_t>(j)], wij, chi);
}

double TargetModel::PerObjectUtilization(const TargetModelInfo& tgt,
                                         const PerTargetWorkload& wij,
                                         double chi) const {
  // Per-request member-busy-seconds, normalized by the member count so
  // the result is a utilization contribution.
  //
  // RAID0: a request of B bytes touches `involved` members, each
  // transferring ~B/involved: involved * Cost(B/involved) / k.
  // RAID1: reads land on one member (Cost(B)/k); writes go to every
  // member (k * Cost(B) / k = Cost(B)).
  // RAID5: reads stripe over the k-1 data members like RAID0; writes add
  // a parity read-modify-write (~2 extra chunk accesses per row).
  auto member_cost = [&](bool is_write, double size) {
    if (size <= 0.0) return 0.0;
    const double k = tgt.num_members;
    const double chunks =
        std::ceil(size / static_cast<double>(tgt.stripe_bytes));
    switch (tgt.raid_level) {
      case RaidLevel::kRaid1: {
        const double cost =
            tgt.cost_model->Cost(is_write, size, wij.run_count, chi);
        return is_write ? cost : cost / k;
      }
      case RaidLevel::kRaid5: {
        const double data_cols = std::max(1.0, k - 1);
        const double involved = std::min(data_cols, std::max(1.0, chunks));
        const double per_member_size = size / involved;
        double busy = involved * tgt.cost_model->Cost(is_write,
                                                      per_member_size,
                                                      wij.run_count, chi);
        if (is_write) {
          // Parity RMW: one read + one write of a chunk-sized extent on
          // the parity member per touched row.
          const double rows = std::max(1.0, chunks / data_cols);
          const double parity_size =
              std::min(size, static_cast<double>(tgt.stripe_bytes));
          busy += rows * (tgt.cost_model->Cost(false, parity_size,
                                               wij.run_count, chi) +
                          tgt.cost_model->Cost(true, parity_size,
                                               wij.run_count, chi));
        }
        return busy / k;
      }
      case RaidLevel::kRaid0:
        break;
    }
    const double involved = std::min(k, std::max(1.0, chunks));
    const double per_member_size = size / involved;
    return tgt.cost_model->Cost(is_write, per_member_size, wij.run_count,
                                chi) *
           involved / k;
  };
  return wij.read_rate * member_cost(false, wij.read_size) +
         wij.write_rate * member_cost(true, wij.write_size);
}

double TargetModel::TargetUtilization(const WorkloadSet& workloads,
                                      const Layout& layout, int j) const {
  LDB_CHECK_GE(j, 0);
  LDB_CHECK_LT(j, num_targets());
  LDB_CHECK_EQ(workloads.size(), static_cast<size_t>(layout.num_objects()));
  return TargetUtilizationInternal(workloads, layout, j, nullptr);
}

std::vector<double> TargetModel::Utilizations(
    const WorkloadSet& workloads, const Layout& layout,
    std::vector<double>* mu_ij) const {
  const int n = layout.num_objects();
  const int m = layout.num_targets();
  LDB_CHECK_EQ(m, num_targets());
  LDB_CHECK_EQ(workloads.size(), static_cast<size_t>(n));
  if (mu_ij != nullptr) {
    mu_ij->assign(static_cast<size_t>(n) * static_cast<size_t>(m), 0.0);
  }
  std::vector<double> mu(static_cast<size_t>(m), 0.0);
  std::vector<double> mu_i;
  for (int j = 0; j < m; ++j) {
    mu[static_cast<size_t>(j)] = TargetUtilizationInternal(
        workloads, layout, j, mu_ij != nullptr ? &mu_i : nullptr);
    if (mu_ij != nullptr) {
      for (int i = 0; i < n; ++i) {
        (*mu_ij)[static_cast<size_t>(i) * static_cast<size_t>(m) +
                 static_cast<size_t>(j)] = mu_i[static_cast<size_t>(i)];
      }
    }
  }
  return mu;
}

double TargetModel::MaxUtilization(const WorkloadSet& workloads,
                                   const Layout& layout) const {
  const std::vector<double> mu = Utilizations(workloads, layout);
  return *std::max_element(mu.begin(), mu.end());
}

namespace {

/// The fused value+gradient column kernel behind
/// TargetModel::MakeColumnEvaluator.
class TargetColumnContext final : public ColumnEvaluator {
 public:
  TargetColumnContext(const TargetModel* model, const WorkloadSet* workloads,
                      int j)
      : model_(model), workloads_(workloads), j_(j) {}

  // µ_j and its exact gradient in one pass over contiguous per-object arrays:
  //
  //   µ_j = Σ_i µ_ij,   µ_ij = λ^R_ij·mcR_i + λ^W_ij·mcW_i
  //
  // where each member cost mc is a fixed linear combination of cost-table
  // lookups at (size_i, run_i(f_i), χ_i) with sizes and coefficients
  // constant in the layout (precomputed once as a query template). The
  // total derivative w.r.t. the object's own fraction f_i = L_ij splits
  // into
  //
  //   ∂µ_j/∂f_i = λ^R_i·mcR_i + λ^W_i·mcW_i            (rates scale with f)
  //             + (∂µ_ij/∂run_i) · run_i'(f_i)          (run-count branch)
  //             + (∂µ_ij/∂χ_i) · (−I_i·λ_i/r_i²)        (own χ shift)
  //             + λ_i · Σ_{k≠i} (∂µ_kj/∂χ_k)·O_k[i]/r_k (cross χ shifts)
  //
  // with λ_i the object's total rate, r_i = λ_i·f_i its on-target rate and
  // I_i its interference accumulator. The cross sum over all i is one
  // transposed overlap-matrix·vector product — O(stored overlap entries),
  // the same work as the interference dots. Cost-table lookups run at
  // cells located once: request sizes per query template, run count and χ
  // per object. An object whose (run, χ) equals its last pass's prices no
  // lookup at all (LookupMemo).

  double EvaluateWithGradient(const Layout& layout, double* grad) override {
    return BatchedColumn(layout, grad);
  }

  int64_t interp_queries() const override { return queries_; }

 private:
  /// Caches every object's overlap diagonal O_i[i]. Workloads are fixed
  /// for a context's lifetime, so this runs once.
  void EnsureDiagonal(size_t un) {
    if (diag_.size() == un) return;
    diag_.resize(un);
    for (size_t i = 0; i < un; ++i) diag_[i] = (*workloads_)[i].overlap_with(i);
  }

  /// One cost-table lookup of an object's member-cost expression. Sizes
  /// and coefficients depend only on the workload and the target geometry,
  /// so the per-object lookup lists are templated once and reused by every
  /// batched pass.
  struct QueryTemplate {
    bool write_table;  ///< which cost table the lookup hits
    bool write_role;   ///< scaled by the write rate (else the read rate)
    /// Member request size, located on the tables' log2 size axis (sizes
    /// never change, so the transform and the search happen once here).
    CostModel::Cell size;
    double coef;  ///< member-cost coefficient (involved/k, rows/k, …)
  };

  /// Mirrors PerObjectUtilization's member_cost structure into per-object
  /// query templates (one flattened list, per-object spans in
  /// tmpl_begin_). Within a span the read-table lookups come first: member
  /// costs accumulate in that order.
  void BuildQueryTemplate(const TargetModelInfo& tgt, size_t un) {
    tmpl_.clear();
    tmpl_begin_.assign(un + 1, 0);
    const CostModel& cm = *tgt.cost_model;
    const double k = tgt.num_members;
    const double stripe = static_cast<double>(tgt.stripe_bytes);
    auto add = [&](bool write_table, bool write_role, double size,
                   double coef) {
      tmpl_.push_back(
          {write_table, write_role, cm.LocateLog2Size(std::log2(size)), coef});
    };
    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& w = (*workloads_)[i];
      for (int dir = 0; dir < 2; ++dir) {
        const bool write = dir == 1;
        const double rate = write ? w.write_rate : w.read_rate;
        const double size = write ? w.write_size : w.read_size;
        // A zero-rate direction multiplies out of the value and of every
        // gradient term; a zero-size request costs nothing (member_cost).
        if (rate <= 0.0 || size <= 0.0) continue;
        const double chunks = std::ceil(size / stripe);
        switch (tgt.raid_level) {
          case RaidLevel::kRaid1:
            add(write, write, size, write ? 1.0 : 1.0 / k);
            break;
          case RaidLevel::kRaid5: {
            const double data_cols = std::max(1.0, k - 1);
            const double involved = std::min(data_cols, std::max(1.0, chunks));
            add(write, write, size / involved, involved / k);
            if (write) {
              const double rows = std::max(1.0, chunks / data_cols);
              const double parity_size = std::min(size, stripe);
              add(false, true, parity_size, rows / k);
              add(true, true, parity_size, rows / k);
            }
            break;
          }
          case RaidLevel::kRaid0: {
            const double involved = std::min(k, std::max(1.0, chunks));
            add(write, write, size / involved, involved / k);
            break;
          }
        }
      }
      std::stable_partition(
          tmpl_.begin() + static_cast<std::ptrdiff_t>(tmpl_begin_[i]),
          tmpl_.end(), [](const QueryTemplate& t) { return !t.write_table; });
      tmpl_begin_[i + 1] = tmpl_.size();
    }
  }

  /// One object's member-cost sums at its last priced (run, χ), and the run
  /// cell last located for it. The sums are a function of (run, χ) alone —
  /// the query template and cost tables are fixed for the context's
  /// lifetime — so a pass whose inputs compare equal to the keys reuses
  /// them and gets the doubles a fresh lookup would compute. Keys start as
  /// NaN, which equals nothing (a NaN input always misses). The one pair of
  /// equal doubles with different bits, ±0, can only be a χ (run ≥ 1), and
  /// both clamp to the same cell at the contention axis front, which
  /// CostModel::Create holds at ≥ 0.
  ///
  /// The run cell has its own key: on a constant run-count branch χ moves
  /// every pass while run does not.
  struct LookupMemo {
    double run = std::numeric_limits<double>::quiet_NaN();
    double chi = std::numeric_limits<double>::quiet_NaN();
    double mc_read = 0.0, mc_write = 0.0;      ///< member costs
    double drun_read = 0.0, drun_write = 0.0;  ///< their ∂/∂run
    double dchi_read = 0.0, dchi_write = 0.0;  ///< their ∂/∂χ
    double cell_run = std::numeric_limits<double>::quiet_NaN();
    CostModel::Cell run_cell{};
  };

  /// Prices object i's query template at (run, χ) into `m`, unless `m`
  /// already holds that point.
  void PriceObject(const CostModel& cm, size_t i, double run, double chi,
                   LookupMemo* m) {
    if (run == m->run && chi == m->chi) return;
    if (run != m->cell_run) {
      m->run_cell = cm.LocateLog2Run(std::log2(run));
      m->cell_run = run;
    }
    const CostModel::Cell chi_cell = cm.LocateChi(chi);
    const double run_scale = run * CostModel::kLn2;
    double mc_read = 0.0, mc_write = 0.0;
    double drun_read = 0.0, drun_write = 0.0;
    double dchi_read = 0.0, dchi_write = 0.0;
    const size_t q_end = tmpl_begin_[i + 1];
    queries_ += static_cast<int64_t>(q_end - tmpl_begin_[i]);
    for (size_t q = tmpl_begin_[i]; q < q_end; ++q) {
      const QueryTemplate& t = tmpl_[q];
      double g[3];
      const double cost =
          cm.table(t.write_table).ValueGrad3(t.size, m->run_cell, chi_cell, g);
      const double d_run = g[1] / run_scale;
      if (t.write_role) {
        mc_write += t.coef * cost;
        drun_write += t.coef * d_run;
        dchi_write += t.coef * g[2];
      } else {
        mc_read += t.coef * cost;
        drun_read += t.coef * d_run;
        dchi_read += t.coef * g[2];
      }
    }
    m->run = run;
    m->chi = chi;
    m->mc_read = mc_read;
    m->mc_write = mc_write;
    m->drun_read = drun_read;
    m->drun_write = drun_write;
    m->dchi_read = dchi_read;
    m->dchi_write = dchi_write;
  }

  /// The batched kernel: returns µ_j(layout) and fills grad[i] =
  /// ∂µ_j/∂L_ij.
  double BatchedColumn(const Layout& layout, double* grad) {
    const int n = layout.num_objects();
    const size_t un = static_cast<size_t>(n);
    const TargetModelInfo& tgt = model_->target_info(j_);
    EnsureDiagonal(un);
    if (tmpl_begin_.size() != un + 1) {
      BuildQueryTemplate(tgt, un);
      memo_.assign(un, LookupMemo{});
    }

    bper_.resize(un);
    bfrac_.resize(un);
    brate_.resize(un);
    binterf_.resize(un);
    for (size_t i = 0; i < un; ++i) {
      bfrac_[i] = std::max(0.0, layout.At(static_cast<int>(i), j_));
      bper_[i] =
          model_->layout_model().Transform((*workloads_)[i], bfrac_[i]);
      const double r = bper_[i].total_rate();
      brate_[i] = r <= kRateEpsilon ? 0.0 : r;
    }

    // Interference accumulators: one overlap-row · rate dot product per
    // object over the row's stored partners. Absent rows are included: an
    // absent object's χ limit depends on whether anything interferes with
    // it.
    const double* rate = brate_.data();
    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& wi = (*workloads_)[i];
      // Four fixed-order accumulator lanes: reassociates the sum the same
      // way on every run and thread count, and gives the compiler
      // independent chains to turn into vector FMAs (rate gathers
      // included).
      const int32_t* idx = wi.overlap_index.data();
      const double* val = wi.overlap_value.data();
      const size_t nnz = wi.overlap_index.size();
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      size_t s = 0;
      for (; s + 4 <= nnz; s += 4) {
        acc0 += rate[idx[s]] * val[s];
        acc1 += rate[idx[s + 1]] * val[s + 1];
        acc2 += rate[idx[s + 2]] * val[s + 2];
        acc3 += rate[idx[s + 3]] * val[s + 3];
      }
      double dot = (acc0 + acc1) + (acc2 + acc3);
      for (; s < nnz; ++s) dot += rate[idx[s]] * val[s];
      // The row carries the diagonal; subtracting it afterwards keeps the
      // lane assignment independent of where it sits in the row. The short
      // sums can leave a tiny negative residue after the cancellation —
      // clamp it so χ never goes below the diagonal.
      binterf_[i] = std::max(0.0, dot - rate[i] * diag_[i]);
    }

    // Price each object's lookups at cells located once per object (both
    // tables share the run and χ axes), or reuse its last pass's sums.
    const CostModel& cm = *tgt.cost_model;
    double mu_j = 0.0;
    brun_slope_.resize(un);
    ck_.assign(un, 0.0);
    bslope_.assign(un, 0.0);
    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& wi = (*workloads_)[i];
      double run;
      double chi;
      if (rate[i] > 0.0) {
        run = bper_[i].run_count;
        chi = binterf_[i] / rate[i] + diag_[i];
      } else {
        // Fraction → 0+ limit: the rates vanish linearly, so ∂µ_ij/∂L_ij
        // tends to λ^R·mcR + λ^W·mcW priced at the limiting run count and
        // contention factor.
        run = model_->layout_model().LimitRunCount(wi);
        chi = binterf_[i] > 0.0 ? kClampedChi : diag_[i];
      }
      LookupMemo& m = memo_[i];
      PriceObject(cm, i, run, chi, &m);
      if (rate[i] <= 0.0) continue;  // absent: adds nothing to the value
      const PerTargetWorkload& p = bper_[i];
      mu_j += p.read_rate * m.mc_read + p.write_rate * m.mc_write;
      // χ-slope and its rate-normalized cross-term coefficient; the
      // run-branch slope waits for the layout model's Q′.
      const double slope =
          p.read_rate * m.dchi_read + p.write_rate * m.dchi_write;
      bslope_[i] = slope;
      ck_[i] = slope / rate[i];
      brun_slope_[i] = p.read_rate * m.drun_read + p.write_rate * m.drun_write;
    }

    // Cross terms for every i at once: Σ_k c_k·O_k[i] is a transposed
    // overlap·c product, scattered row by row in a fixed order — k
    // ascending, then row order — so the accumulation order never depends
    // on thread count.
    bcross_.assign(un, 0.0);
    double* cross = bcross_.data();
    for (size_t k = 0; k < un; ++k) {
      const double c = ck_[k];
      if (c == 0.0) continue;
      const WorkloadDesc& wk = (*workloads_)[k];
      const int32_t* idx = wk.overlap_index.data();
      const double* val = wk.overlap_value.data();
      const size_t nnz = wk.overlap_index.size();
      for (size_t s = 0; s < nnz; ++s) cross[idx[s]] += c * val[s];
    }

    for (size_t i = 0; i < un; ++i) {
      const WorkloadDesc& wi = (*workloads_)[i];
      const double lam = wi.total_rate();
      double g = wi.read_rate * memo_[i].mc_read +
                 wi.write_rate * memo_[i].mc_write;
      g += lam * (cross[i] - ck_[i] * diag_[i]);
      if (rate[i] > 0.0) {
        const double dq =
            model_->layout_model().TransformRunDerivative(wi, bfrac_[i]);
        if (dq != 0.0) g += brun_slope_[i] * dq;
        g += bslope_[i] * (-binterf_[i] * lam / (rate[i] * rate[i]));
      }
      grad[i] = g;
    }
    return mu_j;
  }

  const TargetModel* model_;
  const WorkloadSet* workloads_;
  const int j_;

  // Built once per context: the overlap diagonal and the query template.
  // Then the per-object lookup memo and the scratch buffers every pass
  // reuses.
  std::vector<double> diag_;
  std::vector<QueryTemplate> tmpl_;
  std::vector<size_t> tmpl_begin_;
  std::vector<LookupMemo> memo_;
  std::vector<PerTargetWorkload> bper_;
  std::vector<double> bfrac_, brate_, binterf_;
  std::vector<double> brun_slope_;
  std::vector<double> ck_, bslope_, bcross_;
  int64_t queries_ = 0;
};

}  // namespace

std::unique_ptr<ColumnEvaluator> TargetModel::MakeColumnEvaluator(
    const WorkloadSet& workloads, int j) const {
  LDB_CHECK_GE(j, 0);
  LDB_CHECK_LT(j, num_targets());
  return std::make_unique<TargetColumnContext>(this, &workloads, j);
}

}  // namespace ldb
