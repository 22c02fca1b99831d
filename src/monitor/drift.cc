#include "monitor/drift.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace ldb {

namespace {

/// |log(a/b)| scaled so a 4x shift scores 1, capped at 1.
double LogShift(double a, double b) {
  const double shift = std::fabs(std::log(a / b)) / std::log(4.0);
  return std::min(1.0, shift);
}

double WriteFraction(const WorkloadDesc& w) {
  const double total = w.total_rate();
  return total > 0.0 ? w.write_rate / total : 0.0;
}

/// Off-diagonal L1 distance between two overlap rows. Walks the union of
/// the rows' supports in ascending id order; entries outside both supports
/// contribute exactly zero.
double OverlapL1(const WorkloadDesc& l, const WorkloadDesc& r, size_t i) {
  double ovl = 0.0;
  size_t a = 0, b = 0;
  const size_t na = l.overlap_index.size(), nb = r.overlap_index.size();
  while (a < na || b < nb) {
    const int32_t ka =
        a < na ? l.overlap_index[a] : std::numeric_limits<int32_t>::max();
    const int32_t kb =
        b < nb ? r.overlap_index[b] : std::numeric_limits<int32_t>::max();
    const int32_t k = std::min(ka, kb);
    const double lv = ka == k ? l.overlap_value[a++] : 0.0;
    const double rv = kb == k ? r.overlap_value[b++] : 0.0;
    if (static_cast<size_t>(k) != i) ovl += std::fabs(lv - rv);
  }
  return ovl;
}

}  // namespace

DriftDetector::DriftDetector(WorkloadSet reference, DriftOptions options,
                             double now)
    : reference_(std::move(reference)), options_(options) {
  LDB_CHECK_GT(options_.threshold, 0.0);
  LDB_CHECK_GE(options_.trip_evaluations, 1);
  LDB_CHECK(options_.clear_ratio > 0.0 && options_.clear_ratio <= 1.0);
  LDB_CHECK_GE(options_.cooldown_s, 0.0);
  LDB_CHECK_GT(options_.min_rate, 0.0);
  LDB_CHECK(options_.sustained_ratio >= 0.0 &&
            options_.sustained_ratio <= 1.0);
  LDB_CHECK(options_.sustained_ratio == 0.0 || options_.sustained_s > 0.0);
  cooldown_until_ = now + options_.cooldown_s;
}

double DriftDetector::Score(const WorkloadSet& live) const {
  const size_t n = reference_.size();
  LDB_CHECK(live.size() == n);
  const double floor = options_.min_rate;
  double weight_sum = 0.0;
  double score_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const WorkloadDesc& r = reference_[i];
    const WorkloadDesc& l = live[i];
    const double rate_r = r.total_rate();
    const double rate_l = l.total_rate();
    if (rate_r < floor && rate_l < floor) continue;  // inactive both sides
    // Weight by bytes/s of demand so cold objects cannot drown out the
    // tables that actually load the system.
    const double weight = std::max(std::max(rate_r * r.mean_size(),
                                            rate_l * l.mean_size()),
                                   1.0);
    double d = LogShift(std::max(rate_l, floor), std::max(rate_r, floor));
    d = std::max(d, LogShift(std::max(l.mean_size(), 512.0),
                             std::max(r.mean_size(), 512.0)));
    d = std::max(d, LogShift(l.run_count, r.run_count));
    d = std::max(d, std::fabs(WriteFraction(l) - WriteFraction(r)));
    // Normalized over the n-1 off-diagonal entries of a full row.
    if (n > 1) {
      d = std::max(d, OverlapL1(l, r, i) / static_cast<double>(n - 1));
    }
    // Self-overlap is unbounded (a concurrency count): compare as a log
    // ratio like the other magnitude-type statistics.
    d = std::max(d, LogShift(1.0 + l.overlap_with(i),
                             1.0 + r.overlap_with(i)));
    weight_sum += weight;
    score_sum += weight * d;
  }
  return weight_sum > 0.0 ? score_sum / weight_sum : 0.0;
}

bool DriftDetector::Evaluate(const WorkloadSet& live, double now) {
  last_score_ = Score(live);
  if (now < cooldown_until_) {
    above_ = 0;
    elevated_since_ = -1.0;
    return false;
  }
  if (!armed_) {
    if (last_score_ <= options_.threshold * options_.clear_ratio) {
      armed_ = true;
      above_ = 0;
    } else {
      return false;
    }
  }
  // Sustained sub-threshold path: a score plateauing in
  // (ratio * threshold, threshold] would never edge-trigger; the dwell
  // clock catches it. It only runs while armed and outside cooldown, so a
  // freshly advised layout gets the same grace period as the edge trigger.
  if (options_.sustained_ratio > 0.0 &&
      last_score_ > options_.threshold * options_.sustained_ratio) {
    if (elevated_since_ < 0.0) elevated_since_ = now;
    if (now - elevated_since_ >= options_.sustained_s) {
      ++trips_;
      ++sustained_trips_;
      armed_ = false;
      above_ = 0;
      elevated_since_ = -1.0;
      cooldown_until_ = now + options_.cooldown_s;
      return true;
    }
  } else {
    elevated_since_ = -1.0;
  }
  if (last_score_ > options_.threshold) {
    if (++above_ >= options_.trip_evaluations) {
      ++trips_;
      armed_ = false;
      above_ = 0;
      elevated_since_ = -1.0;
      cooldown_until_ = now + options_.cooldown_s;
      return true;
    }
  } else {
    above_ = 0;
  }
  return false;
}

void DriftDetector::Rearm(WorkloadSet reference, double now) {
  reference_ = std::move(reference);
  cooldown_until_ = now + options_.cooldown_s;
  armed_ = true;
  above_ = 0;
  elevated_since_ = -1.0;
}

}  // namespace ldb
