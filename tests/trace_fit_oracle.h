// Reference trace fit for tests: the store-sort-merge form of the Rubicon
// fit. It keeps every event, merges each object's padded busy intervals,
// looks every submit up in every other object's merged intervals, and
// counts each object's own requests open at its submits from the sorted
// submit and completion times. TraceFitter must reproduce it bit for bit.
// Given per-event weights (DecayWeights) it is the decayed fit, which
// TraceFitter reproduces up to rounding.
//
// Also holds ExpectSameWorkloads, the exact (==, not near) comparison of
// two workload sets, CSR rows included, and ExpectNearWorkloads, its
// relative-error twin.

#ifndef LAYOUTDB_TESTS_TRACE_FIT_ORACLE_H_
#define LAYOUTDB_TESTS_TRACE_FIT_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/workload.h"
#include "trace/analyzer.h"
#include "trace/run_tracker.h"
#include "trace/trace.h"

namespace ldb {

/// Per-event weights of a decayed fit, indexed like trace.events(), and
/// the window length that turns weighted counts into rates.
struct OracleDecay {
  std::vector<double> weights;
  double window = 0.0;
};

/// TraceFitter's decay at `half_life_s` (> 0), computed directly: event e
/// weighs e^{-λ(T - submit_e)}, T the last completion, and the window is
/// (1 - e^{-λD})/λ over the trace duration D (through expm1, exact to
/// rounding for a short trace).
inline OracleDecay DecayWeights(const IoTrace& trace, double half_life_s) {
  const double lambda = std::log(2.0) / half_life_s;
  double last = -INFINITY;
  for (const IoEvent& ev : trace.events()) {
    last = std::max(last, ev.complete_time);
  }
  OracleDecay decay;
  for (const IoEvent& ev : trace.events()) {
    decay.weights.push_back(std::exp(-lambda * (last - ev.submit_time)));
  }
  decay.window = -std::expm1(-lambda * trace.Duration()) / lambda;
  return decay;
}

/// The fit of a valid, nonempty trace spanning positive time: the batch
/// fit, or with `decay` the decayed one.
inline WorkloadSet OracleFit(const IoTrace& trace, int num_objects,
                             const AnalyzerOptions& options = {},
                             const OracleDecay* decay = nullptr) {
  const size_t n = static_cast<size_t>(num_objects);
  const auto weight = [&](const IoEvent* ev) {
    return decay == nullptr
               ? 1.0
               : decay->weights[static_cast<size_t>(
                     ev - trace.events().data())];
  };
  std::vector<const IoEvent*> order;
  for (const IoEvent& ev : trace.events()) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const IoEvent* a, const IoEvent* b) {
                     if (a->submit_time != b->submit_time) {
                       return a->submit_time < b->submit_time;
                     }
                     return a->seq < b->seq;
                   });
  // Weighted sums; with weight 1 they are exact integer counts.
  struct Stream {
    std::vector<double> submits;
    std::vector<double> weights;  // parallel to `submits`
    std::vector<std::pair<double, double>> busy;  // merged, padded
    std::vector<std::pair<double, double>> raw;
    double reads = 0, writes = 0, runs = 0, requests = 0;
    double read_bytes = 0, write_bytes = 0;
  };
  std::vector<Stream> streams(n);
  std::vector<SequentialRunTracker> trackers(
      n, SequentialRunTracker(options.max_open_runs,
                              options.sequential_slack_bytes));
  for (const IoEvent* ev : order) {
    Stream& s = streams[static_cast<size_t>(ev->object)];
    const double w = weight(ev);
    s.submits.push_back(ev->submit_time);
    s.weights.push_back(w);
    s.requests += w;
    if (ev->is_write) {
      s.writes += w;
      s.write_bytes += w * static_cast<double>(ev->size);
    } else {
      s.reads += w;
      s.read_bytes += w * static_cast<double>(ev->size);
    }
    if (trackers[static_cast<size_t>(ev->object)].Observe(ev->logical_offset,
                                                          ev->size)) {
      s.runs += w;
    }
    s.raw.emplace_back(ev->submit_time, ev->complete_time);
    const double lo = ev->submit_time - options.overlap_window_s;
    const double hi = ev->complete_time + options.overlap_window_s;
    if (!s.busy.empty() && lo <= s.busy.back().second) {
      s.busy.back().second = std::max(s.busy.back().second, hi);
    } else {
      s.busy.emplace_back(lo, hi);
    }
  }
  const double window = decay == nullptr ? trace.Duration() : decay->window;
  WorkloadSet out(n);
  for (size_t i = 0; i < n; ++i) {
    const Stream& s = streams[i];
    WorkloadDesc& w = out[i];
    std::vector<double> row(n, 0.0);
    const double requests = s.requests;
    if (!s.submits.empty()) {
      w.read_rate = s.reads / window;
      w.write_rate = s.writes / window;
      w.read_size = s.reads > 0 ? s.read_bytes / s.reads : 0.0;
      w.write_size = s.writes > 0 ? s.write_bytes / s.writes : 0.0;
      w.run_count = requests / s.runs;
      for (size_t k = 0; k < n; ++k) {
        if (k == i) continue;
        // k's merged intervals are disjoint and sorted: t is inside one
        // iff the last interval starting at or before t reaches t.
        const auto& busy = streams[k].busy;
        double hits = 0;
        for (size_t e = 0; e < s.submits.size(); ++e) {
          const double t = s.submits[e];
          auto it = std::upper_bound(
              busy.begin(), busy.end(), t,
              [](double v, const std::pair<double, double>& iv) {
                return v < iv.first;
              });
          if (it != busy.begin() && t <= std::prev(it)->second) {
            hits += s.weights[e];
          }
        }
        row[k] = hits / requests;
      }
      // Self-overlap: own requests submitted at or before t and not
      // completed at or before t, minus the request itself.
      std::vector<double> ends;
      for (const auto& iv : s.raw) ends.push_back(iv.second);
      std::sort(ends.begin(), ends.end());
      double concurrent = 0;
      for (size_t e = 0; e < s.submits.size(); ++e) {
        const double t = s.submits[e];
        const auto opened =
            std::upper_bound(s.submits.begin(), s.submits.end(), t) -
            s.submits.begin();
        const auto closed =
            std::upper_bound(ends.begin(), ends.end(), t) - ends.begin();
        concurrent += s.weights[e] *
                      static_cast<double>(
                          std::max<std::ptrdiff_t>(0, opened - closed - 1));
      }
      row[i] = concurrent / requests;
    }
    SetOverlapRow(&w, i, row);
  }
  return out;
}

/// Exact equality of two workload sets: every field and every CSR entry.
inline void ExpectSameWorkloads(const WorkloadSet& a, const WorkloadSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "object " << i);
    EXPECT_EQ(a[i].read_rate, b[i].read_rate);
    EXPECT_EQ(a[i].write_rate, b[i].write_rate);
    EXPECT_EQ(a[i].read_size, b[i].read_size);
    EXPECT_EQ(a[i].write_size, b[i].write_size);
    EXPECT_EQ(a[i].run_count, b[i].run_count);
    EXPECT_EQ(a[i].overlap_index, b[i].overlap_index);
    EXPECT_EQ(a[i].overlap_value, b[i].overlap_value);
  }
}

/// Every field and CSR value of `a` and `b` within `rel` of the larger
/// magnitude; the CSR index sets must be equal.
inline void ExpectNearWorkloads(const WorkloadSet& a, const WorkloadSet& b,
                                double rel) {
  const auto near = [rel](double x, double y) {
    return std::abs(x - y) <= rel * std::max(std::abs(x), std::abs(y));
  };
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "object " << i);
    EXPECT_PRED2(near, a[i].read_rate, b[i].read_rate);
    EXPECT_PRED2(near, a[i].write_rate, b[i].write_rate);
    EXPECT_PRED2(near, a[i].read_size, b[i].read_size);
    EXPECT_PRED2(near, a[i].write_size, b[i].write_size);
    EXPECT_PRED2(near, a[i].run_count, b[i].run_count);
    ASSERT_EQ(a[i].overlap_index, b[i].overlap_index);
    for (size_t j = 0; j < a[i].overlap_value.size(); ++j) {
      EXPECT_PRED2(near, a[i].overlap_value[j], b[i].overlap_value[j])
          << "entry " << a[i].overlap_index[j];
    }
  }
}

}  // namespace ldb

#endif  // LAYOUTDB_TESTS_TRACE_FIT_ORACLE_H_
