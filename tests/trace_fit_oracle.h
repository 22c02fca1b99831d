// Reference trace fit for tests: the store-sort-merge form of the Rubicon
// fit. It keeps every event, merges each object's padded busy intervals,
// looks every submit up in every other object's merged intervals, and
// counts each object's own requests open at its submits from the sorted
// submit and completion times. TraceFitter must reproduce it bit for bit.
//
// Also holds ExpectSameWorkloads, the exact (==, not near) comparison of
// two workload sets, CSR rows included.

#ifndef LAYOUTDB_TESTS_TRACE_FIT_ORACLE_H_
#define LAYOUTDB_TESTS_TRACE_FIT_ORACLE_H_

#include <algorithm>
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

/// The batch fit of a valid, nonempty trace spanning positive time.
inline WorkloadSet OracleFit(const IoTrace& trace, int num_objects,
                             const AnalyzerOptions& options = {}) {
  const size_t n = static_cast<size_t>(num_objects);
  std::vector<const IoEvent*> order;
  for (const IoEvent& ev : trace.events()) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const IoEvent* a, const IoEvent* b) {
                     if (a->submit_time != b->submit_time) {
                       return a->submit_time < b->submit_time;
                     }
                     return a->seq < b->seq;
                   });
  struct Stream {
    std::vector<double> submits;
    std::vector<std::pair<double, double>> busy;  // merged, padded
    std::vector<std::pair<double, double>> raw;
    uint64_t reads = 0, writes = 0, runs = 0;
    int64_t read_bytes = 0, write_bytes = 0;
  };
  std::vector<Stream> streams(n);
  std::vector<SequentialRunTracker> trackers(
      n, SequentialRunTracker(options.max_open_runs,
                              options.sequential_slack_bytes));
  for (const IoEvent* ev : order) {
    Stream& s = streams[static_cast<size_t>(ev->object)];
    s.submits.push_back(ev->submit_time);
    if (ev->is_write) {
      ++s.writes;
      s.write_bytes += ev->size;
    } else {
      ++s.reads;
      s.read_bytes += ev->size;
    }
    if (trackers[static_cast<size_t>(ev->object)].Observe(ev->logical_offset,
                                                          ev->size)) {
      ++s.runs;
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
  const double duration = trace.Duration();
  WorkloadSet out(n);
  for (size_t i = 0; i < n; ++i) {
    const Stream& s = streams[i];
    WorkloadDesc& w = out[i];
    std::vector<double> row(n, 0.0);
    const double requests = static_cast<double>(s.submits.size());
    if (!s.submits.empty()) {
      w.read_rate = static_cast<double>(s.reads) / duration;
      w.write_rate = static_cast<double>(s.writes) / duration;
      w.read_size = s.reads > 0 ? static_cast<double>(s.read_bytes) /
                                      static_cast<double>(s.reads)
                                : 0.0;
      w.write_size = s.writes > 0 ? static_cast<double>(s.write_bytes) /
                                        static_cast<double>(s.writes)
                                  : 0.0;
      w.run_count = requests / static_cast<double>(s.runs);
      for (size_t k = 0; k < n; ++k) {
        if (k == i) continue;
        // k's merged intervals are disjoint and sorted: t is inside one
        // iff the last interval starting at or before t reaches t.
        const auto& busy = streams[k].busy;
        uint64_t hits = 0;
        for (const double t : s.submits) {
          auto it = std::upper_bound(
              busy.begin(), busy.end(), t,
              [](double v, const std::pair<double, double>& iv) {
                return v < iv.first;
              });
          if (it != busy.begin() && t <= std::prev(it)->second) ++hits;
        }
        row[k] = static_cast<double>(hits) / requests;
      }
      // Self-overlap: own requests submitted at or before t and not
      // completed at or before t, minus the request itself.
      std::vector<double> ends;
      for (const auto& iv : s.raw) ends.push_back(iv.second);
      std::sort(ends.begin(), ends.end());
      uint64_t concurrent = 0;
      for (const double t : s.submits) {
        const auto opened =
            std::upper_bound(s.submits.begin(), s.submits.end(), t) -
            s.submits.begin();
        const auto closed =
            std::upper_bound(ends.begin(), ends.end(), t) - ends.begin();
        concurrent += static_cast<uint64_t>(
            std::max<std::ptrdiff_t>(0, opened - closed - 1));
      }
      row[i] = static_cast<double>(concurrent) / requests;
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

}  // namespace ldb

#endif  // LAYOUTDB_TESTS_TRACE_FIT_ORACLE_H_
