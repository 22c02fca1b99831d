#include "trace/analyzer.h"

#include <algorithm>
#include <vector>

#include "trace/run_tracker.h"
#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

/// Per-object view of the trace, in submit order.
struct ObjectStream {
  std::vector<double> submit_times;             // sorted
  std::vector<std::pair<double, double>> busy;  // merged in-flight intervals
  std::vector<std::pair<double, double>> intervals;  // raw padded intervals
  uint64_t reads = 0;
  uint64_t writes = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;
  uint64_t runs = 0;
  uint64_t requests = 0;
};

}  // namespace

Result<WorkloadSet> TraceAnalyzer::Analyze(const IoTrace& trace,
                                           int num_objects) const {
  if (trace.empty()) {
    return Status::InvalidArgument("cannot analyze an empty trace");
  }
  if (num_objects <= 0) {
    return Status::InvalidArgument("num_objects must be positive");
  }
  const double duration = trace.Duration();
  LDB_CHECK_GT(duration, 0.0);

  // Sort events by submit time (the trace is stored in completion order).
  std::vector<const IoEvent*> order;
  order.reserve(trace.size());
  for (const IoEvent& ev : trace.events()) {
    if (ev.object < 0 || ev.object >= num_objects) {
      return Status::InvalidArgument(
          StrFormat("trace references unknown object %d", ev.object));
    }
    order.push_back(&ev);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const IoEvent* a, const IoEvent* b) {
                     if (a->submit_time != b->submit_time) {
                       return a->submit_time < b->submit_time;
                     }
                     return a->seq < b->seq;  // exact issue order on ties
                   });

  std::vector<ObjectStream> streams(static_cast<size_t>(num_objects));
  // Sequential-run detection state: per object, up to max_open_runs
  // concurrently-open runs (expected next offset + LRU stamp). Shared with
  // the online monitor via SequentialRunTracker.
  std::vector<SequentialRunTracker> trackers(
      static_cast<size_t>(num_objects),
      SequentialRunTracker(options_.max_open_runs,
                           options_.sequential_slack_bytes));

  for (const IoEvent* ev : order) {
    ObjectStream& s = streams[static_cast<size_t>(ev->object)];
    s.submit_times.push_back(ev->submit_time);
    ++s.requests;
    if (ev->is_write) {
      ++s.writes;
      s.write_bytes += ev->size;
    } else {
      ++s.reads;
      s.read_bytes += ev->size;
    }
    // Run detection on logical (object-relative) addresses: continue any
    // open run, else open a new one (evicting the least recently used).
    if (trackers[static_cast<size_t>(ev->object)].Observe(
            ev->logical_offset, ev->size)) {
      ++s.runs;
    }

    // Record the (padded) in-flight interval for overlap computation,
    // merging with the previous interval when they touch.
    // Raw in-flight interval, for self-overlap (no padding: only requests
    // actually concurrent at the device compete with each other).
    s.intervals.emplace_back(ev->submit_time, ev->complete_time);
    const double lo = ev->submit_time - options_.overlap_window_s;
    const double hi = ev->complete_time + options_.overlap_window_s;
    if (!s.busy.empty() && lo <= s.busy.back().second) {
      s.busy.back().second = std::max(s.busy.back().second, hi);
    } else {
      s.busy.emplace_back(lo, hi);
    }
  }

  WorkloadSet out(static_cast<size_t>(num_objects));
  for (int i = 0; i < num_objects; ++i) {
    const ObjectStream& s = streams[static_cast<size_t>(i)];
    WorkloadDesc& w = out[static_cast<size_t>(i)];
    if (s.requests == 0) continue;
    w.read_rate = static_cast<double>(s.reads) / duration;
    w.write_rate = static_cast<double>(s.writes) / duration;
    w.read_size = s.reads > 0
                      ? static_cast<double>(s.read_bytes) /
                            static_cast<double>(s.reads)
                      : 0.0;
    w.write_size = s.writes > 0
                       ? static_cast<double>(s.write_bytes) /
                             static_cast<double>(s.writes)
                       : 0.0;
    LDB_CHECK_GT(s.runs, 0u);
    w.run_count = static_cast<double>(s.requests) /
                  static_cast<double>(s.runs);
  }

  // Overlap rows, one full row at a time. Off the diagonal: the fraction
  // of i's submits inside k's busy intervals. On it, the self-overlap: the
  // mean number of the object's own *other* requests in flight at its
  // submit times. This is how concurrent queries scanning the same object
  // show up; the target model folds it into the contention factor.
  struct Edge {
    double t;
    int delta;
  };
  std::vector<Edge> edges;
  std::vector<double> row;
  for (int i = 0; i < num_objects; ++i) {
    const ObjectStream& si = streams[static_cast<size_t>(i)];
    row.assign(static_cast<size_t>(num_objects), 0.0);
    if (si.requests > 0) {
      for (int k = 0; k < num_objects; ++k) {
        if (k == i) continue;
        const ObjectStream& sk = streams[static_cast<size_t>(k)];
        if (sk.requests == 0) continue;
        uint64_t hits = 0;
        size_t cursor = 0;
        for (const double t : si.submit_times) {
          while (cursor < sk.busy.size() && sk.busy[cursor].second < t) {
            ++cursor;
          }
          if (cursor < sk.busy.size() && sk.busy[cursor].first <= t) ++hits;
        }
        row[static_cast<size_t>(k)] =
            static_cast<double>(hits) / static_cast<double>(si.requests);
      }

      edges.clear();
      edges.reserve(2 * si.intervals.size());
      for (const auto& iv : si.intervals) {
        edges.push_back(Edge{iv.first, +1});
        edges.push_back(Edge{iv.second, -1});
      }
      std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        if (a.t != b.t) return a.t < b.t;
        return a.delta > b.delta;  // open before close at equal times
      });
      // Sweep: at each submit time, the number of open intervals includes
      // the request's own, so subtract one.
      uint64_t concurrent_sum = 0;
      size_t cursor = 0;
      int open = 0;
      for (const double t : si.submit_times) {
        while (cursor < edges.size() && edges[cursor].t <= t) {
          open += edges[cursor].delta;
          ++cursor;
        }
        concurrent_sum += static_cast<uint64_t>(std::max(0, open - 1));
      }
      row[static_cast<size_t>(i)] = static_cast<double>(concurrent_sum) /
                                    static_cast<double>(si.requests);
    }
    SetOverlapRow(&out[static_cast<size_t>(i)], static_cast<size_t>(i), row);
  }

  for (int i = 0; i < num_objects; ++i) {
    LDB_CHECK(IsValidWorkload(out[static_cast<size_t>(i)],
                              static_cast<size_t>(num_objects),
                              static_cast<size_t>(i)));
  }
  return out;
}

}  // namespace ldb
