#include "workload/runner.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/table.h"
#include "workload/request_slab.h"

namespace ldb {

namespace {

/// Execution state of one stream within the current step of a query.
struct StreamState {
  StreamSpec spec;
  int64_t request_bytes = 0;  ///< spec request size clamped to object size
  int64_t total_requests = 0;
  int64_t issued = 0;
  int64_t completed = 0;
  int64_t next_offset = 0;  ///< sequential cursor
};

/// Execution state of one query (or OLTP transaction) instance.
struct QueryRun {
  const QueryProfile* profile = nullptr;
  size_t next_step = 0;
  std::vector<StreamState> streams;  ///< current step's streams
  int64_t step_total = 0;            ///< requests in the current step
  int64_t step_completed = 0;
  std::function<void(QueryRun*)> on_done;
};

}  // namespace

WorkloadRunner::WorkloadRunner(StorageSystem* system,
                               const StripedVolumeManager* volumes,
                               uint64_t seed)
    : system_(system),
      owned_router_(std::make_unique<PassthroughRouter>(volumes)),
      router_(owned_router_.get()),
      rng_(seed) {
  LDB_CHECK(system_ != nullptr);
  LDB_CHECK(volumes != nullptr);
  append_cursor_.assign(static_cast<size_t>(router_->num_objects()), 0);
}

WorkloadRunner::WorkloadRunner(StorageSystem* system, VolumeRouter* router,
                               uint64_t seed)
    : system_(system), router_(router), rng_(seed) {
  LDB_CHECK(system_ != nullptr);
  LDB_CHECK(router_ != nullptr);
  append_cursor_.assign(static_cast<size_t>(router_->num_objects()), 0);
}

Result<RunResult> WorkloadRunner::RunOlap(const OlapSpec& olap) {
  return Run(&olap, nullptr, 0.0);
}

Result<RunResult> WorkloadRunner::RunOltp(const OltpSpec& oltp,
                                          double duration_s) {
  return Run(nullptr, &oltp, duration_s);
}

Result<RunResult> WorkloadRunner::RunMixed(const OlapSpec& olap,
                                           const OltpSpec& oltp) {
  return Run(&olap, &oltp, 0.0);
}

Result<RunResult> WorkloadRunner::Run(const OlapSpec* olap,
                                      const OltpSpec* oltp,
                                      double duration_s) {
  if (olap == nullptr && oltp == nullptr) {
    return Status::InvalidArgument("no workload given");
  }
  if (olap == nullptr && duration_s <= 0.0) {
    return Status::InvalidArgument("duration must be positive");
  }

  // Validate workload object references against the volume manager.
  auto validate_profile = [&](const QueryProfile& q) -> Status {
    if (q.steps.empty()) {
      return Status::InvalidArgument(
          StrFormat("query %s has no steps", q.name.c_str()));
    }
    for (const QueryStep& step : q.steps) {
      if (step.streams.empty() || step.depth <= 0) {
        return Status::InvalidArgument(
            StrFormat("query %s has an empty or depthless step",
                      q.name.c_str()));
      }
      for (const StreamSpec& s : step.streams) {
        if (s.object < 0 || s.object >= router_->num_objects()) {
          return Status::InvalidArgument(
              StrFormat("query %s references unmapped object %d",
                        q.name.c_str(), s.object));
        }
        if (s.bytes <= 0 || s.request_bytes <= 0) {
          return Status::InvalidArgument(
              StrFormat("query %s has a degenerate stream", q.name.c_str()));
        }
      }
    }
    return Status::Ok();
  };
  if (olap != nullptr) {
    if (olap->queries.empty() || olap->concurrency <= 0) {
      return Status::InvalidArgument("OLAP spec needs queries/concurrency");
    }
    for (const QueryProfile& q : olap->queries) {
      LDB_RETURN_IF_ERROR(validate_profile(q));
    }
  }
  if (oltp != nullptr) {
    if (oltp->terminals <= 0) {
      return Status::InvalidArgument("OLTP spec needs terminals");
    }
    LDB_RETURN_IF_ERROR(validate_profile(oltp->transaction));
  }

  // Start from quiescent devices so measurements reflect this run only.
  for (int j = 0; j < system_->num_targets(); ++j) system_->target(j).Reset();

  const double start_time = system_->Now();
  uint64_t requests_completed = 0;

  // ---- Core stream machinery (mutually recursive via std::function). ----
  std::function<void(QueryRun*, size_t)> issue_request;
  std::function<void(QueryRun*, size_t)> on_request_done;
  std::function<void(QueryRun*)> start_step;

  // Per-request contexts: a chunk completion captures only {slab, index}.
  struct StreamRef {
    QueryRun* q = nullptr;
    size_t si = 0;
  };
  using Slab = RequestSlab<StreamRef>;
  Slab slab([&](const Slab::Request& r) {
    if (logical_observer_) logical_observer_(r.event);
    on_request_done(r.payload.q, r.payload.si);
  });

  std::vector<TargetChunk> chunks;  // scratch, reused across submissions
  issue_request = [&](QueryRun* q, size_t si) {
    StreamState& st = q->streams[si];
    const int64_t osize = router_->object_size(st.spec.object);
    const int64_t req = st.request_bytes;
    int64_t offset = 0;
    switch (st.spec.pattern) {
      case AccessPattern::kSequential:
        if (st.next_offset + req > osize) st.next_offset = 0;
        offset = st.next_offset;
        st.next_offset += req;
        break;
      case AccessPattern::kRandom: {
        const int64_t slots = (osize - req) / req;
        offset = slots > 0 ? rng_.UniformInt(int64_t{0}, slots) * req : 0;
        break;
      }
      case AccessPattern::kAppend: {
        int64_t& cursor = append_cursor_[static_cast<size_t>(st.spec.object)];
        if (cursor + req > osize) cursor = 0;
        offset = cursor;
        cursor += req;
        break;
      }
    }
    const bool is_write = st.spec.write_fraction >= 1.0 ||
                          (st.spec.write_fraction > 0.0 &&
                           rng_.Bernoulli(st.spec.write_fraction));
    ++st.issued;

    chunks.clear();
    router_->Route(st.spec.object, offset, req, is_write, &chunks);
    const uint32_t index = slab.Open(static_cast<int>(chunks.size()));
    // Object-level (pre-striping) event, reported when the last chunk of
    // the request completes.
    Slab::Request& r = slab.at(index);
    r.payload = StreamRef{q, si};
    if (logical_observer_) {
      r.event = LogicalEvent(system_->Now(), next_logical_seq_++,
                             st.spec.object, offset, req, is_write);
    }
    int64_t logical = offset;
    for (const TargetChunk& c : chunks) {
      TargetRequest tr;
      tr.offset = c.offset;
      tr.size = c.size;
      tr.is_write = is_write;
      tr.object = st.spec.object;
      tr.logical_offset = logical;
      logical += c.size;
      system_->SubmitWithStatus(c.target, tr, slab.ChunkCompletion(index));
    }
  };

  // Paced issuing: advance the least-complete *idle* stream of the current
  // step. Each stream is a synchronous request chain (at most one request
  // in flight, like a scan thread issuing dependent reads), so the step's
  // depth only buys cross-stream parallelism, never deeper pipelining of a
  // single scan. Returns false if no stream is eligible right now.
  auto issue_next_in_step = [&](QueryRun* q) {
    size_t best = q->streams.size();
    double best_fraction = 2.0;
    for (size_t si = 0; si < q->streams.size(); ++si) {
      const StreamState& st = q->streams[si];
      if (st.issued >= st.total_requests) continue;
      if (st.issued > st.completed) continue;  // already in flight
      const double fraction = static_cast<double>(st.issued) /
                              static_cast<double>(st.total_requests);
      if (fraction < best_fraction) {
        best_fraction = fraction;
        best = si;
      }
    }
    if (best == q->streams.size()) return false;
    issue_request(q, best);
    return true;
  };

  on_request_done = [&](QueryRun* q, size_t si) {
    ++requests_completed;
    StreamState& st = q->streams[si];
    ++st.completed;
    ++q->step_completed;
    if (q->step_completed == q->step_total) {
      start_step(q);
    } else {
      issue_next_in_step(q);
    }
  };

  start_step = [&](QueryRun* q) {
    if (q->next_step >= q->profile->steps.size()) {
      q->on_done(q);
      return;
    }
    const QueryStep& step = q->profile->steps[q->next_step++];
    q->streams.clear();
    q->step_total = 0;
    q->step_completed = 0;
    for (const StreamSpec& spec : step.streams) {
      StreamState st;
      st.spec = spec;
      const int64_t osize = router_->object_size(spec.object);
      st.request_bytes = std::min(spec.request_bytes, osize);
      st.total_requests =
          (spec.bytes + st.request_bytes - 1) / st.request_bytes;
      q->step_total += st.total_requests;
      // Sequential streams start at a random aligned position.
      const int64_t slots = (osize - st.request_bytes) / st.request_bytes;
      st.next_offset =
          slots > 0 ? rng_.UniformInt(int64_t{0}, slots) * st.request_bytes
                    : 0;
      q->streams.push_back(st);
    }
    // Prime the step's pipeline: up to `depth` requests, at most one per
    // stream.
    const int64_t prime = std::min<int64_t>(step.depth, q->step_total);
    for (int64_t d = 0; d < prime; ++d) {
      if (!issue_next_in_step(q)) break;
    }
  };

  // ---- OLAP driver. ----
  std::deque<std::unique_ptr<QueryRun>> olap_runs;
  size_t next_query = 0;
  int olap_active = 0;
  uint64_t olap_completed = 0;
  double olap_done_time = -1.0;
  bool oltp_stop = false;
  bool counting = false;       // OLTP measurement window open
  double measure_start = 0.0;  // set below
  double measure_end = -1.0;
  uint64_t counted_txns = 0;

  std::function<void()> olap_start_next;
  std::function<void(QueryRun*)> olap_on_done = [&](QueryRun*) {
    --olap_active;
    ++olap_completed;
    if (olap_completed == olap->queries.size()) {
      olap_done_time = system_->Now();
      oltp_stop = true;  // consolidation: OLTP runs until OLAP finishes
      if (counting) {
        counting = false;
        measure_end = olap_done_time;
      }
      if (on_finished_) on_finished_();
    } else {
      olap_start_next();
    }
  };
  olap_start_next = [&]() {
    while (olap != nullptr && olap_active < olap->concurrency &&
           next_query < olap->queries.size()) {
      auto run = std::make_unique<QueryRun>();
      run->profile = &olap->queries[next_query++];
      run->on_done = olap_on_done;
      ++olap_active;
      QueryRun* raw = run.get();
      olap_runs.push_back(std::move(run));
      start_step(raw);
    }
  };

  // ---- OLTP driver. ----
  std::vector<std::unique_ptr<QueryRun>> terminals;
  std::function<void(QueryRun*)> oltp_on_done = [&](QueryRun* q) {
    if (counting) ++counted_txns;
    if (!oltp_stop) {
      // The next transaction starts after the non-I/O portion of the
      // transaction (CPU, locking, commit processing).
      system_->queue().ScheduleAfter(oltp->txn_overhead_s, [&, q]() {
        if (oltp_stop) return;
        q->next_step = 0;
        start_step(q);
      });
    }
  };

  // ---- Launch. ----
  if (oltp != nullptr) {
    measure_start = start_time + oltp->warmup_s;
    if (oltp->warmup_s <= 0.0) {
      counting = true;
    } else {
      system_->queue().ScheduleAt(measure_start, [&]() {
        if (measure_end < 0.0) counting = true;
      });
    }
    for (int t = 0; t < oltp->terminals; ++t) {
      auto run = std::make_unique<QueryRun>();
      run->profile = &oltp->transaction;
      run->on_done = oltp_on_done;
      QueryRun* raw = run.get();
      terminals.push_back(std::move(run));
      start_step(raw);
    }
    if (olap == nullptr) {
      // Pure OLTP: stop after the requested duration.
      system_->queue().ScheduleAt(start_time + duration_s, [&]() {
        oltp_stop = true;
        if (counting) {
          counting = false;
          measure_end = system_->Now();
        }
        if (on_finished_) on_finished_();
      });
    }
  }
  olap_start_next();

  system_->queue().RunUntilIdle();

  // ---- Collect results. ----
  RunResult result;
  if (olap != nullptr) {
    LDB_CHECK_GE(olap_done_time, 0.0);
    result.elapsed_seconds = olap_done_time - start_time;
    result.olap_queries_completed = olap_completed;
  } else {
    result.elapsed_seconds = duration_s;
  }
  if (oltp != nullptr) {
    result.oltp_transactions = counted_txns;
    if (measure_end < 0.0) measure_end = system_->Now();
    const double window = measure_end - measure_start;
    if (window > 0.0) {
      result.tpm = static_cast<double>(counted_txns) / (window / 60.0);
    }
  }
  result.total_requests = requests_completed;
  result.faults = system_->TotalFaultStats();
  const double elapsed = std::max(result.elapsed_seconds, 1e-9);
  for (int j = 0; j < system_->num_targets(); ++j) {
    result.utilization.push_back(system_->MeasuredUtilization(j, elapsed));
  }
  return result;
}

}  // namespace ldb
