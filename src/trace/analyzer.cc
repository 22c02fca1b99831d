#include "trace/analyzer.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/table.h"

namespace ldb {

namespace {

/// Field checks shared by both front ends; `index` names the event.
Status CheckEvent(const IoEvent& ev, int num_objects, uint64_t index) {
  if (ev.object < 0 || ev.object >= num_objects) {
    return Status::InvalidArgument(
        StrFormat("event %" PRIu64 " references unknown object %d", index,
                  ev.object));
  }
  if (!std::isfinite(ev.submit_time) || !std::isfinite(ev.complete_time)) {
    return Status::InvalidArgument(
        StrFormat("event %" PRIu64 " has a non-finite time", index));
  }
  if (ev.complete_time < ev.submit_time) {
    return Status::InvalidArgument(StrFormat(
        "event %" PRIu64 " completes at %.9g s, before its submit at %.9g s",
        index, ev.complete_time, ev.submit_time));
  }
  return Status::Ok();
}

/// Drops the entries of `fifo` before `*head` once they are at least half
/// of it, so a queue read from `*head` stays within twice its live size.
template <typename T>
void CompactFront(std::vector<T>* fifo, size_t* head) {
  if (*head == fifo->size()) {
    fifo->clear();
    *head = 0;
  } else if (*head >= 64 && 2 * *head >= fifo->size()) {
    fifo->erase(fifo->begin(),
                fifo->begin() + static_cast<std::ptrdiff_t>(*head));
    *head = 0;
  }
}

}  // namespace

// ------------------------------------------------------------ TraceFitter

TraceFitter::TraceFitter(int num_objects, AnalyzerOptions options,
                         double half_life_s)
    : n_(std::max(num_objects, 0)), options_(options) {
  if (num_objects <= 0) {
    Fail(Status::InvalidArgument("num_objects must be positive"));
  }
  if (!std::isfinite(options_.overlap_window_s) ||
      options_.overlap_window_s < 0.0) {
    Fail(Status::InvalidArgument(
        "overlap_window_s must be finite and non-negative"));
  }
  if (half_life_s > 0.0 && std::isfinite(half_life_s)) {
    lambda_ = std::log(2.0) / half_life_s;
  }
  const size_t n = static_cast<size_t>(n_);
  objects_.resize(n);
  trackers_.assign(n, SequentialRunTracker(options_.max_open_runs,
                                           options_.sequential_slack_bytes));
  busy_hi_.assign(n, -std::numeric_limits<double>::infinity());
  in_busy_.assign(n, 0);
  hits_.assign(n * n, 0.0);
}

void TraceFitter::Fail(Status status) {
  if (error_.ok()) error_ = std::move(status);
}

void TraceFitter::Add(const IoEvent& ev, uint64_t index) {
  if (!error_.ok()) return;
  Status bad = CheckEvent(ev, n_, index);
  if (!bad.ok()) return Fail(std::move(bad));
  if (ev.submit_time < last_submit_) {
    return Fail(Status::InvalidArgument(StrFormat(
        "event %" PRIu64 " is submitted at %.9g s, before the previous "
        "event (%.9g s): events must arrive in (submit_time, seq) order",
        index, ev.submit_time, last_submit_)));
  }
  if (events_ == 0) t_ref_ = ev.submit_time;
  last_submit_ = ev.submit_time;
  ++events_;
  min_submit_ = std::min(min_submit_, ev.submit_time);
  max_complete_ = std::max(max_complete_, ev.complete_time);

  // Every later event starts its padded interval at or after `lo`, so the
  // pending submits before it have seen every interval that can cover them.
  const double lo = ev.submit_time - options_.overlap_window_s;
  ResolveBefore(lo);

  if (lambda_ * (ev.submit_time - t_ref_) > kRebaseExponent) {
    Rebase(ev.submit_time);
  }
  const double weight = Weight(ev.submit_time);

  const size_t i = static_cast<size_t>(ev.object);
  ObjectState& s = objects_[i];
  s.requests += weight;
  if (ev.is_write) {
    s.writes += weight;
    s.write_bytes += weight * static_cast<double>(ev.size);
  } else {
    s.reads += weight;
    s.read_bytes += weight * static_cast<double>(ev.size);
  }
  // Run detection on logical (object-relative) addresses: continue any
  // open run, else open a new one (evicting the least recently used).
  if (trackers_[i].Observe(ev.logical_offset, ev.size)) s.runs += weight;

  // Merge the padded in-flight interval into the object's current busy
  // interval when they touch. Padded starts never decrease, so only the
  // current interval's end is needed.
  const double hi = ev.complete_time + options_.overlap_window_s;
  double& busy_hi = busy_hi_[i];
  busy_hi = lo <= busy_hi ? std::max(busy_hi, hi) : hi;
  if (!in_busy_[i]) {
    in_busy_[i] = 1;
    busy_.push_back(ev.object);
  }

  // Raw in-flight interval, for self-overlap (no padding: only requests
  // actually concurrent at the device compete with each other). Every
  // popped completion is at or before a submit earlier than `lo`, so the
  // insertion never needs to pass the head.
  std::vector<double>& run = s.inflight;
  size_t j = run.size();
  run.push_back(ev.complete_time);
  while (j > s.inflight_head && run[j - 1] > ev.complete_time) {
    run[j] = run[j - 1];
    --j;
  }
  run[j] = ev.complete_time;
  pending_.push_back(PendingSubmit{ev.submit_time, ev.object});
}

void TraceFitter::Rebase(double t) {
  const double f = std::exp(lambda_ * (t_ref_ - t));
  for (ObjectState& s : objects_) {
    s.reads *= f;
    s.writes *= f;
    s.read_bytes *= f;
    s.write_bytes *= f;
    s.runs *= f;
    s.requests *= f;
    s.concurrent_sum *= f;
  }
  for (double& h : hits_) h *= f;
  t_ref_ = t;
}

void TraceFitter::ResolveBefore(double bound) {
  const size_t n = static_cast<size_t>(n_);
  while (pending_head_ < pending_.size() &&
         pending_[pending_head_].t < bound) {
    // Equal submit times resolve together: an object's self-overlap counts
    // its own submits at or before t, later ties included.
    const double t = pending_[pending_head_].t;
    const double w = Weight(t);
    size_t end = pending_head_ + 1;
    while (end < pending_.size() && pending_[end].t == t) ++end;
    for (size_t p = pending_head_; p < end; ++p) {
      ++objects_[static_cast<size_t>(pending_[p].object)].resolved;
    }
    // Off the diagonal: t lies in k's busy intervals iff it is at most the
    // end of k's current one (whose start is at or before t). Tested
    // submits never decrease, so an object whose end is before t stays
    // missed until an Add re-opens its interval and lists it again; its
    // hit is +0.0, which leaves every row sum as it is. The first submit's
    // row is summed while the list is pruned.
    double* row = &hits_[static_cast<size_t>(pending_[pending_head_].object) *
                         n];
    size_t kept = 0;
    for (const int32_t k : busy_) {
      if (t <= busy_hi_[static_cast<size_t>(k)]) {
        busy_[kept++] = k;
        row[k] += w;
      } else {
        in_busy_[static_cast<size_t>(k)] = 0;
      }
    }
    busy_.resize(kept);
    for (size_t p = pending_head_; p < end; ++p) {
      const size_t i = static_cast<size_t>(pending_[p].object);
      // The diagonal entry is overwritten by the self-overlap below.
      if (p > pending_head_) {
        row = &hits_[i * n];
        for (const int32_t k : busy_) row[k] += w;
      }
      // On it: the object's own other requests in flight at t.
      ObjectState& s = objects_[i];
      while (s.inflight_head < s.inflight.size() &&
             s.inflight[s.inflight_head] <= t) {
        ++s.inflight_head;
        ++s.completed;
      }
      CompactFront(&s.inflight, &s.inflight_head);
      const uint64_t open = s.resolved - s.completed;
      s.concurrent_sum += w * static_cast<double>(open > 0 ? open - 1 : 0);
    }
    pending_head_ = end;
  }
  CompactFront(&pending_, &pending_head_);
}

Result<WorkloadSet> TraceFitter::Snapshot() const {
  if (!error_.ok()) return error_;
  if (!(max_complete_ - min_submit_ > 0.0)) {
    return Status::FailedPrecondition(StrFormat(
        "%" PRIu64 " events span no time yet; no rate to fit", events_));
  }
  TraceFitter rest(*this);
  return rest.Finish();
}

Result<WorkloadSet> TraceFitter::Finish() {
  if (!error_.ok()) return error_;
  if (events_ == 0) {
    return Status::InvalidArgument("cannot analyze an empty trace");
  }
  ResolveBefore(std::numeric_limits<double>::infinity());
  const double duration = max_complete_ - min_submit_;
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    return Status::InvalidArgument(StrFormat(
        "trace of %" PRIu64 " events spans %.9g s; rates need a positive, "
        "finite duration",
        events_, duration));
  }
  // Rates: the sums brought from t_ref to the last completion, over the
  // decayed length of the window (the plain duration without decay).
  double scale = 1.0;
  double window = duration;
  if (lambda_ > 0.0) {
    scale = std::exp(lambda_ * (t_ref_ - max_complete_));
    window = -std::expm1(-lambda_ * duration) / lambda_;
  }

  const size_t n = static_cast<size_t>(n_);
  WorkloadSet out(n);
  std::vector<double> row;
  for (size_t i = 0; i < n; ++i) {
    const ObjectState& s = objects_[i];
    WorkloadDesc& w = out[i];
    row.assign(n, 0.0);
    if (s.requests > 0.0) {
      w.read_rate = s.reads * scale / window;
      w.write_rate = s.writes * scale / window;
      w.read_size = s.reads > 0.0 ? s.read_bytes / s.reads : 0.0;
      w.write_size = s.writes > 0.0 ? s.write_bytes / s.writes : 0.0;
      // A run start is one of the requests and an off-diagonal hit one of
      // the submits, so these ratios are >= 1 and <= 1. Without decay the
      // sums are exact integers and the clamps never bind; with it they
      // absorb a rebase's rounding, and a run whose start decayed to 0.0.
      w.run_count = std::clamp(s.requests / s.runs, 1.0,
                               std::numeric_limits<double>::max());
      // Off the diagonal: the fraction of i's submits inside k's busy
      // intervals. On it, the self-overlap: the mean number of the
      // object's own *other* requests in flight at its submit times. This
      // is how concurrent queries scanning the same object show up; the
      // target model folds it into the contention factor.
      for (size_t k = 0; k < n; ++k) {
        row[k] = std::min(1.0, hits_[i * n + k] / s.requests);
      }
      row[i] = s.concurrent_sum / s.requests;
    }
    SetOverlapRow(&w, i, row);
    LDB_CHECK(IsValidWorkload(w, n, i));
  }
  return out;
}

// -------------------------------------------------- ReorderingTraceFitter

ReorderingTraceFitter::ReorderingTraceFitter(int num_objects,
                                             AnalyzerOptions options,
                                             double half_life_s)
    : fitter_(num_objects, options, half_life_s) {}

void ReorderingTraceFitter::Observe(const IoEvent& ev) {
  if (!error_.ok()) return;
  if (ev.seq == next_seq_ && held_ == 0 && far_.empty()) {
    fitter_.Add(ev, next_seq_++);  // in order with nothing waiting
    return;
  }
  if (ev.seq < next_seq_) {
    error_ = Status::InvalidArgument(
        StrFormat("event %" PRIu64 " observed twice", ev.seq));
    return;
  }
  Hold(ev);
  Release();
}

void ReorderingTraceFitter::Hold(const IoEvent& ev) {
  const uint64_t ahead = ev.seq - next_seq_;
  if (ahead >= ring_.size()) Grow(ahead);
  bool fresh = false;
  if (ahead < ring_.size()) {
    IoEvent& slot = ring_[ev.seq & (ring_.size() - 1)];
    fresh = slot.seq != ev.seq && far_.count(ev.seq) == 0;
    if (fresh) {
      slot = ev;
      ++held_;
    }
  } else {
    fresh = far_.try_emplace(ev.seq, ev).second;
  }
  if (!fresh) {
    error_ = Status::InvalidArgument(
        StrFormat("event %" PRIu64 " observed twice", ev.seq));
  }
}

void ReorderingTraceFitter::Grow(uint64_t ahead) {
  const uint64_t limit = std::max(
      kMinRing, 4 * std::bit_ceil(uint64_t{held_ + far_.size() + 1}));
  if (ahead >= limit) return;
  // Empty slots carry next_seq_ - 1, a seq that is never held.
  IoEvent empty;
  empty.seq = next_seq_ - 1;
  std::vector<IoEvent> ring(std::max(kMinRing, std::bit_ceil(ahead + 1)),
                            empty);
  const uint64_t mask = ring.size() - 1;
  for (const IoEvent& ev : ring_) {
    if (ev.seq - next_seq_ < ring_.size()) ring[ev.seq & mask] = ev;
  }
  ring_ = std::move(ring);
}

void ReorderingTraceFitter::Release() {
  for (;;) {
    if (held_ > 0) {
      const IoEvent& slot = ring_[next_seq_ & (ring_.size() - 1)];
      if (slot.seq == next_seq_) {
        --held_;
        fitter_.Add(slot, next_seq_++);
        continue;
      }
    }
    if (far_.empty() || far_.begin()->first != next_seq_) return;
    fitter_.Add(far_.begin()->second, next_seq_++);
    far_.erase(far_.begin());
  }
}

Result<WorkloadSet> ReorderingTraceFitter::Snapshot() const {
  if (!error_.ok()) return error_;
  return fitter_.Snapshot();
}

Result<WorkloadSet> ReorderingTraceFitter::Finish() {
  if (!error_.ok()) return error_;
  if (held_ > 0 || !far_.empty()) {
    return Status::InvalidArgument(StrFormat(
        "event %" PRIu64 " was never observed (%zu later events buffered): "
        "seq must be dense from 0",
        next_seq_, held_ + far_.size()));
  }
  return fitter_.Finish();
}

// ---------------------------------------------------------- TraceAnalyzer

Result<WorkloadSet> TraceAnalyzer::Analyze(const IoTrace& trace,
                                           int num_objects) const {
  if (trace.empty()) {
    return Status::InvalidArgument("cannot analyze an empty trace");
  }
  if (num_objects <= 0) {
    return Status::InvalidArgument("num_objects must be positive");
  }
  // Validate before sorting (a NaN time would break the sort's ordering),
  // naming events by their trace index.
  const std::vector<IoEvent>& events = trace.events();
  for (size_t e = 0; e < events.size(); ++e) {
    LDB_RETURN_IF_ERROR(CheckEvent(events[e], num_objects, e));
  }

  // Sort events by (submit time, seq): the trace is stored in completion
  // order, and seq is the exact issue order on ties. The trace index as the
  // last key keeps equal (time, seq) pairs in trace order, as a stable sort
  // would.
  struct Key {
    double submit_time;
    uint64_t seq;
    size_t index;
  };
  std::vector<Key> order(events.size());
  for (size_t e = 0; e < events.size(); ++e) {
    order[e] = Key{events[e].submit_time, events[e].seq, e};
  }
  std::sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.index < b.index;
  });

  TraceFitter fitter(num_objects, options_);
  for (const Key& key : order) fitter.Add(events[key.index], key.index);
  return fitter.Finish();
}

}  // namespace ldb
