#include "monitor/online_analyzer.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ldb {

OnlineAnalyzer::OnlineAnalyzer(int num_objects, OnlineAnalyzerOptions options)
    : n_(num_objects), options_(options) {
  LDB_CHECK_GT(n_, 0);
  options_.ring_capacity = std::max(1, options_.ring_capacity);
  options_.busy_capacity = std::max(1, options_.busy_capacity);
  if (options_.half_life_s > 0.0 && std::isfinite(options_.half_life_s)) {
    lambda_ = std::log(2.0) / options_.half_life_s;
  }
  mask_words_ = (n_ + 63) / 64;
  rows_.assign(static_cast<size_t>(n_), Row{});
  hits_.assign(static_cast<size_t>(n_) * static_cast<size_t>(n_), 0.0);
  trackers_.assign(static_cast<size_t>(n_),
                   SequentialRunTracker(options_.max_open_runs,
                                        options_.sequential_slack_bytes));
  ring_.assign(static_cast<size_t>(n_) *
                   static_cast<size_t>(options_.ring_capacity),
               Entry{});
  masks_.assign(ring_.size() * static_cast<size_t>(mask_words_), 0);
  busy_.assign(static_cast<size_t>(n_) *
                   static_cast<size_t>(options_.busy_capacity),
               BusyInterval{});
  mask_scratch_.assign(static_cast<size_t>(mask_words_), 0);
}

double OnlineAnalyzer::DecayFactor(double dt) const {
  if (lambda_ == 0.0 || dt <= 0.0) return 1.0;
  return std::exp(-lambda_ * dt);
}

void OnlineAnalyzer::DecayRowTo(int i, double t) {
  Row& row = rows_[static_cast<size_t>(i)];
  if (t <= row.last_t) return;
  if (lambda_ == 0.0) {
    row.last_t = t;
    return;
  }
  const double f = std::exp(-lambda_ * (t - row.last_t));
  row.last_t = t;
  row.reads *= f;
  row.writes *= f;
  row.read_bytes *= f;
  row.write_bytes *= f;
  row.runs *= f;
  row.requests *= f;
  row.self_sum *= f;
  double* hrow = &hits_[static_cast<size_t>(i) * static_cast<size_t>(n_)];
  for (int k = 0; k < n_; ++k) hrow[k] *= f;
}

uint64_t* OnlineAnalyzer::MaskOf(int object, int slot) {
  return &masks_[(static_cast<size_t>(object) *
                      static_cast<size_t>(options_.ring_capacity) +
                  static_cast<size_t>(slot)) *
                 static_cast<size_t>(mask_words_)];
}

const uint64_t* OnlineAnalyzer::MaskOf(int object, int slot) const {
  return &masks_[(static_cast<size_t>(object) *
                      static_cast<size_t>(options_.ring_capacity) +
                  static_cast<size_t>(slot)) *
                 static_cast<size_t>(mask_words_)];
}

void OnlineAnalyzer::Observe(const IoEvent& ev) {
  LDB_CHECK(ev.object >= 0 && ev.object < n_);
  const int i = ev.object;
  const double t = ev.submit_time;
  const double c = ev.complete_time;
  const double w = options_.overlap_window_s;
  const int cap = options_.ring_capacity;

  if (events_ == 0) {
    min_submit_ = t;
    max_complete_ = c;
  } else {
    min_submit_ = std::min(min_submit_, t);
    max_complete_ = std::max(max_complete_, c);
  }
  ++events_;

  DecayRowTo(i, c);
  Row& row = rows_[static_cast<size_t>(i)];
  row.requests += 1.0;
  if (ev.is_write) {
    row.writes += 1.0;
    row.write_bytes += static_cast<double>(ev.size);
  } else {
    row.reads += 1.0;
    row.read_bytes += static_cast<double>(ev.size);
  }
  if (trackers_[static_cast<size_t>(i)].Observe(ev.logical_offset, ev.size)) {
    row.runs += 1.0;
  }

  // Overlap accounting. mask_scratch_ accumulates which objects k already
  // scored a hit against this request's submit; it becomes the ring
  // entry's hit mask.
  for (int mw = 0; mw < mask_words_; ++mw) mask_scratch_[mw] = 0;
  double* hrow = &hits_[static_cast<size_t>(i) * static_cast<size_t>(n_)];

  // Immediate half: this submit against each other object's merged busy
  // union observed so far (one hit per k at most; sets the mask bit).
  for (int k = 0; k < n_; ++k) {
    if (k == i) continue;
    const Row& rk = rows_[static_cast<size_t>(k)];
    const BusyInterval* kbusy =
        &busy_[static_cast<size_t>(k) *
               static_cast<size_t>(options_.busy_capacity)];
    for (int idx = rk.busy_size - 1; idx >= 0; --idx) {
      const BusyInterval& bi =
          kbusy[(rk.busy_head + idx) % options_.busy_capacity];
      if (bi.hi < t) break;  // sorted by hi: older ones end even earlier
      if (bi.lo <= t) {
        hrow[k] += 1.0;
        mask_scratch_[k >> 6] |= uint64_t{1} << (k & 63);
        break;
      }
    }
  }

  // Deferred half: this request's in-flight interval against every
  // object's retained submits observed before it. Self pairs use the raw
  // interval (only genuinely concurrent own requests compete); cross
  // pairs use the padded one and respect the per-entry hit mask.
  for (int o = 0; o < n_; ++o) {
    Row& ro = rows_[static_cast<size_t>(o)];
    const Entry* oring =
        &ring_[static_cast<size_t>(o) * static_cast<size_t>(cap)];
    if (o == i) {
      for (int idx = ro.ring_size - 1; idx >= 0; --idx) {
        const Entry& e = oring[(ro.ring_head + idx) % cap];
        if (e.complete < t) break;
        // Immediate self: the retained request was in flight at this
        // submit (its weight is this event's, i.e. 1).
        if (e.complete > t && e.submit <= t) row.self_sum += 1.0;
        // Deferred self: this interval covers the retained submit (its
        // weight is the retained request's).
        if (e.submit >= t && e.submit < c) {
          row.self_sum += DecayFactor(c - e.complete);
        }
      }
      continue;
    }
    const double lo = t - w;
    bool decayed = false;
    for (int idx = ro.ring_size - 1; idx >= 0; --idx) {
      const int slot = (ro.ring_head + idx) % cap;
      const Entry& e = oring[slot];
      if (e.complete < lo) break;
      if (e.submit < lo) continue;
      uint64_t* mask = MaskOf(o, slot);
      if ((mask[i >> 6] >> (i & 63)) & 1) continue;  // already hit k=i
      if (!decayed) {
        DecayRowTo(o, c);
        decayed = true;
      }
      hits_[static_cast<size_t>(o) * static_cast<size_t>(n_) + i] +=
          DecayFactor(c - e.complete);
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }

  // Retain this request in the submit ring (evicting the oldest entry
  // when full) with the hit mask accumulated above.
  int slot;
  if (row.ring_size < cap) {
    slot = (row.ring_head + row.ring_size) % cap;
    ++row.ring_size;
  } else {
    slot = row.ring_head;
    row.ring_head = (row.ring_head + 1) % cap;
  }
  Entry& mine = ring_[static_cast<size_t>(i) * static_cast<size_t>(cap) +
                      static_cast<size_t>(slot)];
  mine.submit = t;
  mine.complete = c;
  uint64_t* mymask = MaskOf(i, slot);
  for (int mw = 0; mw < mask_words_; ++mw) mymask[mw] = mask_scratch_[mw];

  // Merge the padded interval into the busy union. Completion times are
  // nondecreasing, so the new interval has the largest hi; it may swallow
  // any number of recent entries whose hi reaches back past its lo.
  {
    const int bcap = options_.busy_capacity;
    BusyInterval* mybusy =
        &busy_[static_cast<size_t>(i) * static_cast<size_t>(bcap)];
    double lo = t - w;
    double hi = c + w;
    while (row.busy_size > 0) {
      BusyInterval& newest =
          mybusy[(row.busy_head + row.busy_size - 1) % bcap];
      if (newest.hi < lo) break;
      lo = std::min(lo, newest.lo);
      hi = std::max(hi, newest.hi);
      --row.busy_size;
    }
    int bslot;
    if (row.busy_size < bcap) {
      bslot = (row.busy_head + row.busy_size) % bcap;
      ++row.busy_size;
    } else {
      bslot = row.busy_head;
      row.busy_head = (row.busy_head + 1) % bcap;
    }
    mybusy[bslot] = BusyInterval{lo, hi};
  }
}

WorkloadSet OnlineAnalyzer::Snapshot() const {
  WorkloadSet out(static_cast<size_t>(n_));
  // Idle objects keep a diagonal-only row.
  for (int i = 0; i < n_; ++i) {
    out[static_cast<size_t>(i)].overlap_index = {i};
    out[static_cast<size_t>(i)].overlap_value = {0.0};
  }
  if (events_ == 0) return out;

  const double T = max_complete_;
  const double duration = std::max(T - min_submit_, 1e-12);
  const double window =
      lambda_ > 0.0 ? (1.0 - std::exp(-lambda_ * duration)) / lambda_
                    : duration;

  std::vector<double> overlap(static_cast<size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const Row& row = rows_[static_cast<size_t>(i)];
    WorkloadDesc& w = out[static_cast<size_t>(i)];
    const double f = DecayFactor(T - row.last_t);
    const double requests = row.requests * f;
    if (requests <= 1e-12) continue;
    w.read_rate = row.reads * f / window;
    w.write_rate = row.writes * f / window;
    w.read_size = row.reads > 0.0 ? row.read_bytes / row.reads : 0.0;
    w.write_size = row.writes > 0.0 ? row.write_bytes / row.writes : 0.0;
    w.run_count =
        row.runs > 0.0 ? std::max(1.0, row.requests / row.runs) : 1.0;
    const double* hrow =
        &hits_[static_cast<size_t>(i) * static_cast<size_t>(n_)];
    for (int k = 0; k < n_; ++k) {
      if (k == i) continue;
      overlap[static_cast<size_t>(k)] =
          std::clamp(hrow[k] / row.requests, 0.0, 1.0);
    }
    overlap[static_cast<size_t>(i)] =
        std::max(0.0, row.self_sum / row.requests);
    SetOverlapRow(&w, static_cast<size_t>(i), overlap);
    LDB_CHECK(IsValidWorkload(w, static_cast<size_t>(n_),
                              static_cast<size_t>(i)));
  }
  return out;
}

void OnlineAnalyzer::Reset() {
  rows_.assign(rows_.size(), Row{});
  std::fill(hits_.begin(), hits_.end(), 0.0);
  for (SequentialRunTracker& tr : trackers_) tr.Reset();
  std::fill(masks_.begin(), masks_.end(), 0);
  events_ = 0;
  min_submit_ = 0.0;
  max_complete_ = 0.0;
}

}  // namespace ldb
