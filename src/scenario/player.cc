#include "scenario/player.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/random.h"
#include "workload/request_slab.h"

namespace ldb {

namespace {

/// Open-loop overload protection: logical requests beyond this many in
/// flight are shed (counted, not submitted). Deterministic — shedding
/// depends only on the event order, which is seed-determined.
constexpr int kMaxInFlight = 4096;

/// Per-tenant driver state: one RNG stream and a staleness generation.
struct TenantState {
  Rng rng;
  /// Bumped at every rate boundary so arrival events scheduled under the
  /// old intensity cancel themselves (the event queue has no removal).
  uint64_t generation = 0;

  explicit TenantState(uint64_t seed) : rng(seed) {}
};

/// Per-object sequential cursor: `runs > 1` tenants continue a run this
/// many more times before jumping to a fresh random offset.
struct Cursor {
  int64_t next_offset = 0;
  int remaining_run = 0;
};

}  // namespace

ScenarioPlayer::ScenarioPlayer(StorageSystem* system, VolumeRouter* router,
                               const ScenarioSpec& spec,
                               ScenarioPlayerOptions options)
    : system_(system),
      router_(router),
      spec_(&spec),
      options_(options) {}

Result<RunResult> ScenarioPlayer::Play() {
  LDB_RETURN_IF_ERROR(spec_->Validate(router_->num_objects()));

  // Start from quiescent devices so measurements reflect this run only.
  for (int j = 0; j < system_->num_targets(); ++j) system_->target(j).Reset();

  // Scenario-clock resume: `pos` seconds of the timeline already played
  // (in a previous, killed process). `origin` is where the scenario's t=0
  // falls on the simulation clock, so `now - origin` is the absolute
  // scenario position everywhere below; a fresh run has origin ==
  // start_time and plays the full duration.
  const double pos =
      std::clamp(options_.start_offset_s, 0.0, spec_->duration_s);
  const double start_time = system_->Now();
  const double origin = start_time - pos;
  const double end_time = origin + spec_->duration_s;
  const InteractionGraph graph(*spec_);

  // MixSeed-per-tenant streams: bit-identical for any host thread count.
  const uint64_t base = MixSeed(spec_->seed, options_.seed);
  std::vector<TenantState> tenants;
  tenants.reserve(spec_->tenants.size());
  for (size_t t = 0; t < spec_->tenants.size(); ++t) {
    tenants.emplace_back(MixSeed(base, t));
  }
  std::vector<Cursor> cursors(
      static_cast<size_t>(router_->num_objects()));

  bool finished = false;
  int in_flight = 0;
  uint64_t completed = 0;
  uint64_t next_logical_seq = 0;
  std::vector<TargetChunk> chunks;  // scratch, reused across submissions
  // Per-request contexts: a chunk completion captures only {slab, index}.
  struct NoPayload {};
  using Slab = RequestSlab<NoPayload>;
  Slab slab([&](const Slab::Request& r) {
    --in_flight;
    ++completed;
    if (logical_observer_) logical_observer_(r.event);
  });

  // Issues one logical request against `object`. RNG is always consumed
  // (offset + read/write coin) before the shed decision, so the arrival
  // stream is independent of the in-flight cap.
  auto issue = [&](TenantState& ts, const ScenarioTenant& tenant,
                   int object) {
    const int64_t osize = router_->object_size(object);
    const int64_t req = std::min<int64_t>(tenant.request_bytes, osize);
    Cursor& cur = cursors[static_cast<size_t>(object)];
    int64_t offset = 0;
    if (cur.remaining_run > 0 && cur.next_offset + req <= osize) {
      offset = cur.next_offset;
      --cur.remaining_run;
    } else {
      const int64_t slots = (osize - req) / std::max<int64_t>(req, 1);
      offset = slots > 0
                   ? static_cast<int64_t>(ts.rng.UniformInt(
                         int64_t{0}, slots)) * req
                   : 0;
      cur.remaining_run =
          std::max(0, static_cast<int>(tenant.run_length) - 1);
    }
    cur.next_offset = offset + req;
    const bool is_write = tenant.write_fraction >= 1.0 ||
                          (tenant.write_fraction > 0.0 &&
                           ts.rng.Bernoulli(tenant.write_fraction));

    if (in_flight >= kMaxInFlight) {
      ++stats_.shed;
      return;
    }
    ++stats_.requests;
    ++in_flight;

    chunks.clear();
    router_->Route(object, offset, req, is_write, &chunks);
    const uint32_t index = slab.Open(static_cast<int>(chunks.size()));
    if (logical_observer_) {
      slab.at(index).event = LogicalEvent(system_->Now(), next_logical_seq++,
                                          object, offset, req, is_write);
    }
    int64_t logical = offset;
    for (const TargetChunk& c : chunks) {
      TargetRequest tr;
      tr.offset = c.offset;
      tr.size = c.size;
      tr.is_write = is_write;
      tr.object = object;
      tr.logical_offset = logical;
      logical += c.size;
      system_->SubmitWithStatus(c.target, tr, slab.ChunkCompletion(index));
    }
  };

  // Arrival chain per tenant. Exponential gaps sampled at the current
  // intensity; boundary events below bump the generation and restart the
  // chain so intensity changes take effect immediately.
  std::function<void(size_t, uint64_t)> schedule_next;
  std::function<void(size_t, uint64_t)> fire = [&](size_t t, uint64_t gen) {
    TenantState& ts = tenants[t];
    if (gen != ts.generation || finished) return;
    const double now = system_->Now();
    if (now >= end_time) return;
    const ScenarioTenant& tenant = spec_->tenants[t];
    const double mult =
        TenantRateMultiplier(*spec_, t, now - origin);
    if (mult > 0.0) {
      ++stats_.arrivals;
      const int anchor =
          tenant.first_object +
          static_cast<int>(ts.rng.UniformInt(
              int64_t{0}, static_cast<int64_t>(tenant.count - 1)));
      if (graph.GraphOf(anchor) >= 0) {
        // Community co-access burst: the anchor plus burst-1 distinct
        // peers from its current community, submitted together.
        const ScenarioGraph& g = spec_->graphs[static_cast<size_t>(
            graph.GraphOf(anchor))];
        const std::vector<int>& peers =
            graph.Community(anchor, now - origin);
        issue(ts, tenant, anchor);
        int issued = 1;
        const size_t stride =
            1 + ts.rng.UniformInt(static_cast<uint64_t>(peers.size()));
        for (size_t k = 0; issued < g.burst && k < peers.size(); ++k) {
          const int peer =
              peers[(k * stride + stride) % peers.size()];
          if (peer == anchor) continue;
          issue(ts, tenant, peer);
          ++issued;
        }
      } else {
        issue(ts, tenant, anchor);
      }
    }
    schedule_next(t, gen);
  };
  schedule_next = [&](size_t t, uint64_t gen) {
    TenantState& ts = tenants[t];
    if (gen != ts.generation || finished) return;
    const double now = system_->Now();
    const double mult =
        TenantRateMultiplier(*spec_, t, now - origin);
    const ScenarioTenant& tenant = spec_->tenants[t];
    const double lambda = tenant.rate * mult * tenant.count;
    if (lambda <= 0.0) return;  // a boundary event will restart the chain
    const double gap = ts.rng.Exponential(1.0 / lambda);
    const double at = now + gap;
    if (at >= end_time) return;
    system_->queue().ScheduleAt(at, [&, t, gen]() { fire(t, gen); });
  };

  // Rate boundaries: phase/flash edges, drift start (the ramp itself is
  // sampled at scheduling instants), churn arrivals/departures. Each
  // bumps the tenant's generation and restarts its arrival chain at the
  // new intensity.
  std::vector<std::vector<double>> boundaries(spec_->tenants.size());
  for (size_t t = 0; t < spec_->tenants.size(); ++t) {
    boundaries[t].push_back(spec_->tenants[t].arrive_s);
    const double depart = spec_->DepartTime(t);
    if (depart < spec_->duration_s) boundaries[t].push_back(depart);
  }
  for (const ScenarioPhase& p : spec_->phases) {
    boundaries[static_cast<size_t>(p.tenant)].push_back(p.start_s);
    boundaries[static_cast<size_t>(p.tenant)].push_back(p.end_s);
  }
  for (const ScenarioDrift& d : spec_->drifts) {
    // Sample the geometric ramp at eight points so sampled intensities
    // track the curve even with sparse arrivals.
    for (int k = 0; k <= 8; ++k) {
      boundaries[static_cast<size_t>(d.tenant)].push_back(
          d.start_s + (d.end_s - d.start_s) * k / 8.0);
    }
  }
  for (size_t t = 0; t < boundaries.size(); ++t) {
    std::sort(boundaries[t].begin(), boundaries[t].end());
    boundaries[t].erase(
        std::unique(boundaries[t].begin(), boundaries[t].end()),
        boundaries[t].end());
    for (double b : boundaries[t]) {
      // Boundaries already behind the resume position are folded into the
      // kickoff intensity below; the rest land on the shifted clock.
      if (b < pos || b >= spec_->duration_s) continue;
      system_->queue().ScheduleAt(origin + b, [&, t]() {
        if (finished) return;
        const uint64_t gen = ++tenants[t].generation;
        schedule_next(t, gen);
      });
    }
  }

  // The scenario end: stop all arrival chains and report logical finish
  // (in-flight requests drain inside the same RunUntilIdle).
  system_->queue().ScheduleAt(end_time, [&]() {
    finished = true;
    if (on_finished_) on_finished_();
  });

  // Kick off every tenant active at the starting position (boundary
  // events handle later arrivals).
  for (size_t t = 0; t < spec_->tenants.size(); ++t) {
    if (spec_->tenants[t].arrive_s <= pos) {
      schedule_next(t, tenants[t].generation);
    }
  }

  system_->queue().RunUntilIdle();

  RunResult result;
  result.elapsed_seconds = spec_->duration_s - pos;
  result.total_requests = completed;
  result.faults = system_->TotalFaultStats();
  const double elapsed = std::max(result.elapsed_seconds, 1e-9);
  for (int j = 0; j < system_->num_targets(); ++j) {
    result.utilization.push_back(system_->MeasuredUtilization(j, elapsed));
  }
  return result;
}

}  // namespace ldb
