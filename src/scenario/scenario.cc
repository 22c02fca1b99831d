#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/check.h"
#include "util/random.h"
#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {

namespace {

/// "a:b" -> [a, b). Both bounds required.
Status ParseRange(std::string_view value, int* first, int* count) {
  const size_t colon = value.find(':');
  int a = 0, b = 0;
  if (colon == std::string_view::npos ||
      !ParseInteger(value.substr(0, colon), &a) ||
      !ParseInteger(value.substr(colon + 1), &b)) {
    return Status::InvalidArgument(
        StrFormat("objects must be <first>:<end>, got '%.*s'",
                  static_cast<int>(value.size()), value.data()));
  }
  if (a < 0 || b <= a) {
    return Status::InvalidArgument(
        StrFormat("objects range '%.*s' must satisfy 0 <= first < end",
                  static_cast<int>(value.size()), value.data()));
  }
  *first = a;
  *count = b - a;
  return Status::Ok();
}

}  // namespace

int ScenarioSpec::FindTenant(const std::string& name) const {
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double ScenarioSpec::DepartTime(size_t t) const {
  const double depart = tenants[t].depart_s;
  return depart > 0.0 ? depart : duration_s;
}

Status ScenarioSpec::Validate(int num_objects) const {
  if (!(duration_s > 0.0) || !std::isfinite(duration_s)) {
    return Status::InvalidArgument("scenario duration must be > 0");
  }
  if (tenants.empty()) {
    return Status::InvalidArgument("scenario has no tenants");
  }
  for (size_t i = 0; i < tenants.size(); ++i) {
    const ScenarioTenant& t = tenants[i];
    const auto fail = [&](const std::string& what) {
      return Status::InvalidArgument(StrFormat(
          "tenant '%s': %s", t.name.c_str(), what.c_str()));
    };
    if (t.name.empty()) return fail("empty name");
    for (size_t k = 0; k < i; ++k) {
      if (tenants[k].name == t.name) return fail("duplicate tenant name");
    }
    if (t.first_object < 0 || t.count < 1) return fail("bad object range");
    if (num_objects >= 0 && t.first_object + t.count > num_objects) {
      return fail(StrFormat("object range [%d,%d) exceeds catalog size %d",
                            t.first_object, t.first_object + t.count,
                            num_objects));
    }
    if (t.rate < 0.0 || !std::isfinite(t.rate)) return fail("bad rate");
    if (t.request_bytes < 1) return fail("bytes must be >= 1");
    if (t.write_fraction < 0.0 || t.write_fraction > 1.0 ||
        std::isnan(t.write_fraction)) {
      return fail("write fraction must be in [0,1]");
    }
    if (!(t.run_length >= 1.0) || !std::isfinite(t.run_length)) {
      return fail("runs must be >= 1");
    }
    if (t.arrive_s < 0.0) return fail("arrive must be >= 0");
    if (t.depart_s < 0.0) return fail("depart must be >= 0");
    if (t.depart_s > 0.0 && t.depart_s <= t.arrive_s) {
      return fail("depart must be after arrive");
    }
  }
  for (const ScenarioPhase& p : phases) {
    if (p.tenant < 0 || p.tenant >= static_cast<int>(tenants.size())) {
      return Status::InvalidArgument("phase references unknown tenant");
    }
    if (!(p.end_s > p.start_s) || p.start_s < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "phase on '%s': end must be after start",
          tenants[static_cast<size_t>(p.tenant)].name.c_str()));
    }
    if (!(p.multiplier > 0.0) || !std::isfinite(p.multiplier)) {
      return Status::InvalidArgument(StrFormat(
          "phase on '%s': x must be > 0",
          tenants[static_cast<size_t>(p.tenant)].name.c_str()));
    }
  }
  for (const ScenarioDrift& d : drifts) {
    if (d.tenant < 0 || d.tenant >= static_cast<int>(tenants.size())) {
      return Status::InvalidArgument("drift references unknown tenant");
    }
    const std::string& name =
        tenants[static_cast<size_t>(d.tenant)].name;
    if (!(d.end_s > d.start_s) || d.start_s < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "drift on '%s': end must be after start", name.c_str()));
    }
    if (!(d.multiplier > 0.0) || !std::isfinite(d.multiplier)) {
      return Status::InvalidArgument(StrFormat(
          "drift on '%s': x must be > 0", name.c_str()));
    }
  }
  for (const ScenarioGraph& g : graphs) {
    if (g.tenant < 0 || g.tenant >= static_cast<int>(tenants.size())) {
      return Status::InvalidArgument("graph references unknown tenant");
    }
    const ScenarioTenant& t = tenants[static_cast<size_t>(g.tenant)];
    const auto fail = [&](const std::string& what) {
      return Status::InvalidArgument(StrFormat(
          "graph on '%s': %s", t.name.c_str(), what.c_str()));
    };
    if (g.communities < 1) return fail("communities must be >= 1");
    if (g.communities > t.count) {
      return fail("more communities than tenant objects");
    }
    if (g.coaccess < 0.0 || g.coaccess > 1.0 || std::isnan(g.coaccess)) {
      return fail("coaccess must be in [0,1]");
    }
    if (g.rewire_s < 0.0) return fail("rewire must be >= 0");
    if (g.burst < 1 || g.burst > t.count) {
      return fail("burst must be in [1, tenant objects]");
    }
    for (const ScenarioGraph& other : graphs) {
      if (&other != &g && other.tenant == g.tenant) {
        return fail("multiple graph clauses for one tenant");
      }
    }
  }
  return Status::Ok();
}

Result<ScenarioSpec> ParseScenarioSpec(const std::string& text) {
  auto clauses = SplitSpecClauses("scenario spec", text);
  if (!clauses.ok()) return clauses.status();
  ScenarioSpec spec;
  bool saw_duration = false;
  for (const SpecClause& clause : *clauses) {
    const std::vector<SpecItem>& items = clause.items;
    if (items.empty()) continue;
    const std::string& kind = items[0].key;

    const auto tenant_ref = [&](const std::string& name) -> Result<int> {
      const int t = spec.FindTenant(name);
      if (t < 0) {
        return clause.Error(StrFormat(
            "unknown tenant '%s' (tenants must be declared first)",
            name.c_str()));
      }
      return t;
    };

    if (kind == "duration") {
      if (items.size() != 1) {
        return clause.Error("duration takes no further keys");
      }
      double dv = 0.0;
      LDB_RETURN_IF_ERROR(clause.Decimal(items[0], &dv));
      if (!(dv > 0.0) || !std::isfinite(dv)) {
        return clause.Error("duration must be > 0");
      }
      spec.duration_s = dv;
      saw_duration = true;
    } else if (kind == "seed") {
      if (items.size() != 1) return clause.Error("seed takes no further keys");
      int64_t iv = 0;
      LDB_RETURN_IF_ERROR(clause.Integer(items[0], &iv));
      if (iv < 0) return clause.Error("seed must be >= 0");
      spec.seed = static_cast<uint64_t>(iv);
    } else if (kind == "tenant") {
      ScenarioTenant t;
      t.name = items[0].value;
      if (t.name.empty()) return clause.Error("tenant name is empty");
      if (spec.FindTenant(t.name) >= 0) {
        return clause.Error(StrFormat("duplicate tenant '%s'",
                                      t.name.c_str()));
      }
      bool saw_objects = false, saw_rate = false;
      for (size_t i = 1; i < items.size(); ++i) {
        const std::string& key = items[i].key;
        double dv = 0.0;
        if (key == "objects") {
          Status s = ParseRange(items[i].value, &t.first_object, &t.count);
          if (!s.ok()) return clause.Error(std::string(s.message()));
          saw_objects = true;
        } else if (key == "rate") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (dv < 0.0 || !std::isfinite(dv)) {
            return clause.Error("rate must be >= 0");
          }
          t.rate = dv;
          saw_rate = true;
        } else if (key == "bytes") {
          LDB_RETURN_IF_ERROR(clause.Integer(items[i], &t.request_bytes));
          if (t.request_bytes < 1) return clause.Error("bytes must be >= 1");
        } else if (key == "write") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (dv < 0.0 || dv > 1.0 || std::isnan(dv)) {
            return clause.Error("write must be in [0,1]");
          }
          t.write_fraction = dv;
        } else if (key == "runs") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (!(dv >= 1.0) || !std::isfinite(dv)) {
            return clause.Error("runs must be >= 1");
          }
          t.run_length = dv;
        } else if (key == "arrive") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (dv < 0.0) return clause.Error("arrive must be >= 0");
          t.arrive_s = dv;
        } else if (key == "depart") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (!(dv > 0.0)) return clause.Error("depart must be > 0");
          t.depart_s = dv;
        } else {
          return clause.Error(StrFormat("unknown tenant key '%s'",
                                        key.c_str()));
        }
      }
      if (!saw_objects) return clause.Error("tenant needs objects=<a>:<b>");
      if (!saw_rate) return clause.Error("tenant needs rate=<r>");
      spec.tenants.push_back(std::move(t));
    } else if (kind == "phase" || kind == "flash") {
      auto t = tenant_ref(items[0].value);
      if (!t.ok()) return t.status();
      ScenarioPhase p;
      p.tenant = *t;
      const bool flash = kind == "flash";
      double at = 0.0, dur = 0.0;
      bool saw_x = false, saw_a = false, saw_b = false;
      for (size_t i = 1; i < items.size(); ++i) {
        const std::string& key = items[i].key;
        double dv = 0.0;
        LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
        if (!flash && key == "start") {
          p.start_s = dv;
          saw_a = true;
        } else if (!flash && key == "end") {
          p.end_s = dv;
          saw_b = true;
        } else if (flash && key == "at") {
          at = dv;
          saw_a = true;
        } else if (flash && key == "for") {
          dur = dv;
          saw_b = true;
        } else if (key == "x") {
          if (!(dv > 0.0) || !std::isfinite(dv)) {
            return clause.Error("x must be > 0");
          }
          p.multiplier = dv;
          saw_x = true;
        } else {
          return clause.Error(StrFormat("unknown %s key '%s'", kind.c_str(),
                                        key.c_str()));
        }
      }
      if (!saw_a || !saw_b || !saw_x) {
        return clause.Error(flash ? "flash needs at=, for=, x="
                                  : "phase needs start=, end=, x=");
      }
      if (flash) {
        if (at < 0.0 || !(dur > 0.0)) {
          return clause.Error("flash needs at >= 0 and for > 0");
        }
        p.start_s = at;
        p.end_s = at + dur;
      } else if (p.start_s < 0.0 || !(p.end_s > p.start_s)) {
        return clause.Error("phase needs 0 <= start < end");
      }
      spec.phases.push_back(p);
    } else if (kind == "drift") {
      auto t = tenant_ref(items[0].value);
      if (!t.ok()) return t.status();
      ScenarioDrift d;
      d.tenant = *t;
      bool saw_x = false, saw_a = false, saw_b = false;
      for (size_t i = 1; i < items.size(); ++i) {
        const std::string& key = items[i].key;
        double dv = 0.0;
        LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
        if (key == "start") {
          d.start_s = dv;
          saw_a = true;
        } else if (key == "end") {
          d.end_s = dv;
          saw_b = true;
        } else if (key == "x") {
          if (!(dv > 0.0) || !std::isfinite(dv)) {
            return clause.Error("x must be > 0");
          }
          d.multiplier = dv;
          saw_x = true;
        } else {
          return clause.Error(StrFormat("unknown drift key '%s'",
                                        key.c_str()));
        }
      }
      if (!saw_a || !saw_b || !saw_x) {
        return clause.Error("drift needs start=, end=, x=");
      }
      if (d.start_s < 0.0 || !(d.end_s > d.start_s)) {
        return clause.Error("drift needs 0 <= start < end");
      }
      spec.drifts.push_back(d);
    } else if (kind == "graph") {
      auto t = tenant_ref(items[0].value);
      if (!t.ok()) return t.status();
      ScenarioGraph g;
      g.tenant = *t;
      for (size_t i = 1; i < items.size(); ++i) {
        const std::string& key = items[i].key;
        double dv = 0.0;
        if (key == "communities") {
          LDB_RETURN_IF_ERROR(clause.Integer(items[i], &g.communities));
          if (g.communities < 1) {
            return clause.Error("communities must be >= 1");
          }
        } else if (key == "coaccess") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (dv < 0.0 || dv > 1.0 || std::isnan(dv)) {
            return clause.Error("coaccess must be in [0,1]");
          }
          g.coaccess = dv;
        } else if (key == "rewire") {
          LDB_RETURN_IF_ERROR(clause.Decimal(items[i], &dv));
          if (dv < 0.0 || !std::isfinite(dv)) {
            return clause.Error("rewire must be >= 0");
          }
          g.rewire_s = dv;
        } else if (key == "burst") {
          LDB_RETURN_IF_ERROR(clause.Integer(items[i], &g.burst));
          if (g.burst < 1) return clause.Error("burst must be >= 1");
        } else {
          return clause.Error(StrFormat("unknown graph key '%s'",
                                        key.c_str()));
        }
      }
      spec.graphs.push_back(g);
    } else {
      return clause.Error(StrFormat("unknown clause kind '%s'",
                                    kind.c_str()));
    }
  }
  if (!saw_duration) {
    return Status::InvalidArgument(
        "scenario spec: missing duration=<s> clause");
  }
  LDB_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

std::string ScenarioToString(const ScenarioSpec& spec) {
  const auto name = [&spec](int tenant) {
    return spec.tenants[static_cast<size_t>(tenant)].name.c_str();
  };
  std::string out =
      StrFormat("duration=%s;seed=%llu", FormatExact(spec.duration_s).c_str(),
                static_cast<unsigned long long>(spec.seed));
  for (const ScenarioTenant& t : spec.tenants) {
    out += StrFormat(
        ";tenant=%s,objects=%d:%d,rate=%s,bytes=%lld,write=%s,runs=%s,"
        "arrive=%s",
        t.name.c_str(), t.first_object, t.first_object + t.count,
        FormatExact(t.rate).c_str(), static_cast<long long>(t.request_bytes),
        FormatExact(t.write_fraction).c_str(),
        FormatExact(t.run_length).c_str(), FormatExact(t.arrive_s).c_str());
    // depart=0 (stay to the end) has no spelling; the parser wants > 0.
    if (t.depart_s > 0.0) {
      out += StrFormat(",depart=%s", FormatExact(t.depart_s).c_str());
    }
  }
  for (const ScenarioPhase& p : spec.phases) {
    out += StrFormat(";phase=%s,start=%s,end=%s,x=%s", name(p.tenant),
                     FormatExact(p.start_s).c_str(),
                     FormatExact(p.end_s).c_str(),
                     FormatExact(p.multiplier).c_str());
  }
  for (const ScenarioGraph& g : spec.graphs) {
    out += StrFormat(";graph=%s,communities=%d,coaccess=%s,rewire=%s,burst=%d",
                     name(g.tenant), g.communities,
                     FormatExact(g.coaccess).c_str(),
                     FormatExact(g.rewire_s).c_str(), g.burst);
  }
  for (const ScenarioDrift& d : spec.drifts) {
    out += StrFormat(";drift=%s,start=%s,end=%s,x=%s", name(d.tenant),
                     FormatExact(d.start_s).c_str(),
                     FormatExact(d.end_s).c_str(),
                     FormatExact(d.multiplier).c_str());
  }
  return out;
}

double TenantRateMultiplier(const ScenarioSpec& spec, size_t t,
                            double time_s) {
  const ScenarioTenant& tenant = spec.tenants[t];
  const double depart = spec.DepartTime(t);
  if (time_s < tenant.arrive_s || time_s >= depart) return 0.0;
  double mult = 1.0;
  const int ti = static_cast<int>(t);
  for (const ScenarioPhase& p : spec.phases) {
    if (p.tenant == ti && time_s >= p.start_s && time_s < p.end_s) {
      mult *= p.multiplier;
    }
  }
  for (const ScenarioDrift& d : spec.drifts) {
    if (d.tenant != ti || time_s < d.start_s) continue;
    if (time_s >= d.end_s) {
      mult *= d.multiplier;  // the adversarial plateau
    } else {
      const double frac = (time_s - d.start_s) / (d.end_s - d.start_s);
      mult *= std::exp(std::log(d.multiplier) * frac);
    }
  }
  return mult;
}

InteractionGraph::InteractionGraph(const ScenarioSpec& spec) : spec_(&spec) {
  int max_object = 0;
  for (const ScenarioTenant& t : spec.tenants) {
    max_object = std::max(max_object, t.first_object + t.count);
  }
  graph_of_.assign(static_cast<size_t>(max_object), -1);
  members_.resize(spec.graphs.size());
  community_of_.resize(spec.graphs.size());
  for (size_t g = 0; g < spec.graphs.size(); ++g) {
    const ScenarioGraph& graph = spec.graphs[g];
    const ScenarioTenant& tenant =
        spec.tenants[static_cast<size_t>(graph.tenant)];
    for (int o = tenant.first_object; o < tenant.first_object + tenant.count;
         ++o) {
      graph_of_[static_cast<size_t>(o)] = static_cast<int>(g);
    }
    const size_t epochs =
        graph.rewire_s > 0.0
            ? static_cast<size_t>(
                  std::ceil(spec.duration_s / graph.rewire_s))
            : 1;
    members_[g].resize(std::max<size_t>(epochs, 1));
    community_of_[g].resize(std::max<size_t>(epochs, 1));
    for (size_t e = 0; e < members_[g].size(); ++e) {
      // One decorrelated stream per (graph, epoch): the partition depends
      // only on the scenario seed, never on call order or thread counts.
      Rng rng(MixSeed(MixSeed(spec.seed, 0x67726170 + g), e));
      std::vector<int> order(static_cast<size_t>(tenant.count));
      for (int i = 0; i < tenant.count; ++i) {
        order[static_cast<size_t>(i)] = tenant.first_object + i;
      }
      rng.Shuffle(&order);
      members_[g][e].assign(static_cast<size_t>(graph.communities), {});
      community_of_[g][e].assign(static_cast<size_t>(tenant.count), 0);
      for (size_t i = 0; i < order.size(); ++i) {
        const size_t c = i % static_cast<size_t>(graph.communities);
        members_[g][e][c].push_back(order[i]);
        community_of_[g][e][static_cast<size_t>(
            order[i] - tenant.first_object)] = static_cast<int>(c);
      }
      for (auto& community : members_[g][e]) {
        std::sort(community.begin(), community.end());
      }
    }
  }
}

int InteractionGraph::GraphOf(int object) const {
  if (object < 0 || object >= static_cast<int>(graph_of_.size())) return -1;
  return graph_of_[static_cast<size_t>(object)];
}

size_t InteractionGraph::EpochOf(size_t graph, double time_s) const {
  const ScenarioGraph& g = spec_->graphs[graph];
  if (g.rewire_s <= 0.0) return 0;
  const size_t epochs = members_[graph].size();
  const size_t e = static_cast<size_t>(std::max(0.0, time_s) / g.rewire_s);
  return std::min(e, epochs - 1);
}

const std::vector<int>& InteractionGraph::Community(int object,
                                                    double time_s) const {
  const int g = GraphOf(object);
  LDB_CHECK_GE(g, 0);
  const size_t gi = static_cast<size_t>(g);
  const size_t e = EpochOf(gi, time_s);
  const ScenarioTenant& tenant = spec_->tenants[static_cast<size_t>(
      spec_->graphs[gi].tenant)];
  const int c = community_of_[gi][e][static_cast<size_t>(
      object - tenant.first_object)];
  return members_[gi][e][static_cast<size_t>(c)];
}

std::vector<ScenarioSegment> BuildTimeline(const ScenarioSpec& spec,
                                           int num_objects) {
  LDB_CHECK(spec.Validate(num_objects).ok());
  std::vector<double> bounds = {0.0, spec.duration_s};
  const auto add = [&](double t) {
    if (t > 0.0 && t < spec.duration_s) bounds.push_back(t);
  };
  for (size_t i = 0; i < spec.tenants.size(); ++i) {
    add(spec.tenants[i].arrive_s);
    add(spec.DepartTime(i));
  }
  for (const ScenarioPhase& p : spec.phases) {
    add(p.start_s);
    add(p.end_s);
  }
  for (const ScenarioDrift& d : spec.drifts) {
    // Subdivide the ramp so the piecewise-constant approximation tracks
    // the geometric rate curve.
    for (int k = 0; k <= 4; ++k) {
      add(d.start_s + (d.end_s - d.start_s) * k / 4.0);
    }
  }
  for (const ScenarioGraph& g : spec.graphs) {
    if (g.rewire_s > 0.0) {
      for (double t = g.rewire_s; t < spec.duration_s; t += g.rewire_s) {
        add(t);
      }
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end(),
                           [](double a, double b) {
                             return std::fabs(a - b) < 1e-9;
                           }),
               bounds.end());

  const InteractionGraph graph(spec);
  std::vector<ScenarioSegment> timeline;
  const size_t n = static_cast<size_t>(num_objects);
  std::vector<double> overlap(n);
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    ScenarioSegment seg;
    seg.start_s = bounds[b];
    seg.end_s = bounds[b + 1];
    const double mid = (seg.start_s + seg.end_s) / 2.0;
    seg.workloads.assign(n, WorkloadDesc{});
    // Rows start diagonal-only; graph tenants' objects get their peers.
    for (size_t o = 0; o < n; ++o) {
      seg.workloads[o].overlap_index = {static_cast<int32_t>(o)};
      seg.workloads[o].overlap_value = {0.0};
    }
    for (size_t t = 0; t < spec.tenants.size(); ++t) {
      const ScenarioTenant& tenant = spec.tenants[t];
      const double mult = TenantRateMultiplier(spec, t, mid);
      if (mult <= 0.0) continue;  // churned away: the row stays all-zero
      // Graph tenants touch `burst` objects per arrival, so the
      // per-object request rate scales by the burst width.
      const ScenarioGraph* g = nullptr;
      for (const ScenarioGraph& cand : spec.graphs) {
        if (cand.tenant == static_cast<int>(t)) g = &cand;
      }
      const double per_object =
          tenant.rate * mult * (g != nullptr ? g->burst : 1);
      for (int o = tenant.first_object;
           o < tenant.first_object + tenant.count; ++o) {
        WorkloadDesc& w = seg.workloads[static_cast<size_t>(o)];
        w.read_rate = per_object * (1.0 - tenant.write_fraction);
        w.write_rate = per_object * tenant.write_fraction;
        w.read_size = static_cast<double>(tenant.request_bytes);
        w.write_size = static_cast<double>(tenant.request_bytes);
        w.run_count = tenant.run_length;
        if (g != nullptr) {
          std::fill(overlap.begin(), overlap.end(), 0.0);
          for (int p : graph.Community(o, mid)) {
            if (p != o) overlap[static_cast<size_t>(p)] = g->coaccess;
          }
          SetOverlapRow(&w, static_cast<size_t>(o), overlap);
        }
      }
    }
    timeline.push_back(std::move(seg));
  }
  return timeline;
}

}  // namespace ldb
