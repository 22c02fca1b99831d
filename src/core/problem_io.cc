#include "core/problem_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "model/calibration.h"
#include "storage/disk.h"
#include "storage/ssd.h"
#include "util/spec_text.h"
#include "util/table.h"
#include "util/units.h"

namespace ldb {

namespace {

/// Parses "64KiB" / "18.4GiB" / "65536" into bytes (at least one).
Result<int64_t> ParseSize(const std::string& token) {
  static constexpr std::pair<std::string_view, int64_t> kUnits[] = {
      {"KiB", kKiB}, {"MiB", kMiB}, {"GiB", kGiB}, {"B", 1}};
  std::string_view number = token;
  int64_t unit = 1;
  for (const auto& [suffix, bytes] : kUnits) {
    if (number.ends_with(suffix)) {
      number.remove_suffix(suffix.size());
      unit = bytes;
      break;
    }
  }
  double value = 0;
  const bool parsed = ParseDecimal(number, &value);
  const double bytes = value * static_cast<double>(unit);
  if (!parsed || !(bytes >= 1 && bytes <= 9e18)) {
    return Status::InvalidArgument(StrFormat(
        "bad size '%s' (want a number of bytes >= 1, optionally in "
        "B/KiB/MiB/GiB)",
        token.c_str()));
  }
  return static_cast<int64_t>(bytes);
}

Result<double> ParseDouble(const std::string& token) {
  double value = 0;
  if (!ParseDecimal(token, &value)) {
    return Status::InvalidArgument(
        StrFormat("bad number '%s'", token.c_str()));
  }
  return value;
}

Result<ObjectKind> ParseKind(const std::string& token) {
  if (token == "table") return ObjectKind::kTable;
  if (token == "index") return ObjectKind::kIndex;
  if (token == "temp") return ObjectKind::kTempSpace;
  if (token == "log") return ObjectKind::kLog;
  return Status::InvalidArgument(
      StrFormat("unknown object kind '%s'", token.c_str()));
}

/// Mutable state while parsing.
struct ParseState {
  ProblemIoOptions options;
  LoadedProblem out;
  std::map<std::string, const CostModel*> devices;  // device name -> model
  std::map<std::string, int> object_index;
  std::map<std::string, int> target_index;
  // Name references buffered until all objects are known, with their line
  // for error context: overlap (a, b, value), self_overlap (a, value), pin
  // (a, targets) and separate (a, b).
  struct Reference {
    int line = 0;
    std::string a, b;
    double value = 0.0;
    std::vector<std::string> targets;
  };
  std::vector<Reference> overlaps, self_overlaps, pins, separations;
  // First-occurrence line numbers of the once-only directives (0 = not
  // seen yet), for duplicate-directive error context.
  int autopilot_line = 0;
  int faults_line = 0;
  // Accumulated `scenario` directive text and its first line, parsed
  // after the whole file is read (so ranges can be checked against the
  // declared objects).
  std::string scenario_text;
  int scenario_line = 0;
};

Status HandleDevice(ParseState* st, const std::vector<std::string>& tok) {
  if (tok.size() != 3) {
    return Status::InvalidArgument("device <name> builtin:<model>");
  }
  if (st->devices.count(tok[1]) != 0) {
    return Status::InvalidArgument(
        StrFormat("duplicate device '%s'", tok[1].c_str()));
  }
  if (tok[2].rfind("builtin:", 0) != 0) {
    return Status::InvalidArgument("device source must be builtin:<model>");
  }
  const std::string model = tok[2].substr(8);
  std::unique_ptr<BlockDevice> proto;
  if (model == "disk-15k") {
    proto = std::make_unique<DiskModel>(Scsi15kParams());
  } else if (model == "disk-7200") {
    proto = std::make_unique<DiskModel>(Nearline7200Params());
  } else if (model == "ssd") {
    proto = std::make_unique<SsdModel>(SsdParams{});
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown builtin device '%s'", model.c_str()));
  }
  // Reuse a prior calibration of the same builtin model if present.
  for (const auto& [name, cm] : st->devices) {
    if (cm->device_model() == proto->model_name()) {
      st->devices[tok[1]] = cm;
      return Status::Ok();
    }
  }
  auto calibrated = CalibrateDeviceCached(*proto, st->options.calibration);
  if (!calibrated.ok()) return calibrated.status();
  st->out.owned_models.push_back(
      std::make_unique<CostModel>(std::move(calibrated).value()));
  st->devices[tok[1]] = st->out.owned_models.back().get();
  return Status::Ok();
}

Status HandleTarget(ParseState* st, const std::vector<std::string>& tok) {
  if (tok.size() < 5 || tok[3] != "capacity") {
    return Status::InvalidArgument(
        "target <name> <device> capacity <size> [members <n>] "
        "[stripe <size>]");
  }
  const auto dev = st->devices.find(tok[2]);
  if (dev == st->devices.end()) {
    return Status::InvalidArgument(
        StrFormat("unknown device '%s'", tok[2].c_str()));
  }
  AdvisorTarget target;
  target.name = tok[1];
  target.cost_model = dev->second;
  auto capacity = ParseSize(tok[4]);
  if (!capacity.ok()) return capacity.status();
  target.capacity_bytes = *capacity;
  for (size_t a = 5; a + 1 < tok.size(); a += 2) {
    if (tok[a] == "members") {
      if (!ParseInteger(tok[a + 1], &target.num_members) ||
          target.num_members < 1) {
        return Status::InvalidArgument("bad members count");
      }
    } else if (tok[a] == "stripe") {
      auto v = ParseSize(tok[a + 1]);
      if (!v.ok()) return v.status();
      target.stripe_bytes = *v;
    } else if (tok[a] == "raid") {
      if (tok[a + 1] == "raid0") {
        target.raid_level = RaidLevel::kRaid0;
      } else if (tok[a + 1] == "raid1") {
        target.raid_level = RaidLevel::kRaid1;
      } else if (tok[a + 1] == "raid5") {
        target.raid_level = RaidLevel::kRaid5;
      } else {
        return Status::InvalidArgument(
            StrFormat("unknown raid level '%s'", tok[a + 1].c_str()));
      }
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown target option '%s'", tok[a].c_str()));
    }
  }
  if (st->target_index.count(target.name) != 0) {
    return Status::InvalidArgument(
        StrFormat("duplicate target '%s'", target.name.c_str()));
  }
  st->target_index[target.name] =
      static_cast<int>(st->out.problem.targets.size());
  st->out.problem.targets.push_back(std::move(target));
  return Status::Ok();
}

Status HandleObject(ParseState* st, const std::vector<std::string>& tok) {
  if (tok.size() != 4) {
    return Status::InvalidArgument("object <name> <kind> <size>");
  }
  if (st->object_index.count(tok[1]) != 0) {
    return Status::InvalidArgument(
        StrFormat("duplicate object '%s'", tok[1].c_str()));
  }
  auto kind = ParseKind(tok[2]);
  if (!kind.ok()) return kind.status();
  auto size = ParseSize(tok[3]);
  if (!size.ok()) return size.status();
  st->object_index[tok[1]] =
      static_cast<int>(st->out.problem.object_names.size());
  st->out.problem.object_names.push_back(tok[1]);
  st->out.problem.object_kinds.push_back(*kind);
  st->out.problem.object_sizes.push_back(*size);
  st->out.problem.workloads.emplace_back();
  return Status::Ok();
}

Status HandleWorkload(ParseState* st, const std::vector<std::string>& tok) {
  if (tok.size() != 12) {
    return Status::InvalidArgument(
        "workload <object> read_rate <r> read_size <s> write_rate <r> "
        "write_size <s> run_count <q>");
  }
  const auto it = st->object_index.find(tok[1]);
  if (it == st->object_index.end()) {
    return Status::InvalidArgument(
        StrFormat("unknown object '%s'", tok[1].c_str()));
  }
  WorkloadDesc& w =
      st->out.problem.workloads[static_cast<size_t>(it->second)];
  for (size_t a = 2; a + 1 < tok.size(); a += 2) {
    const std::string& key = tok[a];
    const std::string& value = tok[a + 1];
    if (key == "read_rate" || key == "write_rate" || key == "run_count") {
      auto v = ParseDouble(value);
      if (!v.ok()) return v.status();
      if (key == "read_rate") w.read_rate = *v;
      if (key == "write_rate") w.write_rate = *v;
      if (key == "run_count") w.run_count = *v;
    } else if (key == "read_size" || key == "write_size") {
      // Sizes of 0 are allowed when the matching rate is 0.
      double bytes = 0;
      if (value != "0") {
        auto v = ParseSize(value);
        if (!v.ok()) return v.status();
        bytes = static_cast<double>(*v);
      }
      if (key == "read_size") w.read_size = bytes;
      if (key == "write_size") w.write_size = bytes;
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown workload field '%s'", key.c_str()));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<LoadedProblem> ParseProblemText(const std::string& text,
                                       const ProblemIoOptions& options) {
  ParseState st;
  st.options = options;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    std::string t;
    while (ls >> t) tok.push_back(t);
    if (tok.empty()) continue;

    Status status = Status::Ok();
    if (tok[0] == "lvm_stripe") {
      if (tok.size() != 2) {
        status = Status::InvalidArgument("lvm_stripe <size>");
      } else {
        auto v = ParseSize(tok[1]);
        if (!v.ok()) {
          status = v.status();
        } else {
          st.out.problem.lvm_stripe_bytes = *v;
        }
      }
    } else if (tok[0] == "device") {
      status = HandleDevice(&st, tok);
    } else if (tok[0] == "target") {
      status = HandleTarget(&st, tok);
    } else if (tok[0] == "object") {
      status = HandleObject(&st, tok);
    } else if (tok[0] == "workload") {
      status = HandleWorkload(&st, tok);
    } else if (tok[0] == "overlap") {
      if (tok.size() != 4) {
        status = Status::InvalidArgument("overlap <a> <b> <fraction>");
      } else {
        auto v = ParseDouble(tok[3]);
        if (!v.ok()) {
          status = v.status();
        } else {
          st.overlaps.push_back({line_no, tok[1], tok[2], *v, {}});
        }
      }
    } else if (tok[0] == "self_overlap") {
      if (tok.size() != 3) {
        status = Status::InvalidArgument("self_overlap <object> <mean>");
      } else {
        auto v = ParseDouble(tok[2]);
        if (!v.ok()) {
          status = v.status();
        } else {
          st.self_overlaps.push_back({line_no, tok[1], "", *v, {}});
        }
      }
    } else if (tok[0] == "pin") {
      if (tok.size() < 3) {
        status = Status::InvalidArgument("pin <object> <target>...");
      } else {
        st.pins.push_back({line_no, tok[1], "", 0.0,
                           std::vector<std::string>(tok.begin() + 2,
                                                    tok.end())});
      }
    } else if (tok[0] == "separate") {
      if (tok.size() != 3) {
        status = Status::InvalidArgument("separate <a> <b>");
      } else {
        st.separations.push_back({line_no, tok[1], tok[2], 0.0, {}});
      }
    } else if (tok[0] == "autopilot") {
      if (tok.size() < 2) {
        status = Status::InvalidArgument("autopilot <spec>");
      } else if (st.autopilot_line != 0) {
        status = Status::InvalidArgument(StrFormat(
            "duplicate autopilot directive (first at line %d)",
            st.autopilot_line));
      } else {
        // Concatenating tokens tolerates whitespace after ';'/',' while
        // keeping the spec grammar (and its clause-indexed errors) intact.
        std::string spec;
        for (size_t i = 1; i < tok.size(); ++i) spec += tok[i];
        auto cfg = ParseAutopilotSpec(spec);
        if (!cfg.ok()) {
          status = cfg.status();
        } else {
          st.autopilot_line = line_no;
          st.out.has_autopilot = true;
          st.out.autopilot = *cfg;
        }
      }
    } else if (tok[0] == "faults") {
      if (tok.size() < 2) {
        status = Status::InvalidArgument("faults <spec>");
      } else if (st.faults_line != 0) {
        status = Status::InvalidArgument(StrFormat(
            "duplicate faults directive (first at line %d)",
            st.faults_line));
      } else {
        std::string spec;
        for (size_t i = 1; i < tok.size(); ++i) spec += tok[i];
        auto plan = ParseFaultPlan(spec);
        if (!plan.ok()) {
          status = plan.status();
        } else {
          st.faults_line = line_no;
          st.out.has_faults = true;
          st.out.faults = std::move(plan).value();
        }
      }
    } else if (tok[0] == "scenario") {
      if (tok.size() < 2) {
        status = Status::InvalidArgument("scenario <spec>");
      } else {
        if (st.scenario_line == 0) st.scenario_line = line_no;
        if (!st.scenario_text.empty()) st.scenario_text += ';';
        std::string spec;
        for (size_t i = 1; i < tok.size(); ++i) spec += tok[i];
        st.scenario_text += spec;
      }
    } else {
      status = Status::InvalidArgument(
          StrFormat("unknown directive '%s'", tok[0].c_str()));
    }
    if (!status.ok()) {
      return Status::InvalidArgument(StrFormat(
          "line %d: %s", line_no, status.message().c_str()));
    }
  }

  // Resolve deferred references now that all names are known.
  LayoutProblem& p = st.out.problem;
  const size_t n = p.object_names.size();
  auto object_id = [&](const std::string& name, int line) -> Result<int> {
    const auto it = st.object_index.find(name);
    if (it == st.object_index.end()) {
      return Status::InvalidArgument(
          StrFormat("line %d: unknown object '%s'", line, name.c_str()));
    }
    return it->second;
  };
  // Overlap rows: each row's writes in file order (pairs in both
  // directions, then self-overlaps) after a zero diagonal; a later write
  // to the same entry wins.
  std::vector<std::vector<std::pair<int32_t, double>>> writes(n);
  for (size_t i = 0; i < n; ++i) {
    writes[i].emplace_back(static_cast<int32_t>(i), 0.0);
  }
  for (const auto& o : st.overlaps) {
    auto a = object_id(o.a, o.line);
    auto b = object_id(o.b, o.line);
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    writes[static_cast<size_t>(*a)].emplace_back(*b, o.value);
    writes[static_cast<size_t>(*b)].emplace_back(*a, o.value);
  }
  for (const auto& o : st.self_overlaps) {
    auto a = object_id(o.a, o.line);
    if (!a.ok()) return a.status();
    writes[static_cast<size_t>(*a)].emplace_back(*a, o.value);
  }
  for (size_t i = 0; i < n; ++i) {
    auto& row = writes[i];
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    WorkloadDesc& w = p.workloads[i];
    for (size_t e = 0; e < row.size(); ++e) {
      const auto [k, value] = row[e];
      if (e + 1 < row.size() && row[e + 1].first == k) continue;
      if (static_cast<size_t>(k) != i && value == 0.0) continue;
      w.overlap_index.push_back(k);
      w.overlap_value.push_back(value);
    }
  }
  if (!st.pins.empty()) {
    p.constraints.allowed_targets.assign(n, {});
    for (const auto& pin : st.pins) {
      auto a = object_id(pin.a, pin.line);
      if (!a.ok()) return a.status();
      for (const std::string& tname : pin.targets) {
        const auto it = st.target_index.find(tname);
        if (it == st.target_index.end()) {
          return Status::InvalidArgument(StrFormat(
              "line %d: unknown target '%s'", pin.line, tname.c_str()));
        }
        p.constraints.allowed_targets[static_cast<size_t>(*a)].push_back(
            it->second);
      }
    }
  }
  for (const auto& sep : st.separations) {
    auto a = object_id(sep.a, sep.line);
    auto b = object_id(sep.b, sep.line);
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    p.constraints.separate.emplace_back(*a, *b);
  }

  // The scenario accumulates across lines, so it can only be parsed (and
  // its object ranges checked) once the whole file — including all
  // `object` lines — is in. Clause-indexed errors pass through with the
  // first scenario line as context.
  if (st.scenario_line != 0) {
    auto spec = ParseScenarioSpec(st.scenario_text);
    if (spec.ok()) {
      Status valid = spec->Validate(static_cast<int>(n));
      if (!valid.ok()) spec = valid;
    }
    if (!spec.ok()) {
      return Status::InvalidArgument(
          StrFormat("scenario directive (line %d): %s", st.scenario_line,
                    spec.status().message().c_str()));
    }
    st.out.has_scenario = true;
    st.out.scenario = std::move(spec).value();
  }

  LDB_RETURN_IF_ERROR(p.Validate());
  return std::move(st.out);
}

Result<LoadedProblem> LoadProblemFile(const std::string& path,
                                      const ProblemIoOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseProblemText(buffer.str(), options);
}

std::string FormatAdvisorReport(const LayoutProblem& problem,
                                const AdvisorResult& result) {
  std::string out;
  out += "Recommended layout:\n";
  out += result.final_layout.ToString(problem.object_names);
  out += "\nEstimated per-target utilization:\n";
  TextTable table({"Stage", "per-target", "max"});
  auto add = [&](const char* stage, const std::vector<double>& mu) {
    std::string cells;
    for (double m : mu) cells += StrFormat("%.1f%% ", 100 * m);
    table.AddRow({stage, cells,
                  StrFormat("%.1f%%",
                            100 * *std::max_element(mu.begin(), mu.end()))});
  };
  add("initial", result.utilization_initial);
  add("solver", result.utilization_solver);
  add("final", result.utilization_final);
  out += table.ToString();
  // Solver effort, the steps each seed's rounds took (a round below the
  // per-round cap converged or found no descent), and each seed the race
  // against seed 0 stopped with how far it trailed seed 0 at that round
  // (in utilization points).
  const SolverResult& solver = result.solver_stats;
  out += StrFormat("\nSolver: %zu seed%s, %d steps, %lld column passes",
                   solver.seeds.size(), solver.seeds.size() == 1 ? "" : "s",
                   solver.iterations,
                   static_cast<long long>(solver.gradient_evaluations));
  for (size_t s = 0; s < solver.seeds.size(); ++s) {
    out += StrFormat(s == 0 ? "; steps per round: seed %zu [" : ", seed %zu [",
                     s);
    const std::vector<int>& steps = solver.seeds[s].round_steps;
    for (size_t r = 0; r < steps.size(); ++r) {
      out += StrFormat(r == 0 ? "%d" : " %d", steps[r]);
    }
    out += "]";
  }
  bool any_stopped = false;
  for (size_t s = 0; s < solver.seeds.size(); ++s) {
    const SeedTrajectory& t = solver.seeds[s];
    if (!t.stopped()) continue;
    any_stopped = true;
    const size_t r = static_cast<size_t>(t.stopped_round);
    out += StrFormat(
        "; seed %zu stopped after round %d, trailing seed 0 by %.2f pts", s,
        t.stopped_round,
        100 * (t.round_max[r] - solver.seeds[0].round_max[r]));
  }
  if (!any_stopped) out += "; no seed stopped";
  out += "\n";
  out += StrFormat(
      "Advisor time: %.1f ms (solver %.1f ms, regularization %.1f ms)\n",
      1e3 * result.total_seconds(), 1e3 * result.solver_seconds,
      1e3 * result.regularization_seconds);
  return out;
}

namespace {

/// The problem-file format is whitespace-tokenized, so serialized names
/// must not contain spaces.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (std::isspace(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

}  // namespace

std::string FormatProblemText(const LayoutProblem& problem) {
  std::string out = "# layoutdb problem file (generated)\n";
  out += StrFormat("lvm_stripe %lld\n\n",
                   static_cast<long long>(problem.lvm_stripe_bytes));

  // Devices: one per distinct cost-model device name.
  std::vector<std::string> device_names;
  auto device_for = [&](const CostModel* cm) {
    for (const std::string& name : device_names) {
      if (name == cm->device_model()) return name;
    }
    device_names.push_back(cm->device_model());
    return device_names.back();
  };
  for (const AdvisorTarget& t : problem.targets) device_for(t.cost_model);
  for (const std::string& name : device_names) {
    out += StrFormat("device %s builtin:%s\n", name.c_str(), name.c_str());
  }
  out += "\n";
  for (const AdvisorTarget& t : problem.targets) {
    out += StrFormat("target %s %s capacity %lld members %d stripe %lld",
                     SanitizeName(t.name).c_str(),
                     t.cost_model->device_model().c_str(),
                     static_cast<long long>(t.capacity_bytes),
                     t.num_members,
                     static_cast<long long>(t.stripe_bytes));
    if (t.raid_level != RaidLevel::kRaid0) {
      out += StrFormat(" raid %s", RaidLevelName(t.raid_level));
    }
    out += "\n";
  }
  out += "\n";
  const int n = problem.num_objects();
  auto kind_name = [](ObjectKind k) {
    switch (k) {
      case ObjectKind::kTable:
        return "table";
      case ObjectKind::kIndex:
        return "index";
      case ObjectKind::kTempSpace:
        return "temp";
      case ObjectKind::kLog:
        return "log";
    }
    return "table";
  };
  for (int i = 0; i < n; ++i) {
    out += StrFormat("object %s %s %lld\n",
                     SanitizeName(problem.object_names[static_cast<size_t>(i)]).c_str(),
                     kind_name(problem.object_kinds[static_cast<size_t>(i)]),
                     static_cast<long long>(
                         problem.object_sizes[static_cast<size_t>(i)]));
  }
  out += "\n";
  for (int i = 0; i < n; ++i) {
    const WorkloadDesc& w = problem.workloads[static_cast<size_t>(i)];
    out += StrFormat(
        "workload %s read_rate %s read_size %.0f write_rate %s "
        "write_size %.0f run_count %s\n",
        SanitizeName(problem.object_names[static_cast<size_t>(i)]).c_str(),
        FormatExact(w.read_rate).c_str(), w.read_size,
        FormatExact(w.write_rate).c_str(), w.write_size,
        FormatExact(w.run_count).c_str());
  }
  out += "\n";
  // Overlaps: symmetric entries are emitted once with the mean of the two
  // directions (the format is symmetric); self-overlaps get their own line.
  for (int i = 0; i < n; ++i) {
    const WorkloadDesc& wi = problem.workloads[static_cast<size_t>(i)];
    const double self = wi.overlap_with(static_cast<size_t>(i));
    if (self != 0.0 || std::signbit(self)) {  // -0 must round-trip too
      out += StrFormat(
          "self_overlap %s %s\n",
          SanitizeName(problem.object_names[static_cast<size_t>(i)]).c_str(),
          FormatExact(self).c_str());
    }
    for (int k = i + 1; k < n; ++k) {
      const double a = wi.overlap_with(static_cast<size_t>(k));
      const double b =
          problem.workloads[static_cast<size_t>(k)].overlap_with(
              static_cast<size_t>(i));
      const double mean = (a + b) / 2.0;
      if (mean > 0.0) {
        out += StrFormat(
            "overlap %s %s %s\n",
            SanitizeName(problem.object_names[static_cast<size_t>(i)]).c_str(),
            SanitizeName(problem.object_names[static_cast<size_t>(k)]).c_str(),
            FormatExact(mean).c_str());
      }
    }
  }
  // Constraints.
  for (size_t i = 0; i < problem.constraints.allowed_targets.size(); ++i) {
    const auto& allowed = problem.constraints.allowed_targets[i];
    if (allowed.empty()) continue;
    out += StrFormat("pin %s", SanitizeName(problem.object_names[i]).c_str());
    for (int j : allowed) {
      out += StrFormat(
          " %s",
          SanitizeName(problem.targets[static_cast<size_t>(j)].name).c_str());
    }
    out += "\n";
  }
  for (const auto& [a, b] : problem.constraints.separate) {
    out += StrFormat(
        "separate %s %s\n",
        SanitizeName(problem.object_names[static_cast<size_t>(a)]).c_str(),
        SanitizeName(problem.object_names[static_cast<size_t>(b)]).c_str());
  }
  return out;
}

std::string FormatProblemText(const LoadedProblem& loaded) {
  std::string out = FormatProblemText(loaded.problem);
  if (loaded.has_autopilot) {
    out += StrFormat("autopilot %s\n",
                     AutopilotConfigToString(loaded.autopilot).c_str());
  }
  if (loaded.has_faults) {
    out += StrFormat("faults %s\n",
                     FaultPlanToString(loaded.faults).c_str());
  }
  if (loaded.has_scenario) {
    out += StrFormat("scenario %s\n",
                     ScenarioToString(loaded.scenario).c_str());
  }
  return out;
}

}  // namespace ldb
