#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>

#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {
namespace bench {

namespace {

[[noreturn]] void BadFlag(const char* flag, const char* want,
                          const char* got) {
  std::fprintf(stderr, "%s needs %s, got '%s'\n", flag, want, got);
  std::exit(2);
}

}  // namespace

BenchEnv ParseBenchEnv(int argc, char** argv) {
  BenchEnv env;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--scale=", 8) == 0) {
      if (!ParseDecimal(argv[a] + 8, &env.scale) || !(env.scale > 0.0) ||
          !std::isfinite(env.scale)) {
        BadFlag("--scale", "a finite number > 0", argv[a] + 8);
      }
    } else if (std::strncmp(argv[a], "--seed=", 7) == 0) {
      int64_t seed = 0;
      if (!ParseInteger(argv[a] + 7, &seed) || seed < 0) {
        BadFlag("--seed", "a decimal integer >= 0", argv[a] + 7);
      }
      env.seed = static_cast<uint64_t>(seed);
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      if (!ParseInteger(argv[a] + 10, &env.num_threads) ||
          env.num_threads < 0) {
        BadFlag("--threads", "a decimal integer >= 0", argv[a] + 10);
      }
    } else if (std::strcmp(argv[a], "--json") == 0) {
      env.json = true;
      env.json_path = "-";
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      env.json = true;
      env.json_path = argv[a] + 7;
    } else if (std::strncmp(argv[a], "--calibration-cache=", 20) == 0) {
      env.calibration_cache = argv[a] + 20;
    }
  }
  return env;
}

void JsonRows::BeginRow() { rows_.emplace_back(); }

void JsonRows::Append(const std::string& name, const std::string& rendered) {
  LDB_CHECK(!rows_.empty());
  std::string& row = rows_.back();
  if (!row.empty()) row += ",";
  row += "\"";
  row += name;
  row += "\":";
  row += rendered;
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}
}  // namespace

void JsonRows::Field(const std::string& name, const std::string& value) {
  Append(name, JsonEscape(value));
}
void JsonRows::Field(const std::string& name, const char* value) {
  Append(name, JsonEscape(value));
}
void JsonRows::Field(const std::string& name, double value) {
  Append(name, StrFormat("%.9g", value));
}
void JsonRows::Field(const std::string& name, int64_t value) {
  Append(name, StrFormat("%lld", static_cast<long long>(value)));
}
void JsonRows::Field(const std::string& name, int value) {
  Field(name, static_cast<int64_t>(value));
}
void JsonRows::Field(const std::string& name, bool value) {
  Append(name, value ? "true" : "false");
}

std::string JsonRows::ToString() const {
  std::string out = "[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out += ",";
    out += "\n  {";
    out += rows_[r];
    out += "}";
  }
  out += "\n]\n";
  return out;
}

bool JsonRows::WriteTo(const std::string& path) const {
  const std::string text = ToString();
  if (path.empty() || path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void PrintHeader(const char* figure, const char* description,
                 const BenchEnv& env) {
  std::printf("=== %s: %s\n", figure, description);
  std::printf(
      "    (simulated testbed at scale %.3g, seed %llu; speedups and "
      "orderings are the reproduction targets, not absolute times)\n\n",
      env.scale, static_cast<unsigned long long>(env.seed));
}

CalibrationOptions RigCalibration(const BenchEnv& env) {
  CalibrationOptions cal;
  cal.num_threads = env.num_threads;
  cal.cache_dir = env.calibration_cache;
  return cal;
}

Result<ExperimentRig> MakeRig(const BenchEnv& env, Catalog catalog,
                              std::vector<RigTargetDef> targets) {
  return ExperimentRig::Create(std::move(catalog), std::move(targets),
                               env.scale, env.seed, RigCalibration(env));
}

Result<ExperimentRig> FourDiskTpchRig(const BenchEnv& env) {
  return MakeRig(env, Catalog::TpcH(env.scale),
                 {{"disk0"}, {"disk1"}, {"disk2"}, {"disk3"}});
}

Layout SeeLayout(const ExperimentRig& rig) {
  return Layout::StripeEverythingEverywhere(rig.catalog().num_objects(),
                                            rig.num_targets());
}

Result<AdvisedLayout> AdviseForWorkload(const ExperimentRig& rig,
                                        const OlapSpec* olap,
                                        const OltpSpec* oltp,
                                        AdvisorOptions options,
                                        double oltp_duration_s) {
  auto workloads =
      rig.FitWorkloads(SeeLayout(rig), olap, oltp, oltp_duration_s);
  if (!workloads.ok()) return workloads.status();
  auto problem = rig.MakeProblem(std::move(workloads).value());
  if (!problem.ok()) return problem.status();
  LayoutAdvisor advisor(options);
  auto result = advisor.Recommend(*problem);
  if (!result.ok()) return result.status();
  return AdvisedLayout{std::move(problem).value(),
                       std::move(result).value()};
}

std::string TopObjectsLayoutString(const LayoutProblem& problem,
                                   const Layout& layout, int count) {
  std::vector<int> order(static_cast<size_t>(problem.num_objects()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return problem.workloads[static_cast<size_t>(a)].total_rate() >
           problem.workloads[static_cast<size_t>(b)].total_rate();
  });
  const int n = std::min<int>(count, problem.num_objects());

  std::vector<std::string> header{"Object"};
  for (int j = 0; j < layout.num_targets(); ++j) {
    header.push_back(problem.targets[static_cast<size_t>(j)].name);
  }
  TextTable table(std::move(header));
  for (int rank = 0; rank < n; ++rank) {
    const int i = order[static_cast<size_t>(rank)];
    std::vector<std::string> row{problem.object_names[static_cast<size_t>(i)]};
    for (int j = 0; j < layout.num_targets(); ++j) {
      const double v = layout.At(i, j);
      row.push_back(v <= 1e-9 ? "." : StrFormat("%.0f%%", 100.0 * v));
    }
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

}  // namespace bench
}  // namespace ldb
