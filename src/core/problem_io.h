#ifndef LAYOUTDB_CORE_PROBLEM_IO_H_
#define LAYOUTDB_CORE_PROBLEM_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/problem.h"
#include "model/calibration.h"
#include "model/cost_model.h"
#include "monitor/autopilot_spec.h"
#include "scenario/scenario.h"
#include "storage/fault.h"

namespace ldb {

/// A layout problem loaded from text, owning its calibrated cost models.
struct LoadedProblem {
  LayoutProblem problem;
  std::vector<std::unique_ptr<CostModel>> owned_models;
  /// Autopilot configuration from an `autopilot` directive, when present
  /// (the file-level twin of the CLI's `--autopilot` flag, which takes
  /// precedence).
  bool has_autopilot = false;
  AutopilotConfig autopilot;
  /// Fault plan from a `faults` directive, when present (the file-level
  /// twin of the CLI's `--faults` flag, which takes precedence).
  bool has_faults = false;
  FaultPlan faults;
  /// Scenario from `scenario` directives, when present. Multiple
  /// `scenario` lines accumulate (joined with ';'), so long specs can be
  /// split clause-per-line; the accumulated spec is parsed and validated
  /// against the declared objects once the whole file is read.
  bool has_scenario = false;
  ScenarioSpec scenario;
};

/// Knobs for loading problem files.
struct ProblemIoOptions {
  /// Calibration of `device` directives: grid, parallelism, and the
  /// persistent cost-model cache (`--calibration-cache` on the CLIs).
  CalibrationOptions calibration;
};

/// Parses the layoutdb problem-file format — the input of the standalone
/// advisor CLI (the deployment mode the paper proposes in Section 8).
///
/// Line-oriented; `#` starts a comment. Numbers follow util/spec_text.h
/// (whole tokens: no NaN, hex or trailing text); `members` is an integer,
/// and sizes are >= 1 byte with an optional `B`/`KiB`/`MiB`/`GiB` suffix.
/// Errors name their line, references resolved after the whole file
/// included. Directives:
///
///   lvm_stripe <size>
///   device <name> builtin:<model>         # disk-15k | disk-7200 | ssd
///   target <name> <device> capacity <size> [members <n>] [stripe <size>]
///   object <name> <table|index|temp|log> <size>
///   workload <object> read_rate <r/s> read_size <size>
///            write_rate <r/s> write_size <size> run_count <q>
///   overlap <object_a> <object_b> <fraction>      # symmetric O_a[b]=O_b[a]
///   self_overlap <object> <mean concurrent requests>
///   pin <object> <target> [<target> ...]          # allowed targets
///   separate <object_a> <object_b>
///   autopilot <spec>            # ParseAutopilotSpec grammar; whitespace
///                               # between clauses is tolerated
///   faults <spec>               # ParseFaultPlan grammar, same tolerance
///   scenario <spec>             # ParseScenarioSpec grammar; repeated
///                               # lines accumulate (joined with ';')
///
/// `autopilot` and `faults` may each appear at most once (a duplicate is
/// an error naming the first occurrence's line). `device` calibrates the
/// built-in device model on first use (one calibration per distinct model
/// per load, served from the calibration cache when one is configured).
Result<LoadedProblem> ParseProblemText(const std::string& text,
                                       const ProblemIoOptions& options = {});

/// Reads and parses a problem file from disk.
Result<LoadedProblem> LoadProblemFile(const std::string& path,
                                      const ProblemIoOptions& options = {});

/// Renders an advisor result as a human-readable report (layouts,
/// per-stage utilizations, timings) for the CLI.
std::string FormatAdvisorReport(const LayoutProblem& problem,
                                const AdvisorResult& result);

/// Serializes a problem back to the problem-file format, so fitted
/// workloads can be saved, edited, and fed to the CLI. Numbers print
/// exactly (util/spec_text.h FormatExact). Device lines use
/// the cost models' device-model names, which round-trip for the builtin
/// models ("disk-15k", "disk-7200", "ssd"); custom cost models serialize
/// as builtin references by name and may not round-trip exactly.
std::string FormatProblemText(const LayoutProblem& problem);

/// As above, but also re-emits the loaded problem's `autopilot`, `faults`
/// and `scenario` directives, so a full LoadedProblem round-trips.
std::string FormatProblemText(const LoadedProblem& loaded);

}  // namespace ldb

#endif  // LAYOUTDB_CORE_PROBLEM_IO_H_
