#ifndef LAYOUTDB_MONITOR_AUTOPILOT_SPEC_H_
#define LAYOUTDB_MONITOR_AUTOPILOT_SPEC_H_

#include <string>

#include "monitor/drift.h"
#include "monitor/online_analyzer.h"
#include "util/status.h"

namespace ldb {

/// Monitor-level configuration of the layout autopilot: how the sensor
/// windows the workload, when the drift detector trips, and how the
/// cost-benefit gate prices a proposed migration.
struct AutopilotConfig {
  OnlineAnalyzerOptions analyzer;
  DriftOptions drift;
  /// How often the controller samples the window and evaluates drift.
  double check_interval_s = 2.0;
  /// Minimum projected drop in maximum utilization (old minus re-advised)
  /// for a migration to be worth starting at all.
  double gate_min_gain = 0.02;
  /// Amortization horizon: the projected gain must repay the migration's
  /// copy time within this many seconds —
  ///   (mu_old - mu_new) * horizon >= bytes / bandwidth.
  double gate_horizon_s = 300.0;
  /// Bandwidth used to price the copy when the migration executor is
  /// unthrottled (MigrateOptions::bandwidth_bytes_per_s == 0).
  double gate_fallback_bandwidth = 64.0 * 1024 * 1024;

  /// Range-checks every field (the programmatic twin of the parser's
  /// clause checks).
  Status Validate() const;
};

/// Parses an `--autopilot` spec in the util/spec_text.h grammar
/// (semicolon-separated clauses of comma-separated key=value items), with
/// its number policy and clause-indexed errors.
///
///   "interval=2;threshold=0.25,trip=2,cooldown=30;window=15,gain=0.02"
///
/// Keys: interval (s, > 0), window (analyzer half-life s, > 0 or inf for
/// an all-history window), slack (sequential slack bytes, >= 0), runs
/// (max open runs, >= 1), threshold (> 0; inf disables drift tripping),
/// trip (evaluations, >= 1), clear (hysteresis ratio in (0,1]), cooldown
/// (s, >= 0), minrate (req/s, > 0), sustain (ratio in [0,1], 0 disables),
/// sustain_s (s, > 0), gain (utilization, >= 0), horizon (s, > 0),
/// bandwidth (gate fallback bytes/s, > 0). An empty spec yields the
/// defaults.
Result<AutopilotConfig> ParseAutopilotSpec(const std::string& text);

/// Renders a config back to the spec grammar (for logs and reports), every
/// key exactly, so ParseAutopilotSpec of the output reproduces the config.
std::string AutopilotConfigToString(const AutopilotConfig& config);

}  // namespace ldb

#endif  // LAYOUTDB_MONITOR_AUTOPILOT_SPEC_H_
