#include "monitor/autopilot_spec.h"

#include <cmath>

#include "util/spec_text.h"
#include "util/table.h"

namespace ldb {

Status AutopilotConfig::Validate() const {
  if (!(check_interval_s > 0.0) || !std::isfinite(check_interval_s)) {
    return Status::InvalidArgument("check interval must be positive");
  }
  if (analyzer.half_life_s < 0.0) {
    return Status::InvalidArgument("analyzer half-life must be >= 0");
  }
  if (analyzer.sequential_slack_bytes < 0) {
    return Status::InvalidArgument("sequential slack must be >= 0");
  }
  if (analyzer.max_open_runs < 1) {
    return Status::InvalidArgument("max open runs must be >= 1");
  }
  if (!(drift.threshold > 0.0)) {  // NaN also fails here
    return Status::InvalidArgument("drift threshold must be > 0");
  }
  if (drift.trip_evaluations < 1) {
    return Status::InvalidArgument("trip evaluations must be >= 1");
  }
  if (!(drift.clear_ratio > 0.0 && drift.clear_ratio <= 1.0)) {
    return Status::InvalidArgument("clear ratio must be in (0,1]");
  }
  if (drift.cooldown_s < 0.0) {
    return Status::InvalidArgument("cooldown must be >= 0");
  }
  if (!(drift.min_rate > 0.0)) {
    return Status::InvalidArgument("min rate must be > 0");
  }
  if (drift.sustained_ratio < 0.0 || drift.sustained_ratio > 1.0 ||
      std::isnan(drift.sustained_ratio)) {
    return Status::InvalidArgument("sustain ratio must be in [0,1]");
  }
  if (drift.sustained_ratio > 0.0 && !(drift.sustained_s > 0.0)) {
    return Status::InvalidArgument(
        "sustain_s must be > 0 when sustain is enabled");
  }
  if (gate_min_gain < 0.0) {
    return Status::InvalidArgument("gate gain must be >= 0");
  }
  if (!(gate_horizon_s > 0.0)) {
    return Status::InvalidArgument("gate horizon must be > 0");
  }
  if (!(gate_fallback_bandwidth > 0.0)) {
    return Status::InvalidArgument("gate bandwidth must be > 0");
  }
  return Status::Ok();
}

Result<AutopilotConfig> ParseAutopilotSpec(const std::string& text) {
  auto clauses = SplitSpecClauses("autopilot spec", text);
  if (!clauses.ok()) return clauses.status();
  AutopilotConfig config;
  for (const SpecClause& clause : *clauses) {
    for (const SpecItem& item : clause.items) {
      const std::string& key = item.key;
      int64_t iv = 0;
      int n = 0;
      double dv = 0.0;
      if (key == "interval") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0) || !std::isfinite(dv)) {
          return clause.Error("interval must be > 0");
        }
        config.check_interval_s = dv;
      } else if (key == "window") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0)) return clause.Error("window must be > 0");
        // An infinite window means no decay (the batch semantics).
        config.analyzer.half_life_s = std::isfinite(dv) ? dv : 0.0;
      } else if (key == "slack") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &iv));
        if (iv < 0) return clause.Error("slack must be >= 0");
        config.analyzer.sequential_slack_bytes = iv;
      } else if (key == "runs") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &n));
        if (n < 1) return clause.Error("runs must be >= 1");
        config.analyzer.max_open_runs = n;
      } else if (key == "threshold") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0)) {
          return clause.Error("threshold must be > 0 (inf disables)");
        }
        config.drift.threshold = dv;
      } else if (key == "trip") {
        LDB_RETURN_IF_ERROR(clause.Integer(item, &n));
        if (n < 1) return clause.Error("trip must be >= 1");
        config.drift.trip_evaluations = n;
      } else if (key == "clear") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0 && dv <= 1.0)) {
          return clause.Error("clear must be in (0,1]");
        }
        config.drift.clear_ratio = dv;
      } else if (key == "cooldown") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0 || !std::isfinite(dv)) {
          return clause.Error("cooldown must be >= 0");
        }
        config.drift.cooldown_s = dv;
      } else if (key == "minrate") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0)) return clause.Error("minrate must be > 0");
        config.drift.min_rate = dv;
      } else if (key == "sustain") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0 || dv > 1.0 || std::isnan(dv)) {
          return clause.Error("sustain must be in [0,1] (0 disables)");
        }
        config.drift.sustained_ratio = dv;
      } else if (key == "sustain_s") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0) || !std::isfinite(dv)) {
          return clause.Error("sustain_s must be > 0");
        }
        config.drift.sustained_s = dv;
      } else if (key == "gain") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (dv < 0.0 || !std::isfinite(dv)) {
          return clause.Error("gain must be >= 0");
        }
        config.gate_min_gain = dv;
      } else if (key == "horizon") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0) || !std::isfinite(dv)) {
          return clause.Error("horizon must be > 0");
        }
        config.gate_horizon_s = dv;
      } else if (key == "bandwidth") {
        LDB_RETURN_IF_ERROR(clause.Decimal(item, &dv));
        if (!(dv > 0.0) || !std::isfinite(dv)) {
          return clause.Error("bandwidth must be > 0");
        }
        config.gate_fallback_bandwidth = dv;
      } else {
        return clause.Error(StrFormat("unknown key '%s'", key.c_str()));
      }
    }
  }
  LDB_RETURN_IF_ERROR(config.Validate());
  return config;
}

std::string AutopilotConfigToString(const AutopilotConfig& config) {
  const OnlineAnalyzerOptions& a = config.analyzer;
  const DriftOptions& d = config.drift;
  std::string out = StrFormat(
      "interval=%s;window=%s,slack=%lld,runs=%d",
      FormatExact(config.check_interval_s).c_str(),
      a.half_life_s > 0.0 ? FormatExact(a.half_life_s).c_str() : "inf",
      static_cast<long long>(a.sequential_slack_bytes), a.max_open_runs);
  out += StrFormat(
      ";threshold=%s,trip=%d,clear=%s,cooldown=%s,minrate=%s,sustain=%s",
      FormatExact(d.threshold).c_str(), d.trip_evaluations,
      FormatExact(d.clear_ratio).c_str(), FormatExact(d.cooldown_s).c_str(),
      FormatExact(d.min_rate).c_str(),
      FormatExact(d.sustained_ratio).c_str());
  // The dwell time has no valid "unset" spelling; 0 is its default.
  if (d.sustained_s > 0.0) {
    out += StrFormat(",sustain_s=%s", FormatExact(d.sustained_s).c_str());
  }
  out += StrFormat(";gain=%s,horizon=%s,bandwidth=%s",
                   FormatExact(config.gate_min_gain).c_str(),
                   FormatExact(config.gate_horizon_s).c_str(),
                   FormatExact(config.gate_fallback_bandwidth).c_str());
  return out;
}

}  // namespace ldb
