#ifndef LAYOUTDB_MODEL_COST_MODEL_H_
#define LAYOUTDB_MODEL_COST_MODEL_H_

#include <string>
#include <vector>

#include "util/interp.h"
#include "util/status.h"

namespace ldb {

/// Black-box per-request cost model for one device type (paper Section
/// 5.2.2): tabulated mean service times over a calibration grid of
/// (request size, run count, contention factor), interpolated between grid
/// points. One table for reads, one for writes.
///
/// Request size and run count are interpolated on log2 axes (their effect
/// is multiplicative); the contention factor is interpolated on its raw,
/// non-uniform axis. Queries outside the calibrated range clamp to the
/// boundary.
class CostModel {
 public:
  /// Builds a model from calibration results.
  ///
  /// \param device_model device model name this table was calibrated for.
  /// \param size_axis request sizes (bytes), strictly increasing.
  /// \param run_axis run counts, strictly increasing, starting at 1.
  /// \param contention_axis contention factors, strictly increasing from 0.
  /// \param read_costs,write_costs row-major over
  ///   (size, run, contention), in seconds per request.
  static Result<CostModel> Create(std::string device_model,
                                  std::vector<double> size_axis,
                                  std::vector<double> run_axis,
                                  std::vector<double> contention_axis,
                                  std::vector<double> read_costs,
                                  std::vector<double> write_costs);

  /// Mean service time (seconds) of a request with the given properties.
  /// `is_write` selects the table; inputs are clamped to the grid.
  double Cost(bool is_write, double request_size_bytes, double run_count,
              double contention) const;

  /// Fused value + derivative lookup: returns Cost(...) and fills the
  /// partial derivatives with respect to the *raw* run count and contention
  /// factor (the log2 run axis is chain-ruled internally). The size
  /// derivative is not exposed: request sizes are constants of the layout
  /// problem, only rates, run counts, and χ move with the layout.
  /// Derivatives are 0 along clamped axes (see GridInterpolator).
  double CostWithGrad(bool is_write, double request_size_bytes,
                      double run_count, double contention, double* d_run,
                      double* d_chi) const;

  /// Cell-level lookups for callers that price many queries sharing
  /// coordinates (the target model's batched column kernel). Coordinates
  /// are in the tables' domain: log2 bytes, log2 run count, raw χ. The read
  /// and write tables are built on the same axes, so one located cell
  /// serves both — a request size is located once per query template, a
  /// run count and χ once per object, not once per lookup.
  using Cell = GridInterpolator::Cell;
  Cell LocateLog2Size(double log2_size) const {
    return read_.Locate(0, log2_size);
  }
  Cell LocateLog2Run(double log2_run) const {
    return read_.Locate(1, log2_run);
  }
  Cell LocateChi(double chi) const { return read_.Locate(2, chi); }

  /// The read or write table, for ValueGrad3 at located cells.
  /// ValueGrad3's run partial is with respect to log2(run); divide it by
  /// run · kLn2 for the raw-run partial, as CostWithGrad does.
  const GridInterpolator& table(bool is_write) const {
    return is_write ? write_ : read_;
  }

  /// ln 2: d(log2 x)/dx = 1 / (x · ln 2).
  static constexpr double kLn2 = 0.6931471805599453094;

  /// Convenience wrappers matching the paper's Cost^R_j / Cost^W_j.
  double ReadCost(double size, double run, double chi) const {
    return Cost(false, size, run, chi);
  }
  double WriteCost(double size, double run, double chi) const {
    return Cost(true, size, run, chi);
  }

  const std::string& device_model() const { return device_model_; }

  /// Serializes to a plain-text format (one header line, axes, values).
  std::string ToText() const;

  /// Parses a model previously produced by ToText().
  static Result<CostModel> FromText(const std::string& text);

 private:
  CostModel(std::string device_model, std::vector<double> size_axis,
            std::vector<double> run_axis, std::vector<double> contention_axis,
            GridInterpolator read, GridInterpolator write);

  std::string device_model_;
  // Raw axes kept for serialization; interpolators hold log2 axes.
  std::vector<double> size_axis_;
  std::vector<double> run_axis_;
  std::vector<double> contention_axis_;
  GridInterpolator read_;
  GridInterpolator write_;
};

}  // namespace ldb

#endif  // LAYOUTDB_MODEL_COST_MODEL_H_
