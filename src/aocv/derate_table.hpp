#pragma once

/// \file derate_table.hpp
/// AOCV derating table: derate factor as a function of path cell depth and
/// endpoint bounding-box distance (paper Table 1). Foundries supply these
/// per timing corner; the factor multiplies cell delay as the on-chip
/// variation penalty. Depth captures stage-count variation cancellation
/// (more stages -> more averaging -> smaller penalty); distance captures
/// spatial correlation decay (farther apart -> larger penalty).
///
/// Late factors are >= 1 and used to slow the launch/data path; early
/// factors are <= 1 and speed the capture path. The table is validated to
/// be monotone (non-increasing in depth, non-decreasing in distance for
/// late; mirrored for early) — this monotonicity is what guarantees the
/// GBA >= PBA pessimism invariant given GBA's worst depth / worst distance.

#include <span>
#include <string>
#include <vector>

namespace mgba {

class DerateTable {
 public:
  /// \p depth_axis and \p distance_axis strictly increasing;
  /// \p late_values row-major (distance x depth), matching the layout of
  /// the paper's Table 1 (rows = distance, columns = depth).
  /// \p early_values may be empty, in which case early factors are derived
  /// as 2 - late (mirror around 1.0) clamped to [0.5, 1.0].
  DerateTable(std::vector<double> depth_axis, std::vector<double> distance_axis,
              std::vector<double> late_values,
              std::vector<double> early_values = {});

  /// The rule a table built from these values would break, "" when none:
  /// non-empty increasing axes, one value per (distance, depth), late
  /// factors >= 1 and early ones in (0, 1], monotone as the file comment
  /// says. Empty \p early_values stand for the derived factors, which
  /// always pass when the late ones do.
  [[nodiscard]] static std::string table_error(
      std::span<const double> depth_axis, std::span<const double> distance_axis,
      std::span<const double> late_values,
      std::span<const double> early_values);

  /// Late (slow-down) factor; clamped bilinear interpolation.
  [[nodiscard]] double late(double depth, double distance_um) const;
  /// Early (speed-up) factor.
  [[nodiscard]] double early(double depth, double distance_um) const;

  /// A copy of this table with every margin scaled by \p k >= 0: late
  /// factors become 1 + (late - 1) * k and early factors 1 - (1 - early) * k
  /// (clamped to stay valid). This is how a corner spec derives its own
  /// AOCV table from the base table — slow corners widen the variation
  /// margin (k > 1), typical corners shrink it (k < 1), k = 1 is a copy.
  [[nodiscard]] DerateTable scaled_margin(double k) const;

  [[nodiscard]] std::span<const double> depth_axis() const {
    return depth_axis_;
  }
  [[nodiscard]] std::span<const double> distance_axis() const {
    return distance_axis_;
  }

 private:
  double interpolate(std::span<const double> values, double depth,
                     double distance_um) const;

  std::vector<double> depth_axis_;
  std::vector<double> distance_axis_;
  std::vector<double> late_;
  std::vector<double> early_;
};

/// The exact lookup table of the paper's Table 1: depths {3,4,5,6},
/// distances {0.5, 1.0, 1.5} um (500/1000/1500 nm). Used by the Fig. 2
/// worked-example tests.
DerateTable paper_table1();

/// Default table used by the benchmark designs: depth axis 1..64, distance
/// axis 10..2000 um, derates decaying from 1.35 toward 1.04 with depth and
/// growing with distance. Same qualitative shape as Table 1, with axes that
/// cover the generated designs' geometry.
DerateTable default_aocv_table();

}  // namespace mgba
