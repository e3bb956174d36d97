#pragma once

/// \file lookup_table.hpp
/// NLDM-style 2-D lookup table: delay or output slew as a function of
/// (input slew, output load). Bilinear interpolation inside the
/// characterized region, clamped extrapolation outside it (the standard
/// conservative behaviour of production timers when a load or slew exceeds
/// the library characterization range).
///
/// Units across the library: time in picoseconds (ps), capacitance in
/// femtofarads (fF), distance in micrometres (um).

#include <span>
#include <string>
#include <vector>

namespace mgba {

class LookupTable2D {
 public:
  LookupTable2D() = default;

  /// Axes must be non-empty and increasing; values is row-major with
  /// shape (slew_axis.size() x load_axis.size()) (shape_error).
  LookupTable2D(std::vector<double> slew_axis, std::vector<double> load_axis,
                std::vector<double> values);

  /// The rule a table with these axes and values would break, "" when it
  /// is well formed.
  [[nodiscard]] static std::string shape_error(
      std::span<const double> slew_axis, std::span<const double> load_axis,
      std::span<const double> values);

  /// Bilinear interpolation at (input_slew, output_load) with clamping.
  [[nodiscard]] double lookup(double input_slew, double output_load) const;

  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] std::span<const double> slew_axis() const { return slew_axis_; }
  [[nodiscard]] std::span<const double> load_axis() const { return load_axis_; }

  /// Builds a table by evaluating \p f on the axis grid. \p f has signature
  /// double(double slew, double load).
  template <typename F>
  static LookupTable2D from_function(std::vector<double> slew_axis,
                                     std::vector<double> load_axis, F&& f) {
    std::vector<double> values;
    values.reserve(slew_axis.size() * load_axis.size());
    for (const double s : slew_axis) {
      for (const double c : load_axis) values.push_back(f(s, c));
    }
    return LookupTable2D(std::move(slew_axis), std::move(load_axis),
                         std::move(values));
  }

 private:
  /// Finds the interpolation segment for x on the given axis: returns the
  /// lower index i and the clamped interpolation parameter t in [0, 1].
  static void locate(std::span<const double> axis, double x, std::size_t& i,
                     double& t);

  std::vector<double> slew_axis_;
  std::vector<double> load_axis_;
  std::vector<double> values_;  // row-major [slew][load]
};

}  // namespace mgba
