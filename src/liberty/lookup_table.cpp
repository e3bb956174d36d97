#include "liberty/lookup_table.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mgba {

LookupTable2D::LookupTable2D(std::vector<double> slew_axis,
                             std::vector<double> load_axis,
                             std::vector<double> values)
    : slew_axis_(std::move(slew_axis)),
      load_axis_(std::move(load_axis)),
      values_(std::move(values)) {
  MGBA_CHECK(shape_error(slew_axis_, load_axis_, values_).empty());
}

std::string LookupTable2D::shape_error(std::span<const double> slew_axis,
                                       std::span<const double> load_axis,
                                       std::span<const double> values) {
  if (slew_axis.empty() || load_axis.empty()) return "a table axis is empty";
  if (!std::is_sorted(slew_axis.begin(), slew_axis.end()) ||
      !std::is_sorted(load_axis.begin(), load_axis.end())) {
    return "a table axis is not increasing";
  }
  if (values.size() != slew_axis.size() * load_axis.size()) {
    return std::to_string(values.size()) + " values for a " +
           std::to_string(slew_axis.size()) + " x " +
           std::to_string(load_axis.size()) + " table";
  }
  return "";
}

void LookupTable2D::locate(std::span<const double> axis, double x,
                           std::size_t& i, double& t) {
  if (axis.size() == 1) {
    i = 0;
    t = 0.0;
    return;
  }
  // Clamp outside the characterized region (conservative extrapolation is
  // deliberately avoided: production behaviour differs by tool; clamping is
  // monotone and keeps the GBA >= PBA pessimism invariant intact).
  if (x <= axis.front()) {
    i = 0;
    t = 0.0;
    return;
  }
  if (x >= axis.back()) {
    i = axis.size() - 2;
    t = 1.0;
    return;
  }
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  i = static_cast<std::size_t>(it - axis.begin()) - 1;
  t = (x - axis[i]) / (axis[i + 1] - axis[i]);
}

double LookupTable2D::lookup(double input_slew, double output_load) const {
  MGBA_CHECK(!values_.empty());
  std::size_t si = 0, li = 0;
  double st = 0.0, lt = 0.0;
  locate(slew_axis_, input_slew, si, st);
  locate(load_axis_, output_load, li, lt);

  const std::size_t cols = load_axis_.size();
  const std::size_t si1 = std::min(si + 1, slew_axis_.size() - 1);
  const std::size_t li1 = std::min(li + 1, cols - 1);

  const double v00 = values_[si * cols + li];
  const double v01 = values_[si * cols + li1];
  const double v10 = values_[si1 * cols + li];
  const double v11 = values_[si1 * cols + li1];

  const double v0 = v00 + (v01 - v00) * lt;
  const double v1 = v10 + (v11 - v10) * lt;
  return v0 + (v1 - v0) * st;
}

}  // namespace mgba
