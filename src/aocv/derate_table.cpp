#include "aocv/derate_table.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace mgba {

DerateTable::DerateTable(std::vector<double> depth_axis,
                         std::vector<double> distance_axis,
                         std::vector<double> late_values,
                         std::vector<double> early_values)
    : depth_axis_(std::move(depth_axis)),
      distance_axis_(std::move(distance_axis)),
      late_(std::move(late_values)),
      early_(std::move(early_values)) {
  if (early_.empty()) {
    early_.resize(late_.size());
    for (std::size_t i = 0; i < late_.size(); ++i) {
      early_[i] = std::clamp(2.0 - late_[i], 0.5, 1.0);
    }
  }
  MGBA_CHECK(table_error(depth_axis_, distance_axis_, late_, early_).empty());
}

std::string DerateTable::table_error(std::span<const double> depth_axis,
                                     std::span<const double> distance_axis,
                                     std::span<const double> late,
                                     std::span<const double> early) {
  if (depth_axis.empty() || distance_axis.empty()) {
    return "a derate table axis is empty";
  }
  if (!std::is_sorted(depth_axis.begin(), depth_axis.end()) ||
      !std::is_sorted(distance_axis.begin(), distance_axis.end())) {
    return "a derate table axis is not increasing";
  }
  const std::size_t cols = depth_axis.size();
  const std::size_t rows = distance_axis.size();
  if (late.size() != cols * rows) {
    return std::to_string(late.size()) + " late factors for " +
           std::to_string(rows) + " distances x " + std::to_string(cols) +
           " depths";
  }
  if (!early.empty() && early.size() != late.size()) {
    return "the early block's shape differs from the late block's";
  }
  // Monotonicity (see file comment): for the late table, the factor must
  // not increase with depth and must not decrease with distance. The early
  // table mirrors both.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      if (late[i] < 1.0) return "a late factor is below 1";
      if (c + 1 < cols && late[i] < late[i + 1]) {
        return "late factors rise with depth";
      }
      if (r + 1 < rows && late[i] > late[i + cols]) {
        return "late factors fall with distance";
      }
      if (early.empty()) continue;
      if (!(early[i] <= 1.0 && early[i] > 0.0)) {
        return "an early factor is outside (0, 1]";
      }
      if (c + 1 < cols && early[i] > early[i + 1]) {
        return "early factors fall with depth";
      }
      if (r + 1 < rows && early[i] < early[i + cols]) {
        return "early factors rise with distance";
      }
    }
  }
  return "";
}

double DerateTable::interpolate(std::span<const double> values, double depth,
                                double distance_um) const {
  const auto locate = [](std::span<const double> axis, double x,
                         std::size_t& i, double& t) {
    if (axis.size() == 1 || x <= axis.front()) {
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
  };

  std::size_t di = 0, ri = 0;
  double dt = 0.0, rt = 0.0;
  locate(depth_axis_, depth, di, dt);
  locate(distance_axis_, distance_um, ri, rt);

  const std::size_t cols = depth_axis_.size();
  const std::size_t di1 = std::min(di + 1, cols - 1);
  const std::size_t ri1 = std::min(ri + 1, distance_axis_.size() - 1);
  const double v00 = values[ri * cols + di];
  const double v01 = values[ri * cols + di1];
  const double v10 = values[ri1 * cols + di];
  const double v11 = values[ri1 * cols + di1];
  const double v0 = v00 + (v01 - v00) * dt;
  const double v1 = v10 + (v11 - v10) * dt;
  return v0 + (v1 - v0) * rt;
}

double DerateTable::late(double depth, double distance_um) const {
  return interpolate(late_, depth, distance_um);
}

double DerateTable::early(double depth, double distance_um) const {
  return interpolate(early_, depth, distance_um);
}

DerateTable DerateTable::scaled_margin(double k) const {
  MGBA_CHECK(k >= 0.0);
  std::vector<double> late = late_;
  std::vector<double> early = early_;
  for (double& v : late) v = 1.0 + (v - 1.0) * k;
  // Early factors must stay in (0, 1]; clamp the lower end so a large
  // margin cannot push a factor to zero (monotonicity survives clamping
  // because the checks are non-strict).
  for (double& v : early) v = std::max(0.05, 1.0 - (1.0 - v) * k);
  return DerateTable(depth_axis_, distance_axis_, std::move(late),
                     std::move(early));
}

DerateTable paper_table1() {
  // Rows = distance {0.5, 1.0, 1.5} um; columns = depth {3, 4, 5, 6}.
  return DerateTable({3, 4, 5, 6}, {0.5, 1.0, 1.5},
                     {1.30, 1.25, 1.20, 1.15,   //
                      1.32, 1.27, 1.23, 1.18,   //
                      1.35, 1.31, 1.28, 1.25});
}

DerateTable default_aocv_table() {
  // Depth-driven decay toward 1 (variation cancellation ~ 1/sqrt(depth))
  // plus a distance-driven spatial-correlation penalty. Evaluated on a
  // fixed grid so the table is an ordinary lookup like a foundry's.
  const std::vector<double> depths = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
  const std::vector<double> distances = {10, 50, 100, 200, 400, 800, 1200, 2000};
  std::vector<double> late;
  late.reserve(depths.size() * distances.size());
  for (const double dist : distances) {
    for (const double depth : depths) {
      const double depth_term = 0.38 / std::sqrt(depth);
      const double dist_term = 0.08 * (dist / 2000.0);
      late.push_back(1.03 + depth_term + dist_term);
    }
  }
  return DerateTable(depths, distances, std::move(late));
}

}  // namespace mgba
