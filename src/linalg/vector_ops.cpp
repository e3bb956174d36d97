#include "linalg/vector_ops.hpp"

#include <cmath>

#include "sta/kernels.hpp"
#include "util/check.hpp"

namespace mgba {

double norm2(std::span<const double> v) { return std::sqrt(norm2_sq(v)); }

double norm2_sq(std::span<const double> v) {
  double acc = 0.0;
  for (const double x : v) acc += x * x;
  return acc;
}

double dot(std::span<const double> a, std::span<const double> b) {
  MGBA_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  MGBA_CHECK(x.size() == y.size());
  kernels::axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<double> v, double alpha) {
  kernels::scale(alpha, v.data(), v.size());
}

std::vector<double> subtract(std::span<const double> a,
                             std::span<const double> b) {
  MGBA_CHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  kernels::subtract(a.data(), b.data(), out.data(), a.size());
  return out;
}

double relative_change(std::span<const double> a, std::span<const double> b) {
  MGBA_CHECK(a.size() == b.size());
  double diff_sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    diff_sq += d * d;
  }
  const double base = norm2(b);
  if (base == 0.0) return std::sqrt(diff_sq);
  return std::sqrt(diff_sq) / base;
}

double relative_error_sq(std::span<const double> model,
                         std::span<const double> golden) {
  MGBA_CHECK(model.size() == golden.size());
  double num = 0.0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const double d = model[i] - golden[i];
    num += d * d;
  }
  const double den = norm2_sq(golden);
  if (den == 0.0) return num;
  return num / den;
}

}  // namespace mgba
