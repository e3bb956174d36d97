#include "sta/kernels.hpp"

#include <bit>
#include <limits>

namespace mgba::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// minpd semantics: p < q ? p : q (ties and NaN-q resolve to q).
inline double vmin(double p, double q) { return p < q ? p : q; }

}  // namespace

void eff_cand(const double* base, const double* fd, const double* fw,
              const double* arr, double* eff, double* cand, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double e = (base[i] * fd[i]) * fw[i];
    eff[i] = e;
    cand[i] = arr[i] + e;
  }
}

void subtract(const double* a, const double* b, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(double alpha, double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= alpha;
}

void gather(const double* src, const std::uint32_t* idx, double* out,
            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = src[idx[i]];
}

void weight_factor(const double* w, double floor_v, double* f, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 1.0 + w[i];
    f[i] = floor_v > s ? floor_v : s;  // maxpd semantics
  }
}

void flag_ne(const double* a, const double* b, std::uint8_t* flags,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) flags[i] = a[i] != b[i] ? 1 : 0;
}

std::size_t probe(const double* slew, const std::uint64_t* memo_bits,
                  const std::uint32_t* memo_key, const std::uint32_t* want_key,
                  std::uint8_t* hit, std::size_t n) {
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t h =
        (memo_key[i] == want_key[i] &&
         memo_bits[i] == std::bit_cast<std::uint64_t>(slew[i]))
            ? 1
            : 0;
    hit[i] = h;
    cnt += h;
  }
  return cnt;
}

// The reductions below walk each block with four interleaved accumulators
// (element j goes to acc[j % 4]); the unrolled body and the tail loop visit
// the elements in the same order, so the result is the canonical one.

double reduce_min(const double* x, std::size_t n) {
  double total = kInf;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = n - b < kBlock ? n - b : kBlock;
    const double* xb = x + b;
    double acc[4] = {kInf, kInf, kInf, kInf};
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      acc[0] = vmin(acc[0], xb[j]);
      acc[1] = vmin(acc[1], xb[j + 1]);
      acc[2] = vmin(acc[2], xb[j + 2]);
      acc[3] = vmin(acc[3], xb[j + 3]);
    }
    for (; j < m; ++j) acc[j & 3] = vmin(acc[j & 3], xb[j]);
    total = vmin(total, vmin(vmin(acc[0], acc[2]), vmin(acc[1], acc[3])));
  }
  return total;
}

double reduce_sum_neg(const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = n - b < kBlock ? n - b : kBlock;
    const double* xb = x + b;
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      acc[0] += xb[j] < 0.0 ? xb[j] : 0.0;
      acc[1] += xb[j + 1] < 0.0 ? xb[j + 1] : 0.0;
      acc[2] += xb[j + 2] < 0.0 ? xb[j + 2] : 0.0;
      acc[3] += xb[j + 3] < 0.0 ? xb[j + 3] : 0.0;
    }
    for (; j < m; ++j) acc[j & 3] += xb[j] < 0.0 ? xb[j] : 0.0;
    total += (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
  return total;
}

std::size_t count_neg(const double* x, std::size_t n) {
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i) cnt += x[i] < 0.0 ? 1 : 0;
  return cnt;
}

double dot_gather(const double* vals, const std::uint32_t* cols,
                  const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t m = n - b < kBlock ? n - b : kBlock;
    const double* vb = vals + b;
    const std::uint32_t* cb = cols + b;
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      acc[0] += vb[j] * x[cb[j]];
      acc[1] += vb[j + 1] * x[cb[j + 1]];
      acc[2] += vb[j + 2] * x[cb[j + 2]];
      acc[3] += vb[j + 3] * x[cb[j + 3]];
    }
    for (; j < m; ++j) acc[j & 3] += vb[j] * x[cb[j]];
    total += (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
  return total;
}

}  // namespace mgba::kernels
