#pragma once

/// \file kernels.hpp
/// Dense data-parallel kernels behind the level sweeps of the timing engine
/// and the sparse weight-fit solver: plain scalar loops over contiguous
/// slices, one implementation each, with no ISA-specific variants.
///
/// The kernels define the engine's answers bit for bit, so their operation
/// order is fixed:
///
///   * Elementwise kernels evaluate one expression per element with no
///     reassociation and no FMA contraction (the kernels TU compiles with
///     -ffp-contract=off).
///   * Reductions run in one canonical blocked order: blocks of kBlock
///     elements, four interleaved accumulators (element j of a block goes
///     to accumulator j % 4), a fixed combine ((a0 op a2) op (a1 op a3)),
///     and a sequential fold of block results into the running total.
///     Min-reductions use MIN(p, q) = p < q ? p : q, which resolves ties
///     (notably -0.0 vs +0.0) toward q.
///
/// Kernels take raw pointers + length: callers slice their own arenas.
/// Regions must not alias unless a kernel documents otherwise.

#include <cstddef>
#include <cstdint>

#if defined(__FAST_MATH__)
#error "kernels.hpp must not be compiled with -ffast-math: the timing \
engine's bit-identity invariants depend on strict IEEE semantics"
#endif

namespace mgba::kernels {

/// Reduction block length (elements). Fixed forever: changing it changes
/// reduction results bit-wise, which would break golden transcripts.
inline constexpr std::size_t kBlock = 1024;

// --- elementwise ----------------------------------------------------------

/// eff[i] = (base[i] * fd[i]) * fw[i]; cand[i] = arr[i] + eff[i].
/// The two multiplies stay separate (derate first, then weight factor) to
/// match the scalar engine's effective-delay expression.
void eff_cand(const double* base, const double* fd, const double* fw,
              const double* arr, double* eff, double* cand, std::size_t n);

/// out[i] = a[i] - b[i].
void subtract(const double* a, const double* b, double* out, std::size_t n);

/// y[i] += alpha * x[i].
void axpy(double alpha, const double* x, double* y, std::size_t n);

/// v[i] *= alpha.
void scale(double alpha, double* v, std::size_t n);

/// out[i] = src[idx[i]].
void gather(const double* src, const std::uint32_t* idx, double* out,
            std::size_t n);

/// f[i] = max(floor_v, 1.0 + w[i]), with max(a,b) = a > b ? a : b.
/// floor_v must be nonzero so signed-zero ties cannot arise.
void weight_factor(const double* w, double floor_v, double* f, std::size_t n);

/// flags[i] = (a[i] != b[i]) ? 1 : 0 — IEEE floating compare (NaN != NaN
/// is true; -0.0 != +0.0 is false), matching the engine's change tests.
void flag_ne(const double* a, const double* b, std::uint8_t* flags,
             std::size_t n);

/// Delay-memo probe: hit[i] = (memo_key[i] == want_key[i] &&
/// memo_bits[i] == bit_cast<u64>(slew[i])) ? 1 : 0. Returns the hit count.
/// Bit compares only — no FP semantics involved.
std::size_t probe(const double* slew, const std::uint64_t* memo_bits,
                  const std::uint32_t* memo_key,
                  const std::uint32_t* want_key, std::uint8_t* hit,
                  std::size_t n);

// --- reductions (canonical blocked order) ---------------------------------

/// Minimum of x[0..n) in the canonical blocked order; +infinity for n == 0.
double reduce_min(const double* x, std::size_t n);

/// Sum of the strictly negative elements (each non-negative element
/// contributes +0.0) in the canonical blocked order; 0.0 for n == 0.
double reduce_sum_neg(const double* x, std::size_t n);

/// Number of strictly negative elements (order-free).
std::size_t count_neg(const double* x, std::size_t n);

/// Sum of vals[i] * x[cols[i]] in the canonical blocked order (sparse row
/// dot product).
double dot_gather(const double* vals, const std::uint32_t* cols,
                  const double* x, std::size_t n);

}  // namespace mgba::kernels
