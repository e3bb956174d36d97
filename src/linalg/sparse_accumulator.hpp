#pragma once

/// \file sparse_accumulator.hpp
/// Dense-backed sparse vector accumulator: the storage unit of the sparse
/// solver kernels. Values live in a dense array (so reads are O(1) and the
/// whole vector can be handed to dense consumers as a span), while a
/// 64-bit-word occupancy bitmap tracks which entries have been touched.
/// Sweeps iterate only the touched entries — in ascending index order, so
/// per-entry arithmetic happens in exactly the order a dense 0..n loop
/// would produce, which is what keeps the sparse solver paths bit-identical
/// to their dense reference implementations (skipped entries contribute
/// exact +0.0 terms, which are additive identities).
///
/// clear() is O(touched words), not O(n): it re-zeroes only the stripes the
/// bitmap marks. That property is what makes a stochastic-gradient step
/// proportional to the nonzeros of the sampled rows instead of the column
/// count.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace mgba {

class SparseAccumulator {
 public:
  SparseAccumulator() = default;
  explicit SparseAccumulator(std::size_t n) { resize(n); }

  /// Sizes the accumulator to \p n entries, all zero and untouched.
  void resize(std::size_t n) {
    values_.assign(n, 0.0);
    words_.assign((n + 63) / 64, 0);
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Re-zeroes touched entries and the bitmap. O(touched words).
  void clear() {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      if (bits == 0) continue;
      const std::size_t base = w * 64;
      if (bits == ~std::uint64_t{0}) {
        for (std::size_t j = base; j < base + 64; ++j) values_[j] = 0.0;
      } else {
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          values_[base + static_cast<std::size_t>(b)] = 0.0;
          bits &= bits - 1;
        }
      }
      words_[w] = 0;
    }
  }

  [[nodiscard]] double operator[](std::size_t j) const { return values_[j]; }

  /// Dense view of the backing array (entries outside the touched set are
  /// exact zeros).
  [[nodiscard]] std::span<const double> values() const { return values_; }

  void touch(std::size_t j) { words_[j >> 6] |= std::uint64_t{1} << (j & 63); }

  [[nodiscard]] bool touched(std::size_t j) const {
    return (words_[j >> 6] >> (j & 63)) & 1;
  }

  /// values[j] += v, marking j touched.
  void add(std::size_t j, double v) {
    values_[j] += v;
    touch(j);
  }

  /// values[j] = v, marking j touched.
  void set(std::size_t j, double v) {
    values_[j] = v;
    touch(j);
  }

  /// Copies \p x into the accumulator; nonzero entries become the touched
  /// set (zeros need no mark — they are already the backing value).
  void assign(std::span<const double> x) {
    resize(x.size());
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j] != 0.0) set(j, x[j]);
    }
  }

  /// Copies another accumulator's values and touched set (same size).
  void assign(const SparseAccumulator& o) {
    values_ = o.values_;
    words_ = o.words_;
  }

  /// Unions another accumulator's touched set into this one (values are
  /// untouched; newly marked entries stay exact zero). O(n/64).
  void include_support(const SparseAccumulator& o) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= o.words_[w];
  }

  /// fn(j, value) over touched entries in ascending index order. Fully
  /// occupied words take a plain linear loop (vectorizable, no bit
  /// scanning) — same indices, same order, so results are unchanged; this
  /// keeps the sweep near dense-loop speed once the support saturates.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      const std::size_t base = w * 64;
      if (bits == ~std::uint64_t{0}) {
        for (std::size_t j = base; j < base + 64; ++j) fn(j, values_[j]);
        continue;
      }
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        const std::size_t j = base + static_cast<std::size_t>(b);
        fn(j, values_[j]);
        bits &= bits - 1;
      }
    }
  }

  /// fn(j, value&) over touched entries in ascending index order (same
  /// full-word fast path as for_each).
  template <typename Fn>
  void for_each_mut(Fn&& fn) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      const std::size_t base = w * 64;
      if (bits == ~std::uint64_t{0}) {
        for (std::size_t j = base; j < base + 64; ++j) fn(j, values_[j]);
        continue;
      }
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        const std::size_t j = base + static_cast<std::size_t>(b);
        fn(j, values_[j]);
        bits &= bits - 1;
      }
    }
  }

  void swap(SparseAccumulator& o) noexcept {
    values_.swap(o.values_);
    words_.swap(o.words_);
  }

  /// Raw occupancy bitmap (64 entries per word) for support-union sweeps.
  [[nodiscard]] std::span<const std::uint64_t> support_words() const {
    return words_;
  }

 private:
  std::vector<double> values_;
  std::vector<std::uint64_t> words_;
};

/// fn(j) over the union of both accumulators' touched sets, in ascending
/// index order (the sizes must match). Used for sums whose terms involve
/// entries of either vector — entries outside both supports are exact
/// zeros and contribute additive identities.
template <typename Fn>
void for_each_union_index(const SparseAccumulator& a,
                          const SparseAccumulator& b, Fn&& fn) {
  const std::span<const std::uint64_t> wa = a.support_words();
  const std::span<const std::uint64_t> wb = b.support_words();
  for (std::size_t w = 0; w < wa.size(); ++w) {
    std::uint64_t bits = wa[w] | wb[w];
    const std::size_t base = w * 64;
    if (bits == ~std::uint64_t{0}) {
      for (std::size_t j = base; j < base + 64; ++j) fn(j);
      continue;
    }
    while (bits != 0) {
      const int t = std::countr_zero(bits);
      fn(base + static_cast<std::size_t>(t));
      bits &= bits - 1;
    }
  }
}

}  // namespace mgba
