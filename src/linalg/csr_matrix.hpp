#pragma once

/// \file csr_matrix.hpp
/// Compressed sparse row matrix. This is the representation of the mGBA
/// system matrix A (Eq. 9 of the paper): one row per selected timing path,
/// one column per delay gate, entry a_ij = d_j * lambda_j when gate j lies
/// on path i. Rows are short (a path rarely has more than ~100 cells) and
/// m >> n, which drives every design decision here: row-major storage with
/// 32-bit column indices (halving the index stream the row kernels pull
/// through cache), cheap row views, cached per-row squared norms (the
/// Eq. 11 sampling weights, maintained on append/refresh instead of being
/// recomputed per solve), and a fused dot+scatter kernel so gradient sweeps
/// traverse each row's index/value streams once instead of twice.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sta/kernels.hpp"

namespace mgba {

/// One row of a CSR matrix: parallel index/value spans.
struct SparseRowView {
  std::span<const std::uint32_t> cols;
  std::span<const double> values;

  [[nodiscard]] std::size_t nnz() const { return cols.size(); }
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Creates an empty matrix with a fixed column count; rows are appended.
  explicit CsrMatrix(std::size_t num_cols);

  /// Appends a row given parallel (column, value) arrays. Columns must be
  /// strictly increasing and < num_cols().
  void append_row(std::span<const std::size_t> cols,
                  std::span<const double> values);

  /// Reserves storage for an expected shape (rows, nonzeros).
  void reserve(std::size_t rows, std::size_t nnz);

  [[nodiscard]] std::size_t num_rows() const { return row_ptr_.size() - 1; }
  [[nodiscard]] std::size_t num_cols() const { return num_cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  [[nodiscard]] SparseRowView row(std::size_t i) const;

  /// Overwrites the values of row \p i in place (the sparsity pattern is
  /// fixed; \p values must have the row's nnz) and refreshes its cached
  /// norm. This is the incremental-refit path: a re-evaluated timing path
  /// visits the same weighted instances, only the delays change.
  void set_row_values(std::size_t i, std::span<const double> values);

  /// y = A * x. Requires x.size() == num_cols(), y.size() == num_rows().
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y = A^T * x. Requires x.size() == num_rows(), y.size() == num_cols().
  void multiply_transpose(std::span<const double> x,
                          std::span<double> y) const;

  /// Dot product of row i with x.
  [[nodiscard]] double row_dot(std::size_t i, std::span<const double> x) const;

  /// Adds alpha * row(i) into y (a scatter); used by Kaczmarz-style updates.
  void add_scaled_row(std::size_t i, double alpha, std::span<double> y) const;

  /// Fused gradient kernel: computes r = a_i . x, derives the scatter
  /// coefficient alpha = coeff(r), and adds alpha * a_i into \p sink — one
  /// traversal of the row's index/value streams instead of the two a
  /// row_dot + add_scaled_row pair costs. \p sink is anything with
  /// add(col, value) (SparseAccumulator, or the SpanSink adapter below).
  /// Returns the dot product.
  template <typename CoeffFn, typename Sink>
  double row_dot_scatter(std::size_t i, std::span<const double> x,
                         CoeffFn&& coeff, Sink&& sink) const {
    const std::size_t begin = row_ptr_[i];
    const std::size_t end = row_ptr_[i + 1];
    // Same canonical blocked dot as row_dot (kernels::dot_gather), so the
    // fused and unfused paths stay bit-identical to each other.
    const double acc = kernels::dot_gather(
        values_.data() + begin, col_idx_.data() + begin, x.data(), end - begin);
    const double alpha = coeff(acc);
    for (std::size_t k = begin; k < end; ++k) {
      sink.add(col_idx_[k], alpha * values_[k]);
    }
    return acc;
  }

  /// Dense-span sink for row_dot_scatter.
  struct SpanSink {
    std::span<double> y;
    void add(std::size_t j, double v) const { y[j] += v; }
  };

  /// Squared Euclidean norm of row i (cached; maintained on append and
  /// set_row_values).
  [[nodiscard]] double row_norm_sq(std::size_t i) const {
    return row_norms_sq_[i];
  }

  /// Squared norms of all rows; the sampling distribution of Eq. (11).
  [[nodiscard]] const std::vector<double>& row_norms_sq() const {
    return row_norms_sq_;
  }

  /// Extracts the sub-matrix formed by the given rows (in the given order);
  /// column count is preserved. Materializes a copy — prefer
  /// CsrRowSubsetView when the base matrix outlives the subset (the
  /// sampling rounds of Algorithm 1 never need the copy).
  [[nodiscard]] CsrMatrix select_rows(std::span<const std::size_t> rows) const;

  /// Number of columns that appear in at least one row (gate coverage metric
  /// used by the path-selection experiment in paper Sec. 3.2).
  [[nodiscard]] std::size_t num_nonempty_cols() const;

 private:
  std::size_t num_cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
  std::vector<double> row_norms_sq_;
};

/// Non-owning row-subset view: the sub-matrix formed by \p rows of a base
/// matrix, without copying index/value storage. Lifetime rule: the view
/// borrows both the base matrix and the row-index span — both must outlive
/// it, and a structural mutation of the base (append_row) invalidates the
/// view. Value mutations (set_row_values) keep it valid: views see the
/// refreshed values, which is exactly what the refit's sampling rounds
/// want.
class CsrRowSubsetView {
 public:
  CsrRowSubsetView(const CsrMatrix& base, std::span<const std::size_t> rows)
      : base_(&base), rows_(rows) {}

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const { return base_->num_cols(); }
  [[nodiscard]] SparseRowView row(std::size_t k) const {
    return base_->row(rows_[k]);
  }
  [[nodiscard]] double row_dot(std::size_t k,
                               std::span<const double> x) const {
    return base_->row_dot(rows_[k], x);
  }
  [[nodiscard]] double row_norm_sq(std::size_t k) const {
    return base_->row_norm_sq(rows_[k]);
  }

 private:
  const CsrMatrix* base_;
  std::span<const std::size_t> rows_;
};

}  // namespace mgba
