#include "linalg/csr_matrix.hpp"

#include <algorithm>

#include "sta/kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

CsrMatrix::CsrMatrix(std::size_t num_cols) : num_cols_(num_cols) {}

void CsrMatrix::append_row(std::span<const std::size_t> cols,
                           std::span<const double> values) {
  MGBA_CHECK(cols.size() == values.size());
  double norm_sq = 0.0;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    MGBA_DCHECK(cols[k] < num_cols_);
    MGBA_DCHECK(k == 0 || cols[k] > cols[k - 1]);
    col_idx_.push_back(static_cast<std::uint32_t>(cols[k]));
    values_.push_back(values[k]);
    norm_sq += values[k] * values[k];
  }
  row_ptr_.push_back(col_idx_.size());
  row_norms_sq_.push_back(norm_sq);
}

void CsrMatrix::reserve(std::size_t rows, std::size_t nnz) {
  row_ptr_.reserve(rows + 1);
  col_idx_.reserve(nnz);
  values_.reserve(nnz);
  row_norms_sq_.reserve(rows);
}

SparseRowView CsrMatrix::row(std::size_t i) const {
  MGBA_DCHECK(i + 1 < row_ptr_.size());
  const std::size_t begin = row_ptr_[i];
  const std::size_t end = row_ptr_[i + 1];
  return {std::span(col_idx_).subspan(begin, end - begin),
          std::span(values_).subspan(begin, end - begin)};
}

void CsrMatrix::set_row_values(std::size_t i, std::span<const double> values) {
  MGBA_DCHECK(i + 1 < row_ptr_.size());
  const std::size_t begin = row_ptr_[i];
  MGBA_CHECK(values.size() == row_ptr_[i + 1] - begin);
  double norm_sq = 0.0;
  for (std::size_t k = 0; k < values.size(); ++k) {
    values_[begin + k] = values[k];
    norm_sq += values[k] * values[k];
  }
  row_norms_sq_[i] = norm_sq;
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::span<double> y) const {
  MGBA_CHECK(x.size() == num_cols_);
  MGBA_CHECK(y.size() == num_rows());
  // Each row writes its own output slot: trivially parallel, bit-identical
  // at any thread count.
  parallel_for(num_rows(), 256, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) y[i] = row_dot(i, x);
  });
}

void CsrMatrix::multiply_transpose(std::span<const double> x,
                                   std::span<double> y) const {
  MGBA_CHECK(x.size() == num_rows());
  MGBA_CHECK(y.size() == num_cols_);
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t i = 0; i < num_rows(); ++i) add_scaled_row(i, x[i], y);
}

double CsrMatrix::row_dot(std::size_t i, std::span<const double> x) const {
  // Sparse dot in the kernels' canonical blocked order (see kernels.hpp),
  // which is what keeps solver transcripts reproducible.
  const SparseRowView r = row(i);
  return kernels::dot_gather(r.values.data(), r.cols.data(), x.data(),
                             r.nnz());
}

void CsrMatrix::add_scaled_row(std::size_t i, double alpha,
                               std::span<double> y) const {
  const SparseRowView r = row(i);
  for (std::size_t k = 0; k < r.nnz(); ++k) y[r.cols[k]] += alpha * r.values[k];
}

CsrMatrix CsrMatrix::select_rows(std::span<const std::size_t> rows) const {
  CsrMatrix sub(num_cols_);
  // Two-phase extraction: a serial prefix scan fixes every output row's
  // placement, then rows copy into disjoint slices in parallel.
  sub.row_ptr_.resize(rows.size() + 1);
  sub.row_ptr_[0] = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    sub.row_ptr_[k + 1] = sub.row_ptr_[k] + row(rows[k]).nnz();
  }
  sub.col_idx_.resize(sub.row_ptr_.back());
  sub.values_.resize(sub.row_ptr_.back());
  sub.row_norms_sq_.resize(rows.size());
  parallel_for(rows.size(), 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const SparseRowView r = row(rows[k]);
      std::copy(r.cols.begin(), r.cols.end(),
                sub.col_idx_.begin() +
                    static_cast<std::ptrdiff_t>(sub.row_ptr_[k]));
      std::copy(r.values.begin(), r.values.end(),
                sub.values_.begin() +
                    static_cast<std::ptrdiff_t>(sub.row_ptr_[k]));
      sub.row_norms_sq_[k] = row_norms_sq_[rows[k]];
    }
  });
  return sub;
}

std::size_t CsrMatrix::num_nonempty_cols() const {
  std::vector<bool> seen(num_cols_, false);
  for (const std::uint32_t c : col_idx_) seen[c] = true;
  return static_cast<std::size_t>(
      std::count(seen.begin(), seen.end(), true));
}

}  // namespace mgba
