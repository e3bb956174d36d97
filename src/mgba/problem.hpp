#pragma once

/// \file problem.hpp
/// The mGBA fitting problem of the paper, Eqs. (5)-(9).
///
/// Parameterization. The paper writes s_gba'(x) = A x with a_ij =
/// delta_ij * d_j * lambda_j, initializes x = 0, and observes that ~96 % of
/// the optimum stays near 0 (Fig. 3) — so its x is the *deviation* from
/// plain GBA. We implement exactly that reading: per-gate weight factor
/// (1 + x_j), hence for a setup path i
///
///     s_gba',i(x) = s_gba,i(0) - sum_j a_ij x_j,
///
/// (larger x_j -> larger late delay -> smaller setup slack) and fitting
/// s_gba'(x) ~= s_pba reduces to the least-squares system  A x ~= b  with
///
///     b_i = s_gba,i(0) - s_pba,i   (<= 0: GBA is pessimistic).
///
/// The no-optimism constraint s_gba',i <= s_pba,i + eps|s_pba,i| becomes
/// a_i . x >= b_i - eps|s_pba,i|, enforced by the quadratic penalty of
/// Eq. (6).
///
/// Hold extension (this library; the paper formulates setup only): early
/// weights y_j scale early delays up, so s_hold'(y) = s_hold(0) + A y with
/// a_ij the *early* derated delays, b_i = s_pba,i - s_gba,i(0) >= 0, and
/// the no-optimism bound flips to a_i . y <= b_i + eps|s_pba,i|.
///
/// Determinism. Row sweeps (objective / gradient) partition rows into a
/// FIXED number of blocks that depends only on the row count, never on the
/// pool's thread count; per-block partials are combined in block order.
/// The result is therefore bit-identical across thread counts — including
/// one thread, where the same partition runs inline.

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/csr_matrix.hpp"
#include "linalg/sparse_accumulator.hpp"
#include "netlist/design.hpp"
#include "pba/path.hpp"
#include "pba/path_eval.hpp"
#include "sta/timer.hpp"

namespace mgba {

/// Which check the problem models.
enum class CheckKind : std::uint8_t { Setup, Hold };

class MgbaProblem {
 public:
  /// Builds the full system over \p paths. The timer's weights must be
  /// inactive (all-zero deviation) so s_gba(0) is the plain GBA slack.
  /// Columns are the weighted (data-path combinational) instances that
  /// appear on at least one path. \p epsilon is the constraint tolerance.
  /// The system is built at the evaluator's corner (delays, derates, and
  /// golden slacks all read that corner); multi-corner flows build one
  /// problem per corner.
  /// For CheckKind::Hold, \p paths must have been enumerated in
  /// Mode::Early. Paths to an endpoint without a requirement (a false
  /// path; an output port's hold check) make no row.
  MgbaProblem(const Timer& timer, const PathEvaluator& evaluator,
              const std::vector<TimingPath>& paths, double epsilon,
              CheckKind kind = CheckKind::Setup);

  [[nodiscard]] CheckKind kind() const { return kind_; }
  [[nodiscard]] std::size_t num_rows() const { return matrix_.num_rows(); }
  [[nodiscard]] std::size_t num_cols() const { return matrix_.num_cols(); }
  [[nodiscard]] double epsilon() const { return epsilon_; }

  /// The identity row set {0, 1, ..., num_rows()-1}, cached at build time
  /// so "empty span = all rows" call sites never materialize it per solve.
  [[nodiscard]] std::span<const std::size_t> all_rows() const {
    return all_rows_;
  }

  [[nodiscard]] const CsrMatrix& matrix() const { return matrix_; }
  [[nodiscard]] std::span<const double> rhs() const { return b_; }
  /// The penalty boundary per row: a lower bound on a_i.x for Setup, an
  /// upper bound for Hold.
  [[nodiscard]] std::span<const double> lower_bounds() const { return bound_; }
  [[nodiscard]] std::span<const double> pba_slack() const { return s_pba_; }
  [[nodiscard]] std::span<const double> gba_slack() const { return s_gba0_; }

  /// Index (into the build-time \p paths vector) of the path backing row
  /// \p row. Rows skip unconstrained paths, so this is not the identity.
  [[nodiscard]] std::size_t row_path(std::size_t row) const {
    return row_path_[row];
  }

  /// Instance backing column \p col.
  [[nodiscard]] InstanceId column_instance(std::size_t col) const {
    return column_instance_[col];
  }
  /// Column of an instance, or -1 when the instance is on no path.
  [[nodiscard]] std::int32_t instance_column(InstanceId inst) const {
    return instance_column_[inst];
  }

  /// Expands a column-space solution to a per-instance weight-deviation
  /// vector suitable for Timer::set_instance_weights (Setup) or
  /// Timer::set_instance_weights_early (Hold).
  [[nodiscard]] std::vector<double> to_instance_weights(
      std::span<const double> x) const;

  // --- objective / gradient with the Eq. (6) penalty ----------------------

  /// f(x) = ||Ax - b||^2 + w * sum_{violating rows} (a_i.x - bound_i)^2
  [[nodiscard]] double objective(std::span<const double> x,
                                 double penalty_weight) const;

  /// Objective restricted to the given rows. Parallel over a fixed row
  /// partition with per-block partial sums combined in block order:
  /// bit-identical at any thread count.
  [[nodiscard]] double objective_rows(std::span<const std::size_t> rows,
                                      std::span<const double> x,
                                      double penalty_weight) const;

  /// Full gradient; \p g must have size num_cols().
  void gradient(std::span<const double> x, double penalty_weight,
                std::span<double> g) const;

  /// Gradient restricted to the given rows (the stochastic estimator of
  /// Algorithm 2); \p g must have size num_cols(). Swept over the fixed
  /// block partition with per-block dense partial gradients combined in
  /// block order (same determinism guarantee as objective_rows).
  void gradient_rows(std::span<const std::size_t> rows,
                     std::span<const double> x, double penalty_weight,
                     std::span<double> g) const;

  /// Sparse stochastic gradient: identical arithmetic to gradient_rows —
  /// same row partition, same per-row fused dot+scatter, block partials
  /// combined in the same order — but accumulated into sparse accumulators
  /// touching only the columns of the sampled rows. Cost is
  /// O(nnz of the sampled rows), not O(num_cols). \p g is resized/cleared
  /// here (O(previously touched)); \p block_scratch is the caller's reusable
  /// per-block arena (grown on demand, cleared per use).
  void gradient_rows_sparse(std::span<const std::size_t> rows,
                            std::span<const double> x, double penalty_weight,
                            SparseAccumulator& g,
                            std::vector<SparseAccumulator>& block_scratch)
      const;

  /// Model slack of row i for solution x: s_gba,i(0) -/+ a_i.x
  /// (minus for Setup, plus for Hold).
  [[nodiscard]] double model_slack(std::size_t row,
                                   std::span<const double> x) const;

  /// Incremental refit: re-derives row \p row from a freshly re-evaluated
  /// \p timing of the same \p path it was built from. The weighted-arc set
  /// of a path is fixed, so the row's sparsity pattern is unchanged; only
  /// a_ij (base delay x derate), b, the penalty bound, and the cached
  /// slacks move. O(path length).
  void refresh_row(std::size_t row, const Timer& timer, const TimingPath& path,
                   const PathTiming& timing);

 private:
  /// True if row i violates the no-optimism bound at value ax = a_i.x.
  [[nodiscard]] bool violates(std::size_t row, double ax) const;
  /// Row \p row's cached slacks, target b and penalty bound from \p timing
  /// (the constructor and refresh_row share it).
  void set_row_targets(std::size_t row, const PathTiming& timing);

  CheckKind kind_ = CheckKind::Setup;
  double epsilon_ = 0.0;
  CornerId corner_ = 0;
  CsrMatrix matrix_;
  std::vector<double> b_;
  std::vector<double> bound_;
  std::vector<double> s_pba_;
  std::vector<double> s_gba0_;
  std::vector<std::size_t> row_path_;
  std::vector<InstanceId> column_instance_;
  std::vector<std::int32_t> instance_column_;
  std::vector<std::size_t> all_rows_;
  std::size_t design_instances_ = 0;
};

}  // namespace mgba
