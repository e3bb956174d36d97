#pragma once

/// \file solvers.hpp
/// The three optimization solvers compared in paper Table 4:
///
///   * solve_gradient_descent — the conventional full-gradient baseline
///     ("GD + w/o RS"): steepest descent with Armijo backtracking;
///   * solve_scg — Algorithm 2, the stochastic conjugate gradient built on
///     randomized-Kaczmarz row sampling (row probability ~ ||a_j||^2,
///     Eq. 11), Polak-Ribiere conjugation, gradient normalization, and the
///     dynamic step alpha_k = s / ||d_k|| ("SCG + w/o RS");
///   * solve_scg_with_row_sampling — Algorithm 1 wrapped around Algorithm
///     2: solve on a uniformly sampled row subset, double the sampling
///     ratio until the solution stops moving ("SCG + RS").
///
/// All solvers operate on an explicit row subset of the full MgbaProblem
/// so the selection schemes and the sampling scheme compose freely.
///
/// Sparsity. The paper's own Fig. 3 observation (~96 % of x* stays near 0)
/// means the per-iteration state of Algorithm 2 — the stochastic gradient,
/// the conjugate direction, and the set of columns the iterate has ever
/// moved on — is sparse. solve_scg runs every per-iteration kernel over
/// sparse accumulators in O(touched), with arithmetic ordered exactly as
/// the dense formulation (solve_scg_dense_reference, a test oracle): the
/// two are bit-identical, and so are results across thread counts.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/sampling.hpp"
#include "linalg/sparse_accumulator.hpp"
#include "mgba/problem.hpp"

namespace mgba {

struct SolverOptions {
  double penalty_weight = 10.0;  ///< w in Eq. (6)
  double step_size = 0.02;       ///< s in Algorithm 2
  /// Step decay: s_k = step_size / (1 + step_decay * k). 0 (default)
  /// reproduces the fixed step written in Algorithm 2 verbatim; combined
  /// with iterate averaging the fixed step converges to an O(s) ball
  /// around the optimum with the noise averaged out, and travels far
  /// enough on every problem scale.
  double step_decay = 0.0;
  /// eps_c in Algorithm 2. With iterate averaging on, the test runs every
  /// 100 iterations on the averaged iterate. From a warm start at this
  /// repo's scale it does not fire: the step stays s and the batches are a
  /// few hundred rows, so the averaged iterate keeps moving 1.4-3.4 % of
  /// ||x|| per 100 iterations (seed-7 eco_refit refits), far above 0.1 %.
  /// Warm refits are bounded by their budget instead (see
  /// MgbaRefitSession).
  double convergence_tol = 1e-3;
  /// Iteration cap of one solve_scg / solve_gradient_descent call.
  /// Algorithm 1 caps each round at min(max_iterations,
  /// SamplingOptions::inner_iterations), and so does a warm refit.
  std::size_t max_iterations = 4000;
  double row_fraction = 0.02;        ///< k'' as a fraction of active rows
  std::size_t min_rows = 32;         ///< floor for k''
  /// Polak-Ribiere conjugation on/off (ablation: false degrades Algorithm
  /// 2 to plain normalized stochastic gradient descent).
  bool use_conjugation = true;
  /// Exponential tail-averaging of the iterates (Polyak-Ruppert style).
  /// The paper's k'' = 2% batches contain tens of thousands of rows, so
  /// Algorithm 2's gradient noise is negligible; at this repo's scale the
  /// batches are hundreds of rows and the raw final iterate sits on a
  /// noticeable noise floor — averaging removes it. 0 disables.
  double iterate_averaging = 0.02;
  std::uint64_t seed = 42;
};

struct SamplingOptions {
  double initial_ratio = 1e-5;  ///< r_0 in Algorithm 1
  double tolerance = 0.05;      ///< eps_u in Algorithm 1 (paper: 0.1)
  std::size_t max_doublings = 24;
  /// Floor on the sampled row count. The paper's problems have millions of
  /// rows, where r_0 = 1e-5 already yields tens of equations; on small
  /// problems an unfloored sample of 1-2 rows lets the movement criterion
  /// "converge" onto a meaningless fit.
  std::size_t min_rows = 64;
  /// Per-round cap on the inner Algorithm-2 iterations. Rounds are
  /// warm-started, so the accumulated iteration count across doublings
  /// does the converging; uncapped inner solves would burn the whole
  /// budget on the first (tiny, underdetermined) samples. A warm refit is
  /// one more such round over rows already selected, so
  /// MgbaRefitSession::refit caps its solve here too.
  std::size_t inner_iterations = 600;
  /// Ablation: sample rows with probability proportional to their squared
  /// norm (a cheap leverage-score surrogate) instead of uniformly. The
  /// paper argues uniform sampling suffices under low coherence [16][17];
  /// this knob lets the claim be tested.
  bool norm_weighted = false;
  std::uint64_t seed = 7;
};

/// Reusable solver workspace. A solver call without one allocates its own;
/// passing the same scratch across calls (the refit session, the
/// row-sampling doubling rounds, the optimizer's repeated fits) reuses the
/// accumulators, sample buffers, and Eq.-11 sampling state instead of
/// reallocating them per solve. Plain state, no invariants beyond:
/// alias_valid may only be left true by a caller that guarantees the next
/// solve sees the SAME active row set with UNCHANGED row norms — anything
/// else must clear it (solve_scg then rebuilds the table).
struct SolverScratch {
  SparseAccumulator g, g_prev, d;
  /// Union of every column the iterate has moved on (plus the warm start's
  /// nonzeros); the averaging/convergence sweeps run over it.
  SparseAccumulator x_support;
  std::vector<SparseAccumulator> gradient_blocks;
  std::vector<std::size_t> sampled;

  /// Eq.-11 sampling weights and alias table (see alias_valid above).
  std::vector<double> weights;
  std::unique_ptr<AliasTable> alias;
  std::size_t alias_rows = 0;
  bool alias_valid = false;

  /// Row-sampling (Algorithm 1) round buffers.
  std::vector<std::size_t> picked;
  std::vector<char> taken;
  std::vector<std::size_t> subset;
};

struct SolveResult {
  std::vector<double> x;          ///< column-space solution
  std::size_t iterations = 0;     ///< inner solver iterations (total)
  std::size_t outer_rounds = 1;   ///< Algorithm-1 doubling rounds
  double seconds = 0.0;           ///< wall-clock solve time
  double final_objective = 0.0;   ///< f(x) on the active rows
};

/// Conventional gradient descent over \p rows (empty span = all rows).
SolveResult solve_gradient_descent(const MgbaProblem& problem,
                                   std::span<const std::size_t> rows,
                                   const SolverOptions& options,
                                   std::span<const double> x0 = {});

/// Algorithm 2 over \p rows (empty span = all rows).
SolveResult solve_scg(const MgbaProblem& problem,
                      std::span<const std::size_t> rows,
                      const SolverOptions& options,
                      std::span<const double> x0 = {},
                      SolverScratch* scratch = nullptr);

/// Algorithm 2 with dense per-iteration vectors: the O(num_cols) reference
/// solve_scg is bit-identical to. Test oracle only; always uses a fresh
/// scratch.
SolveResult solve_scg_dense_reference(const MgbaProblem& problem,
                                      std::span<const std::size_t> rows,
                                      const SolverOptions& options,
                                      std::span<const double> x0 = {});

/// Algorithm 1 + Algorithm 2 over \p rows (empty span = all rows).
SolveResult solve_scg_with_row_sampling(const MgbaProblem& problem,
                                        std::span<const std::size_t> rows,
                                        const SolverOptions& options,
                                        const SamplingOptions& sampling,
                                        SolverScratch* scratch = nullptr);

}  // namespace mgba
