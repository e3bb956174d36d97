#include "mgba/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/vector_ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

namespace {

/// The active row set: the caller's subset, or the problem's cached
/// identity set when the subset is empty. A view — nothing is copied.
std::span<const std::size_t> resolve_rows(const MgbaProblem& problem,
                                          std::span<const std::size_t> rows) {
  return rows.empty() ? problem.all_rows() : rows;
}

/// Objective restricted to a row subset (penalty side follows the
/// problem's check kind: a lower bound for setup, an upper bound for hold).
/// Delegates to the problem's deterministic parallel row sweep.
double objective_rows(const MgbaProblem& problem,
                      std::span<const std::size_t> rows,
                      std::span<const double> x, double penalty) {
  return problem.objective_rows(rows, x, penalty);
}

std::vector<double> initial_x(const MgbaProblem& problem,
                              std::span<const double> x0) {
  if (x0.empty()) return std::vector<double>(problem.num_cols(), 0.0);
  MGBA_CHECK(x0.size() == problem.num_cols());
  return {x0.begin(), x0.end()};
}

void reset_accumulator(SparseAccumulator& a, std::size_t n) {
  if (a.size() != n) {
    a.resize(n);
  } else {
    a.clear();
  }
}

/// Builds (or reuses, when the caller vouches via alias_valid) the Eq.-11
/// sampling state in \p scratch. Returns false on the degenerate
/// all-zero-norm problem (nothing to fit).
bool ensure_sampling_state(const MgbaProblem& problem,
                           std::span<const std::size_t> rows,
                           SolverScratch& scratch) {
  if (scratch.alias && scratch.alias_valid &&
      scratch.alias_rows == rows.size()) {
    return true;
  }
  // Row selection distribution of Eq. (11): P(j) ~ ||a_j||^2 (cached in the
  // matrix). Rows with zero norm (paths containing no weighted gate) are
  // never informative; give them a tiny floor so the alias table stays
  // valid.
  scratch.weights.resize(rows.size());
  std::span<double> weights(scratch.weights);
  parallel_for(rows.size(), 256, [&](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
      weights[r] = problem.matrix().row_norm_sq(rows[r]);
    }
  });
  double max_norm = 0.0;
  for (const double w : weights) max_norm = std::max(max_norm, w);
  if (max_norm == 0.0) return false;
  for (double& w : weights) w = std::max(w, 1e-12 * max_norm);
  scratch.alias = std::make_unique<AliasTable>(weights);
  scratch.alias_rows = rows.size();
  scratch.alias_valid = true;
  return true;
}

/// Algorithm 2 with every per-iteration vector op over all num_cols()
/// entries — the body behind solve_scg_dense_reference.
SolveResult solve_scg_dense(const MgbaProblem& problem,
                            std::span<const std::size_t> rows,
                            const SolverOptions& options,
                            std::span<const double> x0,
                            SolverScratch& scratch) {
  const std::size_t n = problem.num_cols();
  Rng rng(options.seed);
  const AliasTable& alias = *scratch.alias;

  const std::size_t k_rows = std::max<std::size_t>(
      options.min_rows,
      static_cast<std::size_t>(
          std::ceil(options.row_fraction * static_cast<double>(rows.size()))));

  std::vector<double> x = initial_x(problem, x0);
  std::vector<double> x_prev(n, 0.0);
  std::vector<double> g(n, 0.0), g_prev(n, 0.0), d(n, 0.0);
  std::vector<double> x_avg = x;
  std::vector<double> checkpoint = x;
  scratch.sampled.resize(k_rows);
  std::span<std::size_t> sampled(scratch.sampled);

  SolveResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Lines 3-4: draw k'' rows with norm-proportional probability.
    for (std::size_t s = 0; s < k_rows; ++s) sampled[s] = rows[alias.draw(rng)];

    // Line 5: stochastic gradient on the sampled rows.
    problem.gradient_rows(sampled, x, options.penalty_weight, g);
    const double g_norm = norm2(g);
    if (g_norm == 0.0) break;
    // Line 6: normalize.
    scale(g, 1.0 / g_norm);

    // Line 7: Polak-Ribiere parameter (PR+: clamped at 0 for stability, as
    // is standard for nonlinear CG restarts).
    double beta = 0.0;
    if (options.use_conjugation && iter > 0) {
      const double denom = norm2_sq(g_prev);
      if (denom > 0.0) {
        double num = 0.0;
        for (std::size_t j = 0; j < n; ++j) num += g[j] * (g[j] - g_prev[j]);
        beta = std::max(0.0, num / denom);
      }
    }
    // Line 8: conjugate direction.
    for (std::size_t j = 0; j < n; ++j) d[j] = -g[j] + beta * d[j];
    const double d_norm = norm2(d);
    if (d_norm == 0.0) break;

    // Line 9: dynamic step, with the optional [15]-style decay schedule.
    const double s_k = options.step_size /
                       (1.0 + options.step_decay * static_cast<double>(iter));
    const double alpha = s_k / d_norm;

    // Line 10: update.
    x_prev = x;
    axpy(alpha, d, x);
    std::swap(g_prev, g);
    ++result.iterations;

    // Tail averaging (see SolverOptions::iterate_averaging).
    if (options.iterate_averaging > 0.0) {
      const double gamma = options.iterate_averaging;
      for (std::size_t j = 0; j < n; ++j) {
        x_avg[j] += gamma * (x[j] - x_avg[j]);
      }
      // Line 2's relative-variation rule, applied to the averaged iterate
      // at checkpoints (the raw iterate moves a fixed s every step, so the
      // paper's per-step test never fires with a constant step size).
      if (result.iterations % 100 == 0) {
        if (relative_change(x_avg, checkpoint) <= options.convergence_tol) {
          break;
        }
        checkpoint = x_avg;
      }
    } else if (iter > 0 &&
               relative_change(x, x_prev) <= options.convergence_tol) {
      break;  // Line 2, literal form.
    }
  }
  if (options.iterate_averaging > 0.0 && result.iterations > 50) {
    x = std::move(x_avg);
  }
  result.final_objective =
      objective_rows(problem, rows, x, options.penalty_weight);
  result.x = std::move(x);
  return result;
}

/// Algorithm 2 over sparse accumulators: per-iteration cost is O(nnz of
/// the sampled rows + columns the iterate has ever moved on), not
/// O(num_cols). Every sum runs over the relevant support in ascending index
/// order, so each partial sum sees exactly the nonzero terms the dense
/// reference sees, in the same order — the skipped terms are exact +0.0
/// additive identities — which makes the result bit-identical to
/// solve_scg_dense.
SolveResult solve_scg_sparse(const MgbaProblem& problem,
                             std::span<const std::size_t> rows,
                             const SolverOptions& options,
                             std::span<const double> x0,
                             SolverScratch& scratch) {
  const std::size_t n = problem.num_cols();
  Rng rng(options.seed);
  const AliasTable& alias = *scratch.alias;

  const std::size_t k_rows = std::max<std::size_t>(
      options.min_rows,
      static_cast<std::size_t>(
          std::ceil(options.row_fraction * static_cast<double>(rows.size()))));

  std::vector<double> x = initial_x(problem, x0);
  SparseAccumulator& g = scratch.g;
  SparseAccumulator& g_prev = scratch.g_prev;
  SparseAccumulator& d = scratch.d;
  SparseAccumulator& xs = scratch.x_support;
  reset_accumulator(g, n);
  reset_accumulator(g_prev, n);
  reset_accumulator(d, n);
  reset_accumulator(xs, n);
  // A warm start's nonzeros join the support (x never holds -0.0: it only
  // ever accumulates += terms from +0.0 starts, and IEEE round-to-nearest
  // addition yields -0.0 only from two negative zeros).
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] != 0.0) xs.touch(j);
  }
  std::vector<double> x_avg = x;
  std::vector<double> checkpoint = x;
  scratch.sampled.resize(k_rows);
  std::span<std::size_t> sampled(scratch.sampled);

  SolveResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Lines 3-4: draw k'' rows with norm-proportional probability.
    for (std::size_t s = 0; s < k_rows; ++s) sampled[s] = rows[alias.draw(rng)];

    // Line 5: stochastic gradient on the sampled rows (O(batch nnz)).
    problem.gradient_rows_sparse(sampled, x, options.penalty_weight, g,
                                 scratch.gradient_blocks);
    double g_norm_sq = 0.0;
    g.for_each([&](std::size_t, double v) { g_norm_sq += v * v; });
    const double g_norm = std::sqrt(g_norm_sq);
    if (g_norm == 0.0) break;
    // Line 6: normalize.
    const double g_inv = 1.0 / g_norm;
    g.for_each_mut([&](std::size_t, double& v) { v *= g_inv; });

    // Line 7: Polak-Ribiere parameter (PR+), over the support union.
    double beta = 0.0;
    if (options.use_conjugation && iter > 0) {
      double denom = 0.0;
      g_prev.for_each([&](std::size_t, double v) { denom += v * v; });
      if (denom > 0.0) {
        double num = 0.0;
        for_each_union_index(g, g_prev, [&](std::size_t j) {
          num += g[j] * (g[j] - g_prev[j]);
        });
        beta = std::max(0.0, num / denom);
      }
    }
    // Line 8: conjugate direction. New support = old support U support(g);
    // entries outside it stay exact +0.0 under the dense recurrence
    // (-(+0.0) + beta*(+0.0) = +0.0 for beta >= 0).
    d.include_support(g);
    const std::span<const double> gv = g.values();
    double d_norm_sq = 0.0;
    d.for_each_mut([&](std::size_t j, double& v) {
      v = -gv[j] + beta * v;
      d_norm_sq += v * v;  // same ascending order as a separate norm sweep
    });
    const double d_norm = std::sqrt(d_norm_sq);
    if (d_norm == 0.0) break;

    // Line 9: dynamic step, with the optional [15]-style decay schedule.
    const double s_k = options.step_size /
                       (1.0 + options.step_decay * static_cast<double>(iter));
    const double alpha = s_k / d_norm;

    // Line 10: update — fused with the convergence diff so no O(n)
    // x_prev = x copy is needed (dense reference: x_prev = x; axpy; then
    // ||x - x_prev|| / ||x_prev||).
    const bool literal_convergence = options.iterate_averaging <= 0.0;
    double x_prev_norm_sq = 0.0;
    if (literal_convergence) {
      xs.for_each(
          [&](std::size_t j, double) { x_prev_norm_sq += x[j] * x[j]; });
    }
    xs.include_support(d);
    double diff_sq = 0.0;
    if (literal_convergence) {
      d.for_each([&](std::size_t j, double v) {
        const double old = x[j];
        const double next = old + alpha * v;
        x[j] = next;
        const double step = next - old;
        diff_sq += step * step;
      });
    } else {
      // Tail-averaging mode: fuse the x update into the averaging relaxation
      // — one sweep over the iterate support instead of two, and the diff
      // accumulator (unused here; convergence is checkpoint-based) is
      // dropped. x moves only on d's support; elsewhere the dense recurrence
      // adds alpha * (+0.0), a no-op, while the averaging term must still
      // relax every supported entry toward x. Per-entry arithmetic is
      // unchanged, so the result stays bit-identical. The sweep walks the
      // two occupancy bitmaps word-by-word: on a cold start xs equals d
      // (both only ever accumulate the sampled supports), so almost every
      // word pair matches and the per-entry membership test — which would
      // otherwise put a branch in the hot loop — vanishes; the
      // all-64-entries case degenerates to a branch-free linear span.
      const double gamma = options.iterate_averaging;
      const std::span<const double> dv = d.values();
      const std::span<const std::uint64_t> wx = xs.support_words();
      const std::span<const std::uint64_t> wd = d.support_words();
      for (std::size_t w = 0; w < wx.size(); ++w) {
        const std::uint64_t bx = wx[w];
        if (bx == 0) continue;
        const std::uint64_t bd = wd[w];
        const std::size_t base = w * 64;
        if (bd == bx) {
          if (bx == ~std::uint64_t{0}) {
            for (std::size_t j = base; j < base + 64; ++j) {
              x[j] += alpha * dv[j];
              x_avg[j] += gamma * (x[j] - x_avg[j]);
            }
          } else {
            std::uint64_t bits = bx;
            while (bits != 0) {
              const std::size_t j =
                  base + static_cast<std::size_t>(std::countr_zero(bits));
              x[j] += alpha * dv[j];
              x_avg[j] += gamma * (x[j] - x_avg[j]);
              bits &= bits - 1;
            }
          }
        } else {
          std::uint64_t bits = bx;
          while (bits != 0) {
            const std::size_t j =
                base + static_cast<std::size_t>(std::countr_zero(bits));
            if ((bd >> (j & 63)) & 1) x[j] += alpha * dv[j];
            x_avg[j] += gamma * (x[j] - x_avg[j]);
            bits &= bits - 1;
          }
        }
      }
    }
    g_prev.swap(g);
    ++result.iterations;

    if (options.iterate_averaging > 0.0) {
      // Line 2's relative-variation rule, applied to the averaged iterate
      // at checkpoints (the raw iterate moves a fixed s every step, so the
      // paper's per-step test never fires with a constant step size). The
      // two checkpoint sums share one sweep: independent accumulators in
      // the same ascending order give the exact sums of separate sweeps.
      if (result.iterations % 100 == 0) {
        double avg_diff_sq = 0.0;
        double base_sq = 0.0;
        xs.for_each([&](std::size_t j, double) {
          const double dj = x_avg[j] - checkpoint[j];
          avg_diff_sq += dj * dj;
          base_sq += checkpoint[j] * checkpoint[j];
        });
        const double base = std::sqrt(base_sq);
        const double rel =
            base == 0.0 ? std::sqrt(avg_diff_sq) : std::sqrt(avg_diff_sq) / base;
        if (rel <= options.convergence_tol) break;
        xs.for_each(
            [&](std::size_t j, double) { checkpoint[j] = x_avg[j]; });
      }
    } else if (iter > 0) {
      const double base = std::sqrt(x_prev_norm_sq);
      const double rel =
          base == 0.0 ? std::sqrt(diff_sq) : std::sqrt(diff_sq) / base;
      if (rel <= options.convergence_tol) break;  // Line 2, literal form.
    }
  }
  if (options.iterate_averaging > 0.0 && result.iterations > 50) {
    x = std::move(x_avg);
  }
  result.final_objective =
      objective_rows(problem, rows, x, options.penalty_weight);
  result.x = std::move(x);
  return result;
}

}  // namespace

SolveResult solve_gradient_descent(const MgbaProblem& problem,
                                   std::span<const std::size_t> rows_in,
                                   const SolverOptions& options,
                                   std::span<const double> x0) {
  const Stopwatch watch;
  const std::span<const std::size_t> rows = resolve_rows(problem, rows_in);
  std::vector<double> x = initial_x(problem, x0);
  std::vector<double> g(problem.num_cols(), 0.0);
  // Hoisted out of the Armijo loop: each backtrack writes every entry, so
  // the trial vector never needs re-initializing from x.
  std::vector<double> x_trial(x.size(), 0.0);

  SolveResult result;
  double f = objective_rows(problem, rows, x, options.penalty_weight);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    problem.gradient_rows(rows, x, options.penalty_weight, g);
    const double g_norm_sq = norm2_sq(g);
    if (g_norm_sq == 0.0) break;

    // Armijo backtracking line search along -g.
    double t = 1.0 / std::sqrt(g_norm_sq);
    constexpr double kShrink = 0.5;
    constexpr double kSlope = 1e-4;
    double f_new = f;
    for (int bt = 0; bt < 40; ++bt) {
      for (std::size_t j = 0; j < x.size(); ++j) {
        x_trial[j] = x[j] + (-t) * g[j];
      }
      f_new = objective_rows(problem, rows, x_trial, options.penalty_weight);
      if (f_new <= f - kSlope * t * g_norm_sq) break;
      t *= kShrink;
    }
    // Accept, measuring the step against the pre-update iterate in place —
    // the same ||x_new - x|| / ||x|| the old x_prev copy computed.
    double diff_sq = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double dj = x_trial[j] - x[j];
      diff_sq += dj * dj;
    }
    const double base = norm2(x);
    std::swap(x, x_trial);
    f = f_new;
    ++result.iterations;

    const double rel = base == 0.0 ? std::sqrt(diff_sq) : std::sqrt(diff_sq) / base;
    if (rel <= options.convergence_tol) break;
  }
  result.x = std::move(x);
  result.final_objective = f;
  result.seconds = watch.seconds();
  return result;
}

SolveResult solve_scg(const MgbaProblem& problem,
                      std::span<const std::size_t> rows_in,
                      const SolverOptions& options,
                      std::span<const double> x0, SolverScratch* scratch_in) {
  const Stopwatch watch;
  const std::span<const std::size_t> rows = resolve_rows(problem, rows_in);
  SolverScratch local;
  SolverScratch& scratch = scratch_in ? *scratch_in : local;

  if (!ensure_sampling_state(problem, rows, scratch)) {
    // Degenerate problem: nothing to fit.
    SolveResult result;
    result.x.assign(problem.num_cols(), 0.0);
    result.seconds = watch.seconds();
    return result;
  }

  SolveResult result = solve_scg_sparse(problem, rows, options, x0, scratch);
  result.seconds = watch.seconds();
  return result;
}

SolveResult solve_scg_dense_reference(const MgbaProblem& problem,
                                      std::span<const std::size_t> rows_in,
                                      const SolverOptions& options,
                                      std::span<const double> x0) {
  const Stopwatch watch;
  const std::span<const std::size_t> rows = resolve_rows(problem, rows_in);
  SolverScratch scratch;
  SolveResult result;
  if (ensure_sampling_state(problem, rows, scratch)) {
    result = solve_scg_dense(problem, rows, options, x0, scratch);
  } else {
    result.x.assign(problem.num_cols(), 0.0);
  }
  result.seconds = watch.seconds();
  return result;
}

SolveResult solve_scg_with_row_sampling(const MgbaProblem& problem,
                                        std::span<const std::size_t> rows_in,
                                        const SolverOptions& options,
                                        const SamplingOptions& sampling,
                                        SolverScratch* scratch_in) {
  const Stopwatch watch;
  const std::span<const std::size_t> rows = resolve_rows(problem, rows_in);
  Rng rng(sampling.seed);
  SolverScratch local;
  SolverScratch& scratch = scratch_in ? *scratch_in : local;

  SolveResult result;
  std::vector<double> x(problem.num_cols(), 0.0);
  const double floor_ratio =
      std::min(1.0, static_cast<double>(sampling.min_rows) /
                        static_cast<double>(rows.size()));
  double ratio = std::max(sampling.initial_ratio, floor_ratio);

  // Norm-weighted ablation: one alias table over the active rows, built
  // once (from the matrix's cached norms, filled in parallel) and reused
  // across every doubling round.
  std::unique_ptr<AliasTable> norm_alias;
  if (sampling.norm_weighted) {
    std::vector<double> weights(rows.size());
    parallel_for(rows.size(), 256, [&](std::size_t b, std::size_t e) {
      for (std::size_t r = b; r < e; ++r) {
        weights[r] = problem.matrix().row_norm_sq(rows[r]);
      }
    });
    double max_w = 0.0;
    for (const double w : weights) max_w = std::max(max_w, w);
    if (max_w > 0.0) {
      for (double& w : weights) w = std::max(w, 1e-12 * max_w);
      norm_alias = std::make_unique<AliasTable>(weights);
    }
  }

  // Round buffers live in the scratch arena: cleared, never reallocated.
  std::vector<std::size_t>& picked = scratch.picked;
  std::vector<char>& taken = scratch.taken;
  std::vector<std::size_t>& subset = scratch.subset;

  for (std::size_t round = 0; round < sampling.max_doublings; ++round) {
    // Line 1/5: row sample at the current ratio — uniform per the paper,
    // or norm-weighted for the leverage-surrogate ablation.
    picked.clear();
    if (norm_alias) {
      const auto target = static_cast<std::size_t>(
          std::ceil(ratio * static_cast<double>(rows.size())));
      taken.assign(rows.size(), 0);
      for (std::size_t draws = 0;
           picked.size() < target && draws < target * 8; ++draws) {
        const std::size_t r = norm_alias->draw(rng);
        if (!taken[r]) {
          taken[r] = 1;
          picked.push_back(r);
        }
      }
      std::sort(picked.begin(), picked.end());
    } else {
      picked = sample_rows_uniform(rows.size(), ratio, rng);
    }
    subset.clear();
    subset.reserve(picked.size());
    for (const std::size_t p : picked) subset.push_back(rows[p]);

    // Line 3: solve the reduced problem (warm-started, bounded budget).
    // Each round sees a different row subset, so the Eq.-11 sampling state
    // cached in the scratch must be rebuilt.
    scratch.alias_valid = false;
    SolverOptions inner = options;
    inner.seed = options.seed + round;
    inner.max_iterations =
        std::min(options.max_iterations, sampling.inner_iterations);
    SolveResult sub = solve_scg(problem, subset, inner, x, &scratch);
    result.iterations += sub.iterations;
    result.outer_rounds = round + 1;

    const double change = relative_change(sub.x, x);
    x = std::move(sub.x);

    // Line 2: stop when the solution stops moving between rounds.
    if (round > 0 && change <= sampling.tolerance) break;
    if (ratio >= 1.0) break;  // already solving the full set
    // Line 4: double the sampling ratio.
    ratio = std::min(1.0, ratio * 2.0);
  }
  scratch.alias_valid = false;
  result.final_objective =
      objective_rows(problem, rows, x, options.penalty_weight);
  result.x = std::move(x);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace mgba
