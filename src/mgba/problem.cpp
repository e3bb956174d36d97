#include "mgba/problem.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

namespace {

/// Below this many rows the per-block partial buffers cost more than the
/// sweep; the stochastic SCG batches typically land under it.
constexpr std::size_t kParallelRowThreshold = 128;
/// Fixed-partition parameters: a block per ~256 rows, at most 16 blocks.
/// The block count is a pure function of the row count — never of the
/// pool's thread count — which is what makes every reduction in this file
/// bit-identical across thread counts.
constexpr std::size_t kRowBlockGrain = 256;
constexpr std::size_t kMaxRowBlocks = 16;

std::size_t fixed_row_blocks(std::size_t m) {
  const std::size_t by_grain = (m + kRowBlockGrain - 1) / kRowBlockGrain;
  return std::clamp<std::size_t>(by_grain, 1, kMaxRowBlocks);
}

/// Workers that can actually run simultaneously: the pool size capped by
/// the machine's core count. When the pool is oversubscribed past the
/// hardware, dispatching these micro-scale sweeps buys no concurrency and
/// pays wake/switch latency on every solver iteration — the blocks then
/// run inline instead: same partials, same combine order, same result.
std::size_t effective_workers() {
  static const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(num_threads(), hw);
}

/// Partitions [0, m) into \p blocks near-equal contiguous ranges and calls
/// fn(blk, begin, end) for each; ranges depend only on (m, blocks). Blocks
/// are dispatched across the pool when that can help, inline otherwise —
/// the arithmetic each block performs is the same either way.
template <typename Fn>
void for_each_fixed_block(std::size_t m, std::size_t blocks, Fn&& fn) {
  const std::size_t base = m / blocks;
  const std::size_t rem = m % blocks;
  const auto range_of = [&](std::size_t blk) {
    const std::size_t begin = blk * base + std::min(blk, rem);
    return std::pair(begin, begin + base + (blk < rem ? 1 : 0));
  };
  if (blocks <= 1 || effective_workers() <= 1) {
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const auto [b, e] = range_of(blk);
      fn(blk, b, e);
    }
    return;
  }
  parallel_for(blocks, 1, [&](std::size_t bb, std::size_t be) {
    for (std::size_t blk = bb; blk < be; ++blk) {
      const auto [b, e] = range_of(blk);
      fn(blk, b, e);
    }
  });
}

/// The timing mode a check kind reads: late for setup, early for hold.
Mode check_mode(CheckKind kind) {
  return kind == CheckKind::Hold ? Mode::Early : Mode::Late;
}

/// Assembles the (cols, values) arrays of one path's matrix row:
/// a_ij = base delay * GBA derate of weighted gate j on the path, in the
/// mode the check cares about. Shared by the builder and refresh_row so a
/// refreshed row is computed by the letter-identical code path.
void assemble_row(const Timer& timer, const TimingGraph& graph,
                  const TimingPath& path, Mode mode, CornerId corner,
                  std::span<const std::int32_t> instance_column,
                  std::vector<std::pair<std::size_t, double>>& entries,
                  std::vector<std::size_t>& cols,
                  std::vector<double>& values) {
  entries.clear();
  for (const ArcId a : path.arcs) {
    if (!timer.is_weighted(a)) continue;
    const InstanceId inst = graph.arc(a).inst;
    const DeratePair derate = timer.instance_derate(inst, corner);
    const double contribution =
        timer.arc_delay_base(a, mode, corner) *
        (mode == Mode::Early ? derate.early : derate.late);
    entries.emplace_back(static_cast<std::size_t>(instance_column[inst]),
                         contribution);
  }
  std::sort(entries.begin(), entries.end());
  cols.clear();
  values.clear();
  for (const auto& [col, val] : entries) {
    // A path visits each instance at most once (simple path in a DAG),
    // but merge defensively.
    if (!cols.empty() && cols.back() == col) {
      values.back() += val;
    } else {
      cols.push_back(col);
      values.push_back(val);
    }
  }
}

}  // namespace

MgbaProblem::MgbaProblem(const Timer& timer, const PathEvaluator& evaluator,
                         const std::vector<TimingPath>& paths, double epsilon,
                         CheckKind kind)
    : kind_(kind), epsilon_(epsilon), corner_(evaluator.corner()) {
  const TimingGraph& graph = timer.graph();
  const Mode mode = check_mode(kind_);
  design_instances_ = graph.design().num_instances();
  instance_column_.assign(design_instances_, -1);

  // Pass 1: discover the column universe (weighted instances on any path).
  for (const TimingPath& path : paths) {
    for (const ArcId a : path.arcs) {
      if (!timer.is_weighted(a)) continue;
      const InstanceId inst = graph.arc(a).inst;
      if (instance_column_[inst] < 0) {
        instance_column_[inst] = static_cast<std::int32_t>(
            column_instance_.size());
        column_instance_.push_back(inst);
      }
    }
  }

  // Pass 2: rows.
  matrix_ = CsrMatrix(column_instance_.size());
  std::size_t nnz_estimate = 0;
  for (const TimingPath& path : paths) nnz_estimate += path.arcs.size();
  matrix_.reserve(paths.size(), nnz_estimate);
  row_path_.reserve(paths.size());

  // Golden PBA re-evaluation is the expensive part of the build (per-path
  // derate/slew/CRPR recomputation) and is independent per path: sweep it
  // in parallel into a per-path slot, then assemble rows serially in path
  // order so row indices are unchanged.
  std::vector<PathTiming> timings(paths.size());
  parallel_for(paths.size(), 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      timings[i] = evaluator.evaluate(paths[i], mode);
    }
  });

  std::vector<std::pair<std::size_t, double>> entries;
  std::vector<std::size_t> cols;
  std::vector<double> values;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    // An endpoint without a requirement (a false path; an output port's
    // hold) has nothing to fit.
    if (timings[p].pba_slack_ps == kInfPs) continue;
    assemble_row(timer, graph, paths[p], mode, corner_, instance_column_,
                 entries, cols, values);
    matrix_.append_row(cols, values);
    row_path_.push_back(p);
  }

  const std::size_t rows = matrix_.num_rows();
  b_.resize(rows);
  bound_.resize(rows);
  s_pba_.resize(rows);
  s_gba0_.resize(rows);
  all_rows_.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    set_row_targets(i, timings[row_path_[i]]);
    all_rows_[i] = i;
  }
}

void MgbaProblem::set_row_targets(std::size_t row, const PathTiming& timing) {
  s_gba0_[row] = timing.gba_slack_ps;
  s_pba_[row] = timing.pba_slack_ps;
  const double tol = epsilon_ * std::abs(timing.pba_slack_ps);
  if (kind_ == CheckKind::Hold) {
    b_[row] = timing.pba_slack_ps - timing.gba_slack_ps;
    bound_[row] = b_[row] + tol;  // a.y must stay <= bound
  } else {
    b_[row] = timing.gba_slack_ps - timing.pba_slack_ps;
    bound_[row] = b_[row] - tol;  // a.x must stay >= bound
  }
}

void MgbaProblem::refresh_row(std::size_t row, const Timer& timer,
                              const TimingPath& path,
                              const PathTiming& timing) {
  MGBA_CHECK(row < num_rows());
  // A constrained row cannot become unconstrained without a graph rebuild,
  // which poisons the refit session before reaching here.
  MGBA_CHECK(timing.pba_slack_ps != kInfPs);

  std::vector<std::pair<std::size_t, double>> entries;
  std::vector<std::size_t> cols;
  std::vector<double> values;
  assemble_row(timer, timer.graph(), path, check_mode(kind_), corner_,
               instance_column_, entries, cols, values);
  matrix_.set_row_values(row, values);  // checks the pattern size is intact
  set_row_targets(row, timing);
}

std::vector<double> MgbaProblem::to_instance_weights(
    std::span<const double> x) const {
  MGBA_CHECK(x.size() == num_cols());
  std::vector<double> weights(design_instances_, 0.0);
  for (std::size_t c = 0; c < x.size(); ++c) {
    weights[column_instance_[c]] = x[c];
  }
  return weights;
}

bool MgbaProblem::violates(std::size_t row, double ax) const {
  return kind_ == CheckKind::Hold ? ax > bound_[row] : ax < bound_[row];
}

double MgbaProblem::objective(std::span<const double> x,
                              double penalty_weight) const {
  return objective_rows(all_rows_, x, penalty_weight);
}

double MgbaProblem::objective_rows(std::span<const std::size_t> rows,
                                   std::span<const double> x,
                                   double penalty_weight) const {
  MGBA_CHECK(x.size() == num_cols());
  const auto sweep = [&](std::size_t begin, std::size_t end) {
    double f = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = rows[k];
      const double ax = matrix_.row_dot(i, x);
      const double r = ax - b_[i];
      f += r * r;
      if (violates(i, ax)) {
        const double v = ax - bound_[i];
        f += penalty_weight * v * v;
      }
    }
    return f;
  };
  if (rows.size() < kParallelRowThreshold) return sweep(0, rows.size());
  const std::size_t blocks = fixed_row_blocks(rows.size());
  std::vector<double> partial(blocks, 0.0);
  for_each_fixed_block(rows.size(), blocks,
                       [&](std::size_t blk, std::size_t begin,
                           std::size_t end) { partial[blk] = sweep(begin, end); });
  double f = 0.0;
  for (const double p : partial) f += p;
  return f;
}

void MgbaProblem::gradient(std::span<const double> x, double penalty_weight,
                           std::span<double> g) const {
  gradient_rows(all_rows_, x, penalty_weight, g);
}

void MgbaProblem::gradient_rows(std::span<const std::size_t> rows,
                                std::span<const double> x,
                                double penalty_weight,
                                std::span<double> g) const {
  MGBA_CHECK(g.size() == num_cols());
  const auto sweep = [&](std::size_t begin, std::size_t end,
                         std::span<double> out) {
    CsrMatrix::SpanSink sink{out};
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = rows[k];
      matrix_.row_dot_scatter(
          i, x,
          [&](double ax) {
            double coeff = 2.0 * (ax - b_[i]);
            if (violates(i, ax)) {
              coeff += 2.0 * penalty_weight * (ax - bound_[i]);
            }
            return coeff;
          },
          sink);
    }
  };
  std::fill(g.begin(), g.end(), 0.0);
  const std::size_t blocks = fixed_row_blocks(rows.size());
  if (rows.size() < kParallelRowThreshold || blocks <= 1 || g.empty()) {
    sweep(0, rows.size(), g);
    return;
  }
  std::vector<double> partial(blocks * g.size(), 0.0);
  for_each_fixed_block(
      rows.size(), blocks,
      [&](std::size_t blk, std::size_t begin, std::size_t end) {
        sweep(begin, end,
              std::span<double>(partial).subspan(blk * g.size(), g.size()));
      });
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const double* p = partial.data() + blk * g.size();
    for (std::size_t j = 0; j < g.size(); ++j) g[j] += p[j];
  }
}

void MgbaProblem::gradient_rows_sparse(
    std::span<const std::size_t> rows, std::span<const double> x,
    double penalty_weight, SparseAccumulator& g,
    std::vector<SparseAccumulator>& block_scratch) const {
  if (g.size() != num_cols()) {
    g.resize(num_cols());
  } else {
    g.clear();
  }
  const auto sweep = [&](std::size_t begin, std::size_t end,
                         SparseAccumulator& out) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = rows[k];
      matrix_.row_dot_scatter(
          i, x,
          [&](double ax) {
            double coeff = 2.0 * (ax - b_[i]);
            if (violates(i, ax)) {
              coeff += 2.0 * penalty_weight * (ax - bound_[i]);
            }
            return coeff;
          },
          out);
    }
  };
  const std::size_t blocks = fixed_row_blocks(rows.size());
  if (rows.size() < kParallelRowThreshold || blocks <= 1 ||
      num_cols() == 0) {
    sweep(0, rows.size(), g);
    return;
  }
  if (block_scratch.size() < blocks) block_scratch.resize(blocks);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    if (block_scratch[blk].size() != num_cols()) {
      block_scratch[blk].resize(num_cols());
    } else {
      block_scratch[blk].clear();
    }
  }
  for_each_fixed_block(rows.size(), blocks,
                       [&](std::size_t blk, std::size_t begin,
                           std::size_t end) { sweep(begin, end,
                                                    block_scratch[blk]); });
  // Combine in block order, ascending columns within a block — the exact
  // order the dense path adds its partial buffers (its untouched entries
  // contribute exact +0.0 terms, which are additive identities).
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    block_scratch[blk].for_each([&](std::size_t j, double v) { g.add(j, v); });
  }
}

double MgbaProblem::model_slack(std::size_t row,
                                std::span<const double> x) const {
  const double ax = matrix_.row_dot(row, x);
  return kind_ == CheckKind::Hold ? s_gba0_[row] + ax : s_gba0_[row] - ax;
}

}  // namespace mgba
