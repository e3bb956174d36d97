#include "mgba/framework.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "mgba/metrics.hpp"
#include "mgba/path_selection.hpp"
#include "pba/path_engine.hpp"
#include "pba/path_enum.hpp"
#include "sta/report.hpp"
#include "util/check.hpp"
#include "util/float_bits.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

namespace {

/// Fit state handed back to MgbaRefitSession by the shared flow below.
struct FitCapture {
  std::vector<TimingPath> paths;
  std::unique_ptr<MgbaProblem> problem;
  std::vector<std::size_t> rows;
  std::vector<double> x;
};

/// One full Fig. 5 fit. run_mgba_flow calls this with no capture (its
/// historical behavior, bit for bit); MgbaRefitSession::fit() passes a
/// capture to keep the paths/problem/rows/solution for later refits, and
/// its solver scratch so the cold fit already warms the refit arena.
MgbaFlowResult run_mgba_flow_impl(Timer& timer, const DerateTable& table,
                                  const MgbaFlowOptions& options,
                                  FitCapture* capture, SolverScratch* scratch,
                                  PathEngineHub* path_hub) {
  MGBA_CHECK(options.candidate_paths_per_endpoint >=
             options.paths_per_endpoint);
  const Stopwatch total_watch;
  MgbaFlowResult result;
  const bool hold = options.check_kind == CheckKind::Hold;
  const Mode mode = hold ? Mode::Early : Mode::Late;
  const CornerId corner = options.corner;
  MGBA_CHECK(corner < timer.num_corners());
  result.corner = corner;

  // The fit is defined against plain GBA: clear any stale weights on the
  // side being fitted, at the corner being fitted.
  if (hold) {
    timer.set_instance_weights_early(corner, {});
  } else {
    timer.set_instance_weights(corner, {});
  }
  timer.update_timing();

  // Candidate enumeration (per-endpoint k-best under GBA delays). When the
  // flow targets violations only, skip clean endpoints entirely — this is
  // what keeps the fit overhead a small fraction of the closure flow
  // (paper Table 5: mGBA column ~2% of the flow runtime). With a hub the
  // enumeration comes from its persistent engine (warm across fits); the
  // golden evaluation shares whichever frozen view the paths came from,
  // so the whole fit forks at most one snapshot.
  PathEngine* engine = nullptr;
  if (path_hub != nullptr) {
    engine =
        &path_hub->engine(options.candidate_paths_per_endpoint, mode, corner);
    engine->sync();
  }
  std::shared_ptr<const TimingSnapshot> view =
      engine != nullptr ? engine->view() : timer.snapshot();
  std::unique_ptr<MgbaProblem> problem;
  std::vector<TimingPath> paths;
  {
    std::optional<PathEnumerator> enumerator;
    if (engine == nullptr) {
      enumerator.emplace(view, options.candidate_paths_per_endpoint, mode,
                         corner);
    }
    std::vector<NodeId> endpoints;
    for (const NodeId e : timer.graph().endpoints()) {
      if (!options.only_violated || timer.slack(e, mode, corner) < 0.0) {
        endpoints.push_back(e);
      }
    }
    if (endpoints.empty()) endpoints = timer.graph().endpoints();
    for (const NodeId e : endpoints) {
      // Hold checks exist only at flip-flop data pins; keep the path list
      // aligned 1:1 with the problem rows by filtering here.
      if (hold && !timer.graph().check_at(e).has_value()) continue;
      for (TimingPath& p : engine != nullptr ? engine->paths_to(e)
                                             : enumerator->paths_to(e)) {
        paths.push_back(std::move(p));
      }
    }
    result.candidate_paths = paths.size();
    if (paths.empty()) return result;

    // Full problem over all candidates (also the measurement set).
    const PathEvaluator evaluator(view, table, options.eval_options, corner);
    problem = std::make_unique<MgbaProblem>(timer, evaluator, paths,
                                            options.epsilon,
                                            options.check_kind);
    // Done reading the frozen version: release it before the weight
    // application below so head writes stop privatizing against it (the
    // engine keeps its own pinned view as the next sync's diff base).
    view.reset();
  }
  result.variables = problem->num_cols();
  if (problem->num_rows() == 0 || problem->num_cols() == 0) return result;

  // Row universe: violated paths, falling back to all candidates when the
  // design is already clean (so the fit is still meaningful).
  std::vector<std::size_t> candidates = violated_rows(problem->gba_slack());
  result.violated_paths = candidates.size();
  if (candidates.empty() || !options.only_violated) {
    candidates.resize(problem->num_rows());
    for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  }

  // Scheme 2 selection: k' worst per endpoint, capped at m'.
  std::vector<std::size_t> rows = select_per_endpoint(
      paths, problem->gba_slack(), candidates, options.paths_per_endpoint,
      options.max_paths);
  result.fitted_paths = rows.size();

  // Solve.
  SolveResult solved;
  switch (options.solver) {
    case MgbaSolverKind::GradientDescent:
      solved = solve_gradient_descent(*problem, rows, options.solver_options);
      break;
    case MgbaSolverKind::Scg:
      solved = solve_scg(*problem, rows, options.solver_options, {}, scratch);
      break;
    case MgbaSolverKind::ScgWithRowSampling:
      solved = solve_scg_with_row_sampling(*problem, rows,
                                           options.solver_options,
                                           options.sampling_options, scratch);
      break;
  }
  result.solve_seconds = solved.seconds;
  result.solver_iterations = solved.iterations;

  // Quality on the full candidate set.
  const std::vector<double> x0(problem->num_cols(), 0.0);
  result.mse_before = modeling_mse(*problem, x0);
  result.mse_after = modeling_mse(*problem, solved.x);
  result.pass_ratio_before = pass_ratio(*problem, x0).ratio();
  result.pass_ratio_after = pass_ratio(*problem, solved.x).ratio();

  // Apply the weighting factors to the timing graph (Fig. 5: "update
  // timing graph").
  result.instance_weights = problem->to_instance_weights(solved.x);
  if (hold) {
    timer.set_instance_weights_early(corner, result.instance_weights);
  } else {
    timer.set_instance_weights(corner, result.instance_weights);
  }
  timer.update_timing();

  if (capture != nullptr) {
    capture->paths = std::move(paths);
    capture->problem = std::move(problem);
    capture->rows = std::move(rows);
    capture->x = std::move(solved.x);
  }

  result.total_seconds = total_watch.seconds();
  MGBA_LOG_INFO(
      "mGBA flow [%s]: %zu candidates, %zu violated, fit %zu rows x %zu "
      "vars, mse %.4g -> %.4g, pass %.3f -> %.3f, solve %.2fs",
      timer.corner(corner).name.c_str(), result.candidate_paths,
      result.violated_paths, result.fitted_paths, result.variables,
      result.mse_before, result.mse_after, result.pass_ratio_before,
      result.pass_ratio_after, result.solve_seconds);
  return result;
}

}  // namespace

MgbaFlowResult run_mgba_flow(Timer& timer, const DerateTable& table,
                             const MgbaFlowOptions& options,
                             PathEngineHub* path_hub) {
  return run_mgba_flow_impl(timer, table, options, nullptr, nullptr, path_hub);
}

std::vector<MgbaFlowResult> run_mgba_flow_all_corners(
    Timer& timer, std::span<const CornerSetup> setups, MgbaFlowOptions options,
    PathEngineHub* path_hub) {
  MGBA_CHECK(setups.size() == timer.num_corners());
  std::vector<MgbaFlowResult> results;
  results.reserve(setups.size());
  for (std::size_t c = 0; c < setups.size(); ++c) {
    options.corner = static_cast<CornerId>(c);
    results.push_back(run_mgba_flow(timer, setups[c].table, options, path_hub));
  }
  return results;
}

std::string fit_result_summary(const Timer& timer, const MgbaFlowResult& fit,
                               CheckKind check_kind) {
  std::string out = str_format(
      "fit (%s, %s): %zu candidates, %zu violated, %zu rows x %zu vars\n",
      check_kind == CheckKind::Hold ? "hold" : "setup",
      corner_label(timer, fit.corner).c_str(), fit.candidate_paths,
      fit.violated_paths, fit.fitted_paths, fit.variables);
  out += str_format("  mse        %.6g -> %.6g\n", fit.mse_before,
                    fit.mse_after);
  out += str_format("  pass ratio %.2f%% -> %.2f%% (%zu iterations)\n",
                    100.0 * fit.pass_ratio_before,
                    100.0 * fit.pass_ratio_after, fit.solver_iterations);
  return out;
}

// ---------------------------------------------------------------------------
// MgbaRefitSession
// ---------------------------------------------------------------------------

MgbaRefitSession::MgbaRefitSession(Timer& timer, const DerateTable& table,
                                   MgbaFlowOptions options)
    : timer_(&timer), table_(&table), options_(std::move(options)) {}

MgbaFlowResult MgbaRefitSession::fit() {
  FitCapture capture;
  // The row set is about to change wholesale; never let solve_scg reuse a
  // previous session's alias table just because the sizes coincide.
  scratch_.alias_valid = false;
  // Drop the previous fit's version first: the cold flow runs full
  // propagations, and a live snapshot would force each one to privatize
  // the whole arena for a view nobody will read again.
  fit_view_.reset();
  MgbaFlowResult result = run_mgba_flow_impl(*timer_, *table_, options_,
                                             &capture, &scratch_, path_hub_);
  paths_ = std::move(capture.paths);
  problem_ = std::move(capture.problem);
  rows_ = std::move(capture.rows);
  x_ = std::move(capture.x);
  has_fit_ = problem_ != nullptr && !x_.empty();
  if (has_fit_) build_row_index();
  last_result_ = result;
  // Arm the log: from here on the timer records which instances value-only
  // ECOs touch, and poisons itself on anything structural. Capture the
  // fitted version alongside — refit() bit-diffs head against it, so row
  // invalidation no longer trusts the log alone.
  timer_->reset_eco_log();
  if (has_fit_) fit_view_ = timer_->snapshot();
  return result;
}

void MgbaRefitSession::build_row_index() {
  const std::size_t num_nodes = timer_->graph().num_nodes();
  node_row_ptr_.assign(num_nodes + 1, 0);
  const std::size_t m = problem_->num_rows();
  for (std::size_t r = 0; r < m; ++r) {
    for (const NodeId n : paths_[problem_->row_path(r)].nodes) {
      ++node_row_ptr_[n + 1];
    }
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    node_row_ptr_[i + 1] += node_row_ptr_[i];
  }
  node_row_idx_.resize(node_row_ptr_[num_nodes]);
  std::vector<std::size_t> cursor(node_row_ptr_.begin(),
                                  node_row_ptr_.end() - 1);
  for (std::size_t r = 0; r < m; ++r) {
    for (const NodeId n : paths_[problem_->row_path(r)].nodes) {
      node_row_idx_[cursor[n]++] = r;
    }
  }
}

std::size_t MgbaRefitSession::collect_stale_rows(
    std::span<const InstanceId> touched) {
  const TimingGraph& graph = timer_->graph();
  const std::size_t num_nodes = graph.num_nodes();
  if (node_flag_.size() < num_nodes) node_flag_.resize(num_nodes, 0);
  if (row_stale_.size() < problem_->num_rows()) {
    row_stale_.resize(problem_->num_rows(), 0);
  }

  // Seed exactly like the incremental engine (pins, drivers, siblings),
  // then grow the forward cone: every quantity a row depends on — base
  // delays (via slews), the plain-GBA arrival, the endpoint required time
  // (via the endpoint data slew), and the PBA re-propagation (anchored at
  // the path's front node) — can only move at nodes inside this cone.
  // Clock-side changes would escape it, but those poison the log.
  seed_scratch_.clear();
  timer_->seed_nodes_for(touched, seed_scratch_);
  cone_.clear();
  const auto visit = [&](NodeId n) {
    if (!node_flag_[n]) {
      node_flag_[n] = 1;
      cone_.push_back(n);
    }
  };
  for (const NodeId n : seed_scratch_) visit(n);
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    for (const ArcId a : graph.fanout(cone_[i])) visit(graph.arc(a).to);
  }

  stale_rows_.clear();
  for (const NodeId n : cone_) {
    for (std::size_t k = node_row_ptr_[n]; k < node_row_ptr_[n + 1]; ++k) {
      const std::size_t row = node_row_idx_[k];
      if (!row_stale_[row]) {
        row_stale_[row] = 1;
        stale_rows_.push_back(row);
      }
    }
  }
  // Touched-entry cleanup keeps the next refit O(touched), not O(graph).
  for (const NodeId n : cone_) node_flag_[n] = 0;
  for (const std::size_t r : stale_rows_) row_stale_[r] = 0;
  // Refresh in row order, independent of cone discovery order.
  std::sort(stale_rows_.begin(), stale_rows_.end());
  return cone_.size();
}

std::size_t MgbaRefitSession::add_version_diff_rows() {
  if (!fit_view_) return 0;
  // A second fork of the head: O(1), and it dies before the weight
  // re-application below, so it never forces an O(arena) privatize.
  const std::shared_ptr<const TimingSnapshot> head_view = timer_->snapshot();
  const TimingData& head = head_view->data();
  const TimingData& fit = fit_view_->data();
  const TimingGraph& graph = timer_->graph();
  // Shape or graph-identity drift implies a structural change, which
  // poisons the log and routes refit() to the cold path before this runs;
  // guard anyway so the diff can never index across shapes.
  if (!head.same_shape(fit) || &fit_view_->graph() != &graph) return 0;

  const std::size_t num_nodes = head.num_nodes;
  if (node_flag_.size() < num_nodes) node_flag_.resize(num_nodes, 0);
  diff_nodes_.clear();
  const auto mark_node = [&](NodeId n) {
    if (!node_flag_[n]) {
      node_flag_[n] = 1;
      diff_nodes_.push_back(n);
    }
  };
  // Chunk pointers that still match are bit-identical by the COW fork
  // invariant (a shared chunk is never written), so the value compare
  // walks only the diverged ranges — O(chunks the ECOs touched).
  const auto diff_values = [&](const CowVec<double>& now,
                               const CowVec<double>& then,
                               const auto& node_of) {
    now.for_each_diverged_range(then, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        if (float_bits(now[i]) != float_bits(then[i])) mark_node(node_of(i));
      }
    });
  };
  const auto self_node = [&](std::size_t i) {
    return static_cast<NodeId>(i % num_nodes);
  };
  const auto arc_to_node = [&](std::size_t i) {
    return graph.arc(static_cast<ArcId>(i % head.num_arcs)).to;
  };
  diff_values(head.arrival, fit.arrival, self_node);
  diff_values(head.slew, fit.slew, self_node);
  diff_values(head.required, fit.required, self_node);
  diff_values(head.arc_delay, fit.arc_delay, arc_to_node);
  diff_values(head.arc_delay_base, fit.arc_delay_base, arc_to_node);
  head.check.for_each_diverged_range(
      fit.check, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const CheckTiming& now = head.check[i];
          const CheckTiming& then = fit.check[i];
          if (std::memcmp(&now, &then, sizeof(CheckTiming)) != 0) {
            mark_node(graph.checks()[i % head.num_checks].data_node);
          }
        }
      });

  // Union the moved nodes' rows into the log-derived stale set.
  std::size_t added = 0;
  for (const std::size_t r : stale_rows_) row_stale_[r] = 1;
  for (const NodeId n : diff_nodes_) {
    for (std::size_t k = node_row_ptr_[n]; k < node_row_ptr_[n + 1]; ++k) {
      const std::size_t row = node_row_idx_[k];
      if (!row_stale_[row]) {
        row_stale_[row] = 1;
        stale_rows_.push_back(row);
        ++added;
      }
    }
    node_flag_[n] = 0;
  }
  for (const std::size_t r : stale_rows_) row_stale_[r] = 0;
  if (added > 0) std::sort(stale_rows_.begin(), stale_rows_.end());
  return added;
}

MgbaFlowResult MgbaRefitSession::refit() {
  Timer& timer = *timer_;
  if (!has_fit_ || timer.eco_poisoned()) {
    ++stats_.cold_rebuilds;
    return fit();
  }
  const Stopwatch total_watch;
  const bool hold = options_.check_kind == CheckKind::Hold;
  const Mode mode = hold ? Mode::Early : Mode::Late;
  const CornerId corner = options_.corner;

  // Bring GBA up to date incrementally — with the previous fit's weights
  // still applied. Everything refreshed below is weight-independent, so
  // there is no need for the clear/re-apply pair of full propagations the
  // cold flow pays.
  timer.update_timing();

  const std::span<const InstanceId> touched = timer.eco_touched();
  stats_.eco_instances = touched.size();
  stats_.rows_total = problem_->num_rows();
  stats_.cone_nodes = collect_stale_rows(touched);
  // Version diff: bit-compare head against the snapshot the problem was
  // fit against and union in the rows of any moved value. With an honest
  // log the diff is a subset of the cone (adds nothing); a mutation the
  // log missed gets caught here instead of silently fitting stale rows.
  stats_.diff_rows_added = add_version_diff_rows();
  stats_.rows_reevaluated = stale_rows_.size();
  ++stats_.warm_refits;
  // Done reading the fitted version; release it before the weight
  // re-application below so head writes stop privatizing against it.
  fit_view_.reset();

  const PathEvaluator evaluator(timer, *table_, options_.eval_options, corner);
  if (!stale_rows_.empty()) {
    fresh_timings_.resize(stale_rows_.size());
    const auto eval_range = [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        TimingPath& path = paths_[problem_->row_path(stale_rows_[k])];
        // Refresh the recorded enumeration arrival first so evaluate()'s
        // GBA fields read the post-ECO plain-GBA value.
        path.gba_arrival_ps = evaluator.plain_gba_arrival(path, mode);
        fresh_timings_[k] =
            hold ? evaluator.evaluate_hold(path) : evaluator.evaluate(path);
      }
    };
    // Rows own disjoint paths (1:1), so the parallel evaluation has no
    // shared writes and the chunking cannot change any result.
    if (num_threads() <= 1 || stale_rows_.size() < 16) {
      eval_range(0, stale_rows_.size());
    } else {
      parallel_for(stale_rows_.size(), 4, eval_range);
    }
    for (std::size_t k = 0; k < stale_rows_.size(); ++k) {
      const std::size_t row = stale_rows_[k];
      problem_->refresh_row(row, timer, paths_[problem_->row_path(row)],
                            fresh_timings_[k]);
    }
    // Row norms moved: the cached Eq.-11 alias table is stale.
    scratch_.alias_valid = false;
  }

  MgbaFlowResult result;
  result.corner = corner;
  result.candidate_paths = paths_.size();
  result.variables = problem_->num_cols();
  result.fitted_paths = rows_.size();
  {
    std::size_t violated = 0;
    for (const double s : problem_->gba_slack()) {
      if (s < 0.0) ++violated;
    }
    result.violated_paths = violated;
  }

  // Warm re-solve from the previous solution. The refit always uses the
  // plain SCG kernel: Algorithm 1's doubling rounds exist to find a good
  // subset from scratch, while here rows_ is already selected and x_ is
  // already near the optimum. That makes the refit one more warm-started
  // Algorithm-1 round, and it takes one round's budget: from a warm start
  // the convergence test does not fire, and iterations past a round fit
  // no better while they walk ||x|| and the optimism outward.
  SolverOptions warm_options = options_.solver_options;
  warm_options.max_iterations =
      std::min(warm_options.max_iterations,
               options_.sampling_options.inner_iterations);
  SolveResult solved =
      solve_scg(*problem_, rows_, warm_options, x_, &scratch_);
  result.solve_seconds = solved.seconds;
  result.solver_iterations = solved.iterations;

  const std::vector<double> x0(problem_->num_cols(), 0.0);
  result.mse_before = modeling_mse(*problem_, x0);
  result.mse_after = modeling_mse(*problem_, solved.x);
  result.pass_ratio_before = pass_ratio(*problem_, x0).ratio();
  result.pass_ratio_after = pass_ratio(*problem_, solved.x).ratio();

  result.instance_weights = problem_->to_instance_weights(solved.x);
  if (hold) {
    timer.set_instance_weights_early(corner, result.instance_weights);
  } else {
    timer.set_instance_weights(corner, result.instance_weights);
  }
  timer.update_timing();

  x_ = std::move(solved.x);
  last_result_ = result;
  timer.reset_eco_log();
  // Re-capture: the refreshed weights are applied and propagated, so this
  // version is what the cached problem now models.
  fit_view_ = timer.snapshot();

  result.total_seconds = total_watch.seconds();
  MGBA_LOG_INFO(
      "mGBA refit [%s]: %zu ECO instances -> cone %zu nodes, refreshed "
      "%zu/%zu rows, mse %.4g -> %.4g, solve %.2fs",
      timer.corner(corner).name.c_str(), stats_.eco_instances,
      stats_.cone_nodes, stats_.rows_reevaluated, stats_.rows_total,
      result.mse_before, result.mse_after, result.solve_seconds);
  return result;
}

}  // namespace mgba
