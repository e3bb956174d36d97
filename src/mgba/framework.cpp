#include "mgba/framework.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "mgba/metrics.hpp"
#include "mgba/path_selection.hpp"
#include "pba/path_engine.hpp"
#include "sta/report.hpp"
#include "sta/snapshot.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

MgbaFlowResult run_mgba_flow(Timer& timer, const DerateTable& table,
                             const MgbaFlowOptions& options,
                             PathEngineHub* path_hub) {
  MgbaRefitSession session(timer, table, options);
  session.set_path_hub(path_hub);
  return session.fit();
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
  Timer& timer = *timer_;
  MGBA_CHECK(options_.candidate_paths_per_endpoint >=
             options_.paths_per_endpoint);
  const Stopwatch total_watch;
  MgbaFlowResult result;
  const bool hold = options_.check_kind == CheckKind::Hold;
  const Mode mode = hold ? Mode::Early : Mode::Late;
  const CornerId corner = options_.corner;
  MGBA_CHECK(corner < timer.num_corners());
  result.corner = corner;

  // Drop the previous fit. Fitting stamps nothing in the timer's ECO
  // record, so the next refit() owes exactly the changes after this mark.
  has_fit_ = false;
  paths_.clear();
  problem_.reset();
  rows_.clear();
  x_.clear();
  mark_ = timer.eco_mark();
  // The row set is about to change wholesale; never let solve_scg reuse a
  // previous fit's alias table just because the sizes coincide.
  scratch_.alias_valid = false;

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
  // enumeration comes from its persistent engine (warm across fits);
  // without one a throwaway engine cold-builds and is released once the
  // paths are extracted, so its tables never coexist with the problem. The
  // golden evaluation shares the engine's frozen view, so the whole fit
  // forks at most one snapshot.
  std::shared_ptr<const TimingSnapshot> view;
  {
    std::optional<PathEngine> throwaway;
    PathEngine& engine =
        path_hub_ != nullptr
            ? path_hub_->engine(options_.candidate_paths_per_endpoint, mode,
                                corner)
            : throwaway.emplace(timer, options_.candidate_paths_per_endpoint,
                                mode, corner);
    engine.sync();
    view = engine.view();
    std::vector<NodeId> endpoints;
    for (const NodeId e : timer.graph().endpoints()) {
      if (!options_.only_violated || timer.slack(e, mode, corner) < 0.0) {
        endpoints.push_back(e);
      }
    }
    if (endpoints.empty()) endpoints = timer.graph().endpoints();
    for (const NodeId e : endpoints) {
      // An endpoint without a requirement (a false path; an output port's
      // hold) reads +inf slack and makes no problem row: filtering it here
      // keeps the path list aligned 1:1 with the rows.
      if (timer.slack(e, mode, corner) == kInfPs) continue;
      for (TimingPath& p : engine.paths_to(e)) paths_.push_back(std::move(p));
    }
  }
  result.candidate_paths = paths_.size();
  if (paths_.empty()) return result;
  {
    // Full problem over all candidates (also the measurement set). The
    // evaluator holds this scope's last reference to the frozen version
    // and drops it before the weight application below, so head writes
    // stop privatizing against it (a hub engine keeps its own pinned view
    // as the next sync's diff base).
    const PathEvaluator evaluator(std::move(view), *table_,
                                  options_.eval_options, corner);
    problem_ = std::make_unique<MgbaProblem>(timer, evaluator, paths_,
                                             options_.epsilon,
                                             options_.check_kind);
  }
  // The filter above drops endpoints whose GBA slack is +inf and the problem
  // drops paths whose golden slack is; should the two disagree, rows and
  // paths_ would misalign, so fail instead of misfitting.
  MGBA_CHECK(problem_->num_rows() == paths_.size());
  result.variables = problem_->num_cols();
  if (problem_->num_rows() == 0 || problem_->num_cols() == 0) return result;

  // Row universe: violated paths, falling back to all candidates when the
  // design is already clean (so the fit is still meaningful).
  std::vector<std::size_t> candidates = violated_rows(problem_->gba_slack());
  result.violated_paths = candidates.size();
  if (candidates.empty() || !options_.only_violated) {
    candidates.resize(problem_->num_rows());
    for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  }

  // Scheme 2 selection: k' worst per endpoint, capped at m'.
  rows_ = select_per_endpoint(paths_, problem_->gba_slack(), candidates,
                              options_.paths_per_endpoint, options_.max_paths);
  result.fitted_paths = rows_.size();

  // Solve.
  SolveResult solved;
  switch (options_.solver) {
    case MgbaSolverKind::GradientDescent:
      solved = solve_gradient_descent(*problem_, rows_, options_.solver_options);
      break;
    case MgbaSolverKind::Scg:
      solved =
          solve_scg(*problem_, rows_, options_.solver_options, {}, &scratch_);
      break;
    case MgbaSolverKind::ScgWithRowSampling:
      solved = solve_scg_with_row_sampling(*problem_, rows_,
                                           options_.solver_options,
                                           options_.sampling_options,
                                           &scratch_);
      break;
  }
  install_solution(std::move(solved), result);
  has_fit_ = true;

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

std::size_t MgbaRefitSession::collect_stale_rows(
    std::span<const InstanceId> touched) {
  const TimingGraph& graph = timer_->graph();
  if (node_flag_.size() < graph.num_nodes()) {
    node_flag_.resize(graph.num_nodes(), 0);
  }

  // Seed exactly like the incremental engine (pins, drivers, siblings),
  // then grow the forward cone: every quantity a row depends on — base
  // delays (via slews), the plain-GBA arrival, the endpoint required time
  // (via the endpoint data slew), and the PBA re-propagation (anchored at
  // the path's front node) — can only move at nodes inside this cone.
  // Clock-side changes would escape it, but those poison the record.
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

  // The cone is closed under fanout and a path runs forward to its
  // endpoint, so a path meets the cone iff its endpoint lies in it. Rows
  // come out in row order.
  stale_rows_.clear();
  for (std::size_t r = 0; r < problem_->num_rows(); ++r) {
    if (node_flag_[paths_[problem_->row_path(r)].endpoint()]) {
      stale_rows_.push_back(r);
    }
  }
  for (const NodeId n : cone_) node_flag_[n] = 0;
  return cone_.size();
}

void MgbaRefitSession::install_solution(SolveResult solved,
                                        MgbaFlowResult& result) {
  result.solve_seconds = solved.seconds;
  result.solver_iterations = solved.iterations;

  // Quality on the full candidate set.
  const std::vector<double> x0(problem_->num_cols(), 0.0);
  result.mse_before = modeling_mse(*problem_, x0);
  result.mse_after = modeling_mse(*problem_, solved.x);
  result.pass_ratio_before = pass_ratio(*problem_, x0).ratio();
  result.pass_ratio_after = pass_ratio(*problem_, solved.x).ratio();
  result.max_optimism_violation = max_optimism_violation(*problem_, solved.x);

  // Apply the weighting factors to the timing graph (Fig. 5: "update
  // timing graph").
  result.instance_weights = problem_->to_instance_weights(solved.x);
  const CornerId corner = options_.corner;
  if (options_.check_kind == CheckKind::Hold) {
    timer_->set_instance_weights_early(corner, result.instance_weights);
  } else {
    timer_->set_instance_weights(corner, result.instance_weights);
  }
  timer_->update_timing();
  x_ = std::move(solved.x);
}

MgbaFlowResult MgbaRefitSession::refit() {
  Timer& timer = *timer_;
  if (!has_fit_ || timer.eco_poisoned_since(mark_)) {
    ++stats_.cold_rebuilds;
    return fit();
  }
  const Stopwatch total_watch;
  const Mode mode =
      options_.check_kind == CheckKind::Hold ? Mode::Early : Mode::Late;
  const CornerId corner = options_.corner;

  // Bring GBA up to date incrementally — with the previous fit's weights
  // still applied. Everything refreshed below is weight-independent, so
  // there is no need for the clear/re-apply pair of full propagations the
  // cold flow pays.
  timer.update_timing();

  // Catch up with the ECO record: this refit covers every touch so far.
  timer.eco_touched_since(mark_, touched_);
  mark_ = timer.eco_mark();
  stats_.eco_instances = touched_.size();
  stats_.rows_total = problem_->num_rows();
  stats_.cone_nodes = collect_stale_rows(touched_);
  stats_.rows_reevaluated = stale_rows_.size();
  ++stats_.warm_refits;

  const PathEvaluator evaluator(timer, *table_, options_.eval_options, corner);
  if (!stale_rows_.empty()) {
    fresh_timings_.resize(stale_rows_.size());
    const auto eval_range = [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        TimingPath& path = paths_[problem_->row_path(stale_rows_[k])];
        // Refresh the recorded enumeration arrival first so evaluate()'s
        // GBA fields read the post-ECO plain-GBA value.
        path.gba_arrival_ps = evaluator.plain_gba_arrival(path, mode);
        fresh_timings_[k] = evaluator.evaluate(path, mode);
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
  install_solution(solve_scg(*problem_, rows_, warm_options, x_, &scratch_),
                   result);

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
