#pragma once

/// \file framework.hpp
/// The "modified GBA analysis flow" of paper Fig. 5 (right side): select
/// critical paths per endpoint, compute their GBA and golden PBA timing,
/// build the Eq. (9) system, solve it with the accelerated solver, and
/// push the resulting weighting factors back into the timing graph so
/// every subsequent (incremental) timing query sees mGBA slacks.

#include <memory>
#include <span>
#include <vector>

#include "aocv/corner_io.hpp"
#include "aocv/derate_table.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path.hpp"
#include "sta/timer.hpp"

namespace mgba {

class PathEngineHub;  // pba/path_engine.hpp

enum class MgbaSolverKind {
  GradientDescent,      ///< GD + w/o RS (Table 4 baseline)
  Scg,                  ///< SCG + w/o RS (Algorithm 2)
  ScgWithRowSampling,   ///< SCG + RS (Algorithm 1 + 2, the proposed solver)
};

struct MgbaFlowOptions {
  /// Which check to fit: Setup (the paper's formulation) or Hold (this
  /// library's extension on the early-mode weights).
  CheckKind check_kind = CheckKind::Setup;
  /// k': worst paths kept per endpoint for the fit (paper uses 20).
  std::size_t paths_per_endpoint = 20;
  /// Candidate paths enumerated per endpoint before selection; also the
  /// measurement set size for pass-ratio metrics. Must be >= k'.
  std::size_t candidate_paths_per_endpoint = 20;
  /// m': global cap on selected paths (paper: 5e6).
  std::size_t max_paths = 5'000'000;
  /// Fit only violated (negative GBA slack) paths, as the paper does.
  /// When no path is violated the framework falls back to the most
  /// critical candidates so x is still defined.
  bool only_violated = true;
  /// eps: allowed optimism relative to |s_pba| in the Eq. (5) constraint.
  double epsilon = 0.02;
  MgbaSolverKind solver = MgbaSolverKind::ScgWithRowSampling;
  SolverOptions solver_options;
  SamplingOptions sampling_options;
  /// PBA golden evaluation options.
  PathEvalOptions eval_options;
  /// The corner the fit runs at: paths are enumerated under this corner's
  /// delays, golden PBA evaluates at it, and the resulting weight vector is
  /// installed on it. run_mgba_flow_all_corners loops this over the set.
  CornerId corner = kDefaultCorner;
};

struct MgbaFlowResult {
  /// Per-instance weight deviation x (index = InstanceId) applied to the
  /// timer; empty when no paths were available to fit.
  std::vector<double> instance_weights;

  /// The corner this fit ran at (mirrors the option for reporting).
  CornerId corner = kDefaultCorner;

  // Problem shape.
  std::size_t candidate_paths = 0;
  std::size_t violated_paths = 0;
  std::size_t fitted_paths = 0;
  std::size_t variables = 0;

  // Quality on the full candidate set (before = x0, after = x*).
  double mse_before = 0.0;
  double mse_after = 0.0;
  double pass_ratio_before = 1.0;
  double pass_ratio_after = 1.0;

  // Solver accounting.
  double solve_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t solver_iterations = 0;
};

/// Runs one mGBA fit on \p timer at options.corner and leaves the
/// weighting factors applied (Timer::set_instance_weights + update_timing):
/// the fit() of a throwaway MgbaRefitSession. Clears any previously applied
/// weights on that corner first so the fit is against plain GBA. \p table
/// must be the derate table of that corner. With a \p path_hub the
/// candidate enumeration is served by that hub's persistent PathEngine for
/// (candidate_paths_per_endpoint, mode, corner) — warm across fits,
/// bit-identical results — instead of a throwaway cold PathEnumerator.
MgbaFlowResult run_mgba_flow(Timer& timer, const DerateTable& table,
                             const MgbaFlowOptions& options = {},
                             PathEngineHub* path_hub = nullptr);

/// Fits every corner of \p setups independently (the MCMM flow): corner c
/// gets its own path enumeration, golden PBA against its own derate table,
/// and its own weight vector x_c. The timer must already have the corner
/// set installed (apply_corner_setups). Returns one result per corner, in
/// corner order.
std::vector<MgbaFlowResult> run_mgba_flow_all_corners(
    Timer& timer, std::span<const CornerSetup> setups,
    MgbaFlowOptions options = {}, PathEngineHub* path_hub = nullptr);

/// Deterministic multi-line summary of one fit result: problem shape, MSE
/// and pass-ratio movement, and the iteration count — everything except
/// the wall-clock figures, so the timing shell can print it into
/// golden-diffable transcripts that are stable across machines and thread
/// counts.
std::string fit_result_summary(const Timer& timer, const MgbaFlowResult& fit,
                               CheckKind check_kind);

/// Counters of the incremental-refit machinery. The per-refit fields
/// describe the LAST refit() call; the *_refits / cold_rebuilds totals
/// accumulate over the session.
struct RefitStats {
  std::size_t rows_total = 0;        ///< rows in the cached problem
  std::size_t rows_reevaluated = 0;  ///< rows golden-PBA re-evaluated
  std::size_t eco_instances = 0;     ///< touched instances consumed
  std::size_t cone_nodes = 0;        ///< nodes in the grown touched cone
  std::size_t warm_refits = 0;       ///< refits served incrementally
  std::size_t cold_rebuilds = 0;     ///< refits that fell back to fit()
};

/// Incremental mGBA refit session: makes repeated fits inside an ECO loop
/// O(touched), not O(problem).
///
/// fit() runs the full Fig. 5 flow (run_mgba_flow is the fit() of a
/// throwaway session), caches the enumerated paths, the built problem,
/// the selected row set and the solution, and keeps the timer's ECO mark
/// (Timer::eco_mark) taken when it started. refit() reads the timer's ECO
/// record against that mark: it grows the touched cone from the
/// instances stamped since (the incremental engine's own seeding rule),
/// marks stale exactly the cached rows whose endpoint lies in the cone,
/// golden-PBA re-evaluates ONLY those rows (refreshing their matrix values
/// in place — the sparsity pattern of a path never changes), and runs one
/// more warm-started Algorithm-1 round over the already-selected rows:
/// plain SCG from the previous solution, with the Eq.-11 sampling state
/// reused, for min(solver_options.max_iterations,
/// sampling_options.inner_iterations) iterations. From a warm start the
/// convergence test does not fire (see SolverOptions::convergence_tol), and
/// iterations past one round fit no better while they walk ||x|| and the
/// optimism outward (EXPERIMENTS.md "Warm refits take one round's budget").
/// A poison stamped since the mark (graph rebuild or buffer patch, corner
/// change, derate install, clock touch) falls back to a cold fit()
/// automatically. Each session holds its own mark, so sessions sharing a
/// timer — one per corner in MCMM — never consume each other's record.
///
/// Soundness of refreshing while the previous fit's weights stay applied:
/// every refreshed quantity — base delays, derates, PBA slacks, endpoint
/// required times, and the plain-GBA path arrival — is independent of the
/// mGBA weights (of any corner), so the refit never needs to clear and
/// re-apply them (that would cost two extra full propagations per refit).
class MgbaRefitSession {
 public:
  /// \p timer and \p table must outlive the session. \p table must be the
  /// derate table of options.corner.
  MgbaRefitSession(Timer& timer, const DerateTable& table,
                   MgbaFlowOptions options = {});

  /// Cold fit; leaves weights applied, caches the fit state, and takes the
  /// ECO mark the next refit() reads against.
  MgbaFlowResult fit();

  /// Incremental refit of the cached fit against the ECOs stamped since
  /// the last fit()/refit(); cold fallback when there is no cached fit or
  /// a poison was stamped since. Leaves the refreshed weights applied.
  MgbaFlowResult refit();

  [[nodiscard]] bool has_fit() const { return has_fit_; }
  [[nodiscard]] const RefitStats& stats() const { return stats_; }
  [[nodiscard]] const MgbaFlowOptions& options() const { return options_; }

  /// Serves cold fits' candidate enumeration from \p hub's persistent
  /// PathEngine (nullptr to restore throwaway enumerators). Not owned;
  /// must outlive the session.
  void set_path_hub(PathEngineHub* hub) { path_hub_ = hub; }

 private:
  /// Fills stale_rows_, in row order, with the rows whose endpoint lies in
  /// the forward cone of \p touched. Returns the cone size.
  std::size_t collect_stale_rows(std::span<const InstanceId> touched);

  Timer* timer_;
  const DerateTable* table_;
  MgbaFlowOptions options_;
  PathEngineHub* path_hub_ = nullptr;
  RefitStats stats_;
  bool has_fit_ = false;
  /// The timer's ECO mark the cached fit is current to.
  Timer::EcoMark mark_ = 0;

  // Cached fit state.
  std::vector<TimingPath> paths_;
  std::unique_ptr<MgbaProblem> problem_;
  std::vector<std::size_t> rows_;  ///< selected (fitted) row subset
  std::vector<double> x_;          ///< previous solution (warm start)
  SolverScratch scratch_;

  // Per-refit scratch; node_flag_ is cleared by revisiting the cone.
  std::vector<InstanceId> touched_;
  std::vector<std::uint8_t> node_flag_;
  std::vector<NodeId> cone_;
  std::vector<NodeId> seed_scratch_;
  std::vector<std::size_t> stale_rows_;
  std::vector<PathTiming> fresh_timings_;
};

}  // namespace mgba
