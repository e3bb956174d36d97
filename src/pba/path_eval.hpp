#pragma once

/// \file path_eval.hpp
/// Path-based (PBA) re-evaluation of enumerated paths — the golden
/// reference of the paper. For a concrete path, PBA removes the three GBA
/// pessimism sources this library models:
///
///   1. AOCV re-derating with the path's exact cell depth and exact
///      endpoint distance (vs. GBA's worst depth / worst distance),
///   2. path-specific slew propagation (vs. GBA's worst-slew merge), which
///      also sharpens the endpoint setup or hold requirement,
///   3. exact launch/capture CRPR credit (vs. GBA's conservative minimum
///      over all possible launches).
///
/// Nothing else differs: a check's requirement comes from check_required,
/// the rule GBA's backward sweeps apply, so clock uncertainty, multicycle
/// and false paths move GBA and PBA alike.

#include <memory>
#include <vector>

#include "aocv/derate_table.hpp"
#include "pba/path.hpp"
#include "sta/snapshot.hpp"
#include "sta/timer.hpp"

namespace mgba {

struct PathEvalOptions {
  /// Re-propagate slews along the path (pessimism source 2). When false,
  /// PBA reuses the GBA worst-slew base delays and only re-derates.
  bool recompute_path_slews = true;
  /// Use exact per-pair CRPR (pessimism source 3). When false, PBA keeps
  /// the GBA endpoint credit.
  bool exact_crpr = true;
};

/// Everything measured about one path.
struct PathTiming {
  double gba_slack_ps = 0.0;   ///< slack of this path under current GBA/mGBA
  double pba_slack_ps = 0.0;   ///< golden path-based slack
  double gba_arrival_ps = 0.0;
  double pba_arrival_ps = 0.0;
  std::size_t depth = 0;       ///< exact PBA cell depth
  double distance_um = 0.0;    ///< exact PBA endpoint distance
  double derate_pba = 1.0;     ///< path derate factor applied by PBA
};

class PathEvaluator {
 public:
  /// Evaluates against one frozen timing version (retained for the
  /// evaluator's lifetime). All GBA reads and PBA re-evaluation (library
  /// scaling included) happen at \p corner; pass the corner's own derate
  /// table alongside it in multi-corner flows.
  PathEvaluator(std::shared_ptr<const TimingSnapshot> view,
                const DerateTable& table, PathEvalOptions options = {},
                CornerId corner = kDefaultCorner);

  /// Convenience bridge: forks a snapshot of the timer's current state
  /// (the timer must be up to date) and evaluates against that.
  PathEvaluator(const Timer& timer, const DerateTable& table,
                PathEvalOptions options = {}, CornerId corner = kDefaultCorner)
      : PathEvaluator(timer.snapshot(), table, options, corner) {}

  [[nodiscard]] CornerId corner() const { return corner_; }

  /// Full GBA + PBA timing of one path enumerated in \p mode: setup for
  /// Mode::Late, hold for Mode::Early (GBA hold pessimism mirrors setup:
  /// small early derates, min-merged slews, worst-launch CRPR). An endpoint
  /// without a requirement (a false path; an output port's hold) reads
  /// +inf slack. \p stage_delays, when given, receives each arc's PBA
  /// delay in path order.
  [[nodiscard]] PathTiming evaluate(
      const TimingPath& path, Mode mode = Mode::Late,
      std::vector<double>* stage_delays = nullptr) const;

  /// Slack of the path in \p mode under the timer's current effective
  /// delays (fast: required(endpoint) against the recorded path arrival).
  /// With mGBA weights active this is the modified-GBA path slack s_gba'(x).
  [[nodiscard]] double gba_path_slack(const TimingPath& path,
                                      Mode mode = Mode::Late) const;

  /// Plain-GBA (weight-free) arrival of the path in \p mode under the
  /// timer's CURRENT base delays and derates: arrival(front) plus
  /// base x derate summed over the arcs. Right after enumeration with
  /// weights cleared this equals the recorded path.gba_arrival_ps; after a
  /// value-only ECO it re-derives that number WITHOUT toggling the timer's
  /// weight state — launch arrivals, slews, and base delays are all
  /// weight-independent, so the refit session can refresh s_gba(0) while
  /// the previous fit's weights stay applied.
  [[nodiscard]] double plain_gba_arrival(const TimingPath& path,
                                         Mode mode) const;

 private:
  std::shared_ptr<const TimingSnapshot> view_;
  const DerateTable* table_;
  PathEvalOptions options_;
  CornerId corner_ = kDefaultCorner;
};

}  // namespace mgba
