#pragma once

/// \file optimizer.hpp
/// Post-route timing-closure optimization framework (paper Fig. 5, left
/// side): repeatedly pick the worst violating endpoints, apply sizing /
/// buffering transforms with incremental timing evaluation, and iterate
/// until closure (or until no transform helps). The slack source is the
/// Timer — plain GBA, or mGBA when the embedded fit is enabled — which is
/// the single variable the Table 2 / Table 5 experiments compare.
///
/// Multi-corner closure: every accept/reject decision reads the *merged*
/// worst-corner slack view (tns_merged / slack_merged), so a transform is
/// kept only if it helps signoff across all corners; the report carries
/// per-corner QoR alongside. Single-corner behavior is unchanged (the
/// merge of one corner is that corner).

#include <optional>

#include "aocv/depth_analysis.hpp"
#include "aocv/derate_table.hpp"
#include "mgba/framework.hpp"
#include "netlist/design.hpp"
#include "opt/qor.hpp"
#include "pba/path_engine.hpp"
#include "sta/timer.hpp"

namespace mgba {

/// Observer of every design mutation the closer commits *or reverts*:
/// resizes (upsizes, downsizes, and their rollbacks), buffer insertions,
/// and buffer removals, in execution order. The timing shell's ECO journal
/// implements this to capture an `optimize` run as a replayable
/// transaction; rejected transforms are reported too because they still
/// advance instance ids and name counters, which an exact replay must
/// reproduce. Callbacks fire after the design mutation and before the
/// next timing update.
class TransformListener {
 public:
  virtual ~TransformListener() = default;
  virtual void on_resize(InstanceId inst, std::size_t old_cell,
                         std::size_t new_cell) = 0;
  virtual void on_buffer_inserted(InstanceId buffer, NetId net,
                                  const Terminal& sink, std::size_t cell,
                                  Point location) = 0;
  virtual void on_buffer_removed(InstanceId buffer, NetId net) = 0;
};

struct OptimizerOptions {
  std::size_t max_passes = 40;
  /// Worst violating endpoints attacked per pass.
  std::size_t endpoints_per_pass = 24;
  /// Stop when at most this many endpoints still violate (the paper notes
  /// "usually no more than 100 violated endpoints is acceptable" at this
  /// stage).
  std::size_t acceptable_violations = 0;
  /// Minimum TNS improvement for a transform to be kept.
  double min_improvement_ps = 0.05;
  /// A net arc on the worst path whose delay exceeds this is a buffer
  /// candidate.
  double buffer_wire_threshold_ps = 15.0;
  std::size_t max_buffers_per_pass = 4;
  bool enable_sizing = true;
  bool enable_buffering = true;
  bool enable_area_recovery = true;
  /// Endpoint slack margin required before a gate may be downsized.
  double recovery_margin_ps = 40.0;

  /// Embedded mGBA: refresh the weighting factors every N passes. Each
  /// corner's refreshes run through one MgbaRefitSession: after the first,
  /// only rows whose path intersects the cone of the instances the closure
  /// loop actually touched are golden-PBA re-measured, and the solve
  /// warm-starts from the previous weights. Structural edits (buffer
  /// insertion renumbers the graph) automatically fall back to a cold fit.
  bool use_mgba = false;
  std::size_t mgba_refresh_passes = 4;
  MgbaFlowOptions mgba_options;

  /// Inserted buffers are named "<prefix>_<k>" with k counting from
  /// buffer_name_start. A driver that runs several closure invocations on
  /// one design (the timing shell) bumps these so names stay unique.
  std::string buffer_name_prefix = "optbuf";
  std::size_t buffer_name_start = 0;
};

struct OptimizerReport {
  QorMetrics initial;   ///< merged worst-corner view
  QorMetrics final_qor; ///< merged worst-corner view
  /// Final QoR of each corner (one entry per timer corner).
  std::vector<QorMetrics> final_per_corner;
  std::size_t passes = 0;
  std::size_t upsizes = 0;
  std::size_t downsizes = 0;
  std::size_t buffers_inserted = 0;
  std::size_t buffers_reverted = 0;
  std::size_t transforms_attempted = 0;
  double seconds = 0.0;       ///< total flow wall-clock
  double mgba_seconds = 0.0;  ///< time spent inside mGBA fits (Table 5)
};

class TimingCloser {
 public:
  /// \p design and \p timer must reference the same design object and
  /// outlive the closer. \p table is used to refresh AOCV derates after
  /// structural edits and to drive the embedded mGBA fit.
  TimingCloser(Design& design, Timer& timer, const DerateTable& table,
               OptimizerOptions options);

  /// Multi-corner closure: each corner refreshes derates from its own
  /// table and gets its own embedded mGBA fit; accept/reject decisions use
  /// the merged view. The setups must match the timer's corner set
  /// (apply_corner_setups) and are copied.
  void set_corner_setups(std::vector<CornerSetup> setups);

  /// Installs a mutation observer (nullptr to clear). Not owned; must
  /// outlive run().
  void set_transform_listener(TransformListener* listener) {
    listener_ = listener;
  }

  /// Buffers created so far ("<prefix>_<k>" names); feed back into the
  /// next invocation's buffer_name_start for unique names.
  [[nodiscard]] std::size_t buffers_named() const { return buffer_counter_; }

  /// Runs the closure loop and (optionally) area recovery.
  OptimizerReport run();

  /// Refit-session counters of the embedded mGBA (empty when use_mgba is
  /// off; one entry per corner in MCMM mode). Valid after run().
  [[nodiscard]] std::vector<RefitStats> mgba_refit_stats() const;

  /// The persistent path-engine hub every mGBA refresh of this closer
  /// enumerates through (one warm engine per (k, mode, corner) across
  /// passes instead of a cold DP per refresh).
  [[nodiscard]] const PathEngineHub& path_hub() const { return path_hub_; }

 private:
  void refresh_mgba(OptimizerReport& report);
  bool is_sizable(InstanceId inst) const;
  /// Area-sorted footprint family of a library cell, memoized per cell id.
  /// The library is immutable for the closer's lifetime, so the lazy scan
  /// runs at most once per cell instead of once per transform attempt.
  const std::vector<std::size_t>& family_of(std::size_t cell_id) const;
  bool optimize_endpoint(NodeId endpoint, OptimizerReport& report);
  bool try_upsize(InstanceId inst, OptimizerReport& report);
  bool try_insert_buffer(ArcId net_arc, OptimizerReport& report);
  void area_recovery(OptimizerReport& report);
  /// Re-derives the depth state and every corner's derates from scratch.
  void refresh_derates();
  /// Carries the depth state \p before and the installed derates through
  /// one patched buffer insertion: only the moved instances and the buffer
  /// get new derates, equal bit for bit to refresh_derates'.
  void patch_derates(const BufferPatch& patch, const DepthAnalysis& before);
  double current_tns();

  Design* design_;
  Timer* timer_;
  const DerateTable* table_;
  OptimizerOptions options_;
  /// Empty = single-corner legacy mode (derates and mGBA from *table_).
  std::vector<CornerSetup> corner_setups_;
  TransformListener* listener_ = nullptr;
  /// Embedded-mGBA refit sessions, created lazily on the first refresh of
  /// run() and kept across passes (and across run() invocations — each
  /// falls back cold automatically whenever the timer's ECO poison was
  /// stamped since its last fit). One session in single-corner mode, one
  /// per corner in MCMM, each reading the record against its own mark.
  std::vector<MgbaRefitSession> mgba_sessions_;
  /// Persistent k-best candidate state shared by every fit this closer
  /// runs (cold and refit-fallback alike); keyed per (k, mode, corner).
  PathEngineHub path_hub_;
  std::size_t buffer_counter_ = 0;
  /// AOCV depth state of the current graph, set by refresh_derates and
  /// patched per buffer trial (restored when the trial is rejected).
  std::optional<DepthAnalysis> depths_;
  /// family_of() memo, indexed by cell id (empty slot = not yet computed;
  /// every real family contains at least the cell itself).
  mutable std::vector<std::vector<std::size_t>> family_cache_;
};

/// Picks a clock period such that the design's golden (PBA) critical delay
/// uses the given fraction of the cycle: period = worst_arrival /
/// utilization. utilization slightly above 1.0 leaves a few true
/// violations; slightly below 1.0 leaves only GBA-pessimism violations.
/// Evaluates at the default corner (the period is a design constraint, not
/// a per-corner quantity; size the period before installing extra corners).
double choose_clock_period(Timer& timer, const DerateTable& table,
                           double utilization);

}  // namespace mgba
