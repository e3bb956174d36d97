#pragma once

/// \file path_engine.hpp
/// Persistent k-best path enumeration (DESIGN.md §17). A PathEngine owns
/// the per-node candidate state of the PathEnumerator DP across ECOs: the
/// first sync() runs the cold k-best DP (dense per-level sweeps through
/// sta/kernels.hpp), and every later sync() bit-diffs the new timing
/// version against the one the arena was built from and re-runs the DP
/// push-style over the forward cone of the moved values only. The
/// enumerated path sets are bit-identical to a cold PathEnumerator on the
/// same version, at every thread count.
///
/// Queries additionally get a pruned global-worst extraction
/// (worst_paths): endpoints are admitted to backtracking worst-bound
/// first, and an endpoint whose best candidate provably cannot enter the
/// current top-n selection skips backtracking entirely (exactness
/// argument in DESIGN.md §17).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pba/path.hpp"
#include "sta/snapshot.hpp"
#include "sta/timer.hpp"

namespace mgba {

class PathEngine {
 public:
  /// Binds the engine to \p timer for one (k, mode, corner) triple. The
  /// key includes k because the k-best partial_sort is not stable: the
  /// prefix of a k-best candidate list is not bitwise the k'-best list
  /// for k' < k. The engine holds no candidate state until sync().
  PathEngine(Timer& timer, std::size_t k, Mode mode = Mode::Late,
             CornerId corner = kDefaultCorner);

  /// Brings the candidate arena up to date with the timer's head version:
  /// update_timing(), fork a snapshot, and either diff it against the
  /// previously synced version (warm: recompute the forward cone of
  /// changed arc delays / launch arrivals only) or rebuild cold (first
  /// sync, structural drift such as a graph rebuild, or a diff too broad
  /// for the warm sweep to pay off). The contract keeps no state in the
  /// timer, so any number of engines can track one timer.
  void sync();

  /// The up-to-k worst paths ending at \p endpoint, worst-first. Bitwise
  /// the PathEnumerator result on the synced version.
  [[nodiscard]] std::vector<TimingPath> paths_to(NodeId endpoint) const;

  /// All endpoints' path lists concatenated in endpoint order (bitwise
  /// the PathEnumerator::all_paths result on the synced version).
  [[nodiscard]] std::vector<TimingPath> all_paths() const;

  /// The globally worst \p n paths (by GBA slack at the synced version,
  /// ties broken by endpoint id then rank) drawn from the per-endpoint
  /// k-best sets, worst-first. With pruning enabled, endpoints that
  /// provably cannot contribute skip backtracking; the returned set is
  /// identical either way.
  [[nodiscard]] std::vector<TimingPath> worst_paths(std::size_t n) const;

  void set_pruning_enabled(bool enabled) { pruning_enabled_ = enabled; }
  [[nodiscard]] bool pruning_enabled() const { return pruning_enabled_; }

  struct Stats {
    std::size_t cold_builds = 0;    ///< first builds + too-broad escalations
    std::size_t cold_fallbacks = 0; ///< structural drift (graph rebuilt)
    std::size_t warm_syncs = 0;
    std::size_t noop_syncs = 0;     ///< version unchanged since last sync
    std::size_t nodes_recomputed = 0;  ///< across all warm sweeps
    std::size_t levels_swept = 0;      ///< dirty levels across warm sweeps
    std::size_t endpoints_backtracked = 0;  ///< worst_paths: examined
    std::size_t endpoints_pruned = 0;       ///< worst_paths: bound-skipped
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The snapshot the arena is synced to (null before the first sync).
  /// Consumers that score the enumerated paths (PathEvaluator) should
  /// share this view instead of forking their own.
  [[nodiscard]] const std::shared_ptr<const TimingSnapshot>& view() const {
    return view_;
  }

  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] CornerId corner() const { return corner_; }

 private:
  struct Cand {
    double arrival = -kInfPs;
    ArcId via_arc = kInvalidArc;
    std::uint32_t via_rank = 0;
  };

  void cold_build(std::shared_ptr<const TimingSnapshot> head);
  void rebind_graph();
  void build_levels();
  /// Flags the forward frontier of values that moved between view_ and
  /// \p head. Returns false when the seed set is too large for a warm
  /// sweep to beat the dense cold rebuild.
  bool collect_seeds(const TimingSnapshot& head);
  void clear_seeds();
  void warm_sweep();
  /// Collects node \p u's fanin candidates into \p merged (warm sweep).
  void merge_node(NodeId u, std::vector<Cand>& merged) const;
  /// Sorts \p merged (k-best prefix) and writes node \p u's records,
  /// returning whether any record (or the count) changed bitwise.
  bool select_into(NodeId u, std::vector<Cand>& merged);
  bool write_launch_seed(NodeId u);
  TimingPath backtrack(NodeId endpoint, std::size_t rank) const;
  [[nodiscard]] const TimingGraph& graph() const { return *graph_ref_; }

  Timer* timer_;
  std::size_t k_;
  Mode mode_;
  CornerId corner_;
  bool pruning_enabled_ = true;
  /// worst_paths() is logically const but counts pruning decisions.
  mutable Stats stats_;

  std::shared_ptr<const TimingSnapshot> view_;
  /// Derived graph tables, rebuilt only when the graph object changes.
  std::shared_ptr<const TimingGraph> graph_ref_;
  std::size_t num_nodes_ = 0;
  std::vector<std::uint32_t> arc_from_;
  std::vector<std::int32_t> check_of_instance_;
  std::vector<std::uint8_t> is_launch_;

  /// Candidate arena, rank-major SoA over node ids: record r of node u
  /// lives at [r * num_nodes_ + u] in each lane. Slots at rank >=
  /// cand_count_[u] always hold the sentinel record (-inf, kInvalidArc,
  /// 0) so whole-record bit compares are well defined.
  std::vector<double> arr_;
  std::vector<ArcId> via_arc_;
  std::vector<std::uint32_t> via_rank_;
  std::vector<std::uint32_t> cand_count_;

  /// Warm-sweep frontier state (touched-entry cleanup keeps sync
  /// O(touched cone), not O(graph)).
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> changed_;
  std::vector<std::uint8_t> level_dirty_;
  std::vector<std::vector<NodeId>> level_pending_;
  std::vector<NodeId> seed_nodes_;

  /// Dense cold-build scratch (per-level delay copy + per-rank gather
  /// lanes) and diff scratch (CowVec reads are chunked; compare via
  /// copies so the reader never aliases a chunk being privatized).
  std::vector<double> dly_;
  std::vector<double> gath_;
  std::vector<double> diff_now_;
  std::vector<double> diff_then_;
};

/// Per-timer registry handing out one persistent PathEngine per
/// (k, mode, corner) triple, so every consumer of a flow (fit, refit, QoR
/// measurement, reports) shares the same warm candidate state.
class PathEngineHub {
 public:
  explicit PathEngineHub(Timer& timer) : timer_(&timer) {}

  PathEngine& engine(std::size_t k, Mode mode = Mode::Late,
                     CornerId corner = kDefaultCorner);

  [[nodiscard]] std::size_t num_engines() const { return engines_.size(); }

  /// One "path_engine k=.. <mode> c<corner>: <stats>" line per engine
  /// (the shell `stats` block).
  [[nodiscard]] std::string to_string() const;

 private:
  Timer* timer_;
  std::vector<std::unique_ptr<PathEngine>> engines_;
};

}  // namespace mgba
