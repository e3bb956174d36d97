#pragma once

/// \file snapshot.hpp
/// Immutable, refcounted view of one version of the timing state
/// (DESIGN.md §14). Created by Timer::snapshot(): the constructor forks
/// the corner-major arena copy-on-write (O(1) per array) and retains the
/// graph, derived statics, corner set, derate tables and endpoint
/// exceptions by refcount, so the view keeps answering with the forked
/// version's bits while the Timer mutates its head — readers never block
/// an in-flight ECO, and an ECO never blocks readers.
///
/// Thread contract: every const method here is safe from any number of
/// threads concurrently with writer-side Timer mutation. The snapshot
/// must not outlive the Timer's Design/DelayCalculator/constraints (it
/// borrows them; the netlist itself is NOT versioned, so name lookups on
/// a snapshot taken before a structural edit see the post-edit netlist —
/// timing values are frozen, netlist identity is not).
///
/// Every query delegates to the same query_ops free functions the live
/// Timer uses, so a snapshot's answers are bit-identical to a Timer
/// frozen at the same state.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sta/query_ops.hpp"
#include "sta/timer.hpp"

namespace mgba {

class TimingSnapshot {
 public:
  TimingSnapshot(const TimingSnapshot&) = delete;
  TimingSnapshot& operator=(const TimingSnapshot&) = delete;

  /// The graph this version was timed against (refcounted; survives a
  /// head-side rebuild_graph()).
  [[nodiscard]] const TimingGraph& graph() const { return *graph_; }
  [[nodiscard]] const DelayCalculator& delay_calc() const { return *delay_; }
  [[nodiscard]] const TimingConstraints& constraints() const {
    return *constraints_;
  }

  /// The refcounted graph handle itself; callers that cache per-graph
  /// derived data (e.g. the server's frozen node-name tables) key the
  /// cache on this pointer, which changes exactly when the head rebuilds.
  [[nodiscard]] const std::shared_ptr<const TimingGraph>& graph_ref() const {
    return graph_;
  }

  [[nodiscard]] std::size_t num_corners() const { return corners_.size(); }
  /// Corner with the given name, if any (mirrors Timer::find_corner but
  /// reads the frozen corner set, so it is safe on reader threads).
  [[nodiscard]] std::optional<CornerId> find_corner(
      const std::string& name) const {
    for (CornerId c = 0; c < corners_.size(); ++c) {
      if (corners_[c].name == name) return c;
    }
    return std::nullopt;
  }
  [[nodiscard]] const AnalysisCorner& corner(CornerId c) const {
    return corners_[c];
  }
  [[nodiscard]] const LibraryScaling& corner_scaling(CornerId c) const {
    return corners_[c].scaling;
  }

  /// Timer::state_version() at fork time.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// The frozen arena itself (byte-equality checks, path-engine diffs).
  [[nodiscard]] const TimingData& data() const { return data_; }

  // --- queries (same semantics as the Timer methods of the same name) ------

  [[nodiscard]] double arrival(NodeId node, Mode mode,
                               CornerId corner = kDefaultCorner) const {
    return query::arrival(data_, node, mode, corner);
  }
  [[nodiscard]] double slew(NodeId node, Mode mode,
                            CornerId corner = kDefaultCorner) const {
    return query::slew(data_, node, mode, corner);
  }
  [[nodiscard]] double required(NodeId node, Mode mode,
                                CornerId corner = kDefaultCorner) const {
    return query::required(data_, node, mode, corner);
  }
  [[nodiscard]] double slack(NodeId node, Mode mode,
                             CornerId corner = kDefaultCorner) const {
    return query::slack(data_, node, mode, corner);
  }
  [[nodiscard]] double slack_merged(NodeId node, Mode mode) const {
    return query::slack_merged(data_, node, mode);
  }
  [[nodiscard]] CornerId worst_slack_corner(NodeId node, Mode mode) const {
    return query::worst_slack_corner(data_, node, mode);
  }
  [[nodiscard]] double arc_delay(ArcId arc, Mode mode,
                                 CornerId corner = kDefaultCorner) const {
    return query::arc_delay(data_, arc, mode, corner);
  }
  [[nodiscard]] double arc_delay_base(ArcId arc, Mode mode,
                                      CornerId corner = kDefaultCorner) const {
    return query::arc_delay_base(data_, arc, mode, corner);
  }
  [[nodiscard]] const CheckTiming& check_timing(
      std::size_t idx, CornerId corner = kDefaultCorner) const {
    return query::check_timing(data_, idx, corner);
  }
  [[nodiscard]] DeratePair instance_derate(
      InstanceId inst, CornerId corner = kDefaultCorner) const {
    return query::instance_derate(*derates_[corner], inst);
  }
  [[nodiscard]] bool is_weighted(ArcId arc) const {
    return query::is_weighted(*graph_, graph_->arc(arc));
  }
  [[nodiscard]] double crpr_credit_exact(
      std::optional<std::size_t> launch_check, std::size_t capture_check,
      CornerId corner = kDefaultCorner) const {
    return query::crpr_credit_exact(data_, *graph_, *statics_,
                                    constraints_->enable_crpr, launch_check,
                                    capture_check, corner);
  }
  /// The timing exceptions of check \p idx, as resolved at this version's
  /// rebuild (the input check_required takes besides the constraints).
  [[nodiscard]] const EndpointException& check_exception(
      std::size_t idx) const {
    return exceptions_->check[idx];
  }

  [[nodiscard]] double wns(Mode mode, CornerId corner = kDefaultCorner) const {
    return query::wns(data_, *graph_, mode, corner);
  }
  [[nodiscard]] double tns(Mode mode, CornerId corner = kDefaultCorner) const {
    return query::tns(data_, *graph_, mode, corner);
  }
  [[nodiscard]] std::size_t num_violations(
      Mode mode, CornerId corner = kDefaultCorner) const {
    return query::num_violations(data_, *graph_, mode, corner);
  }
  [[nodiscard]] double wns_merged(Mode mode) const {
    return query::wns_merged(data_, *graph_, mode);
  }
  [[nodiscard]] double tns_merged(Mode mode) const {
    return query::tns_merged(data_, *graph_, mode);
  }
  [[nodiscard]] std::size_t num_violations_merged(Mode mode) const {
    return query::num_violations_merged(data_, *graph_, mode);
  }
  [[nodiscard]] std::vector<NodeId> worst_path(
      NodeId endpoint, CornerId corner = kDefaultCorner) const {
    return query::worst_path(data_, *graph_, endpoint, corner);
  }
  [[nodiscard]] NodeId worst_endpoint_merged(Mode mode) const {
    return query::worst_endpoint_merged(data_, *graph_, mode);
  }

  /// Arena-side footprint of this frozen version (graph shape, arena
  /// bytes, COW chunk accounting). Engine-side fields (delay cache,
  /// launch sets, kernel scratch) are writer state and read zero here.
  [[nodiscard]] Timer::MemoryStats memory_stats() const;

 private:
  friend class Timer;
  explicit TimingSnapshot(const Timer& timer);

  TimingData data_;  // COW fork: shares every chunk the head has not since
                     // diverged from
  std::shared_ptr<const TimingGraph> graph_;
  std::shared_ptr<const GraphStatics> statics_;
  std::vector<AnalysisCorner> corners_;
  std::vector<std::shared_ptr<const std::vector<DeratePair>>> derates_;
  std::shared_ptr<const EndpointExceptions> exceptions_;
  const DelayCalculator* delay_;
  const TimingConstraints* constraints_;
  std::uint64_t version_ = 0;
};

}  // namespace mgba
