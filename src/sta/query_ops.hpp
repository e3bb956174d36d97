#pragma once

/// \file query_ops.hpp
/// The read side of the timing engine as free functions over immutable
/// inputs. Every const query both Timer (head state) and TimingSnapshot
/// (a frozen fork) expose delegates here, so the two views cannot drift:
/// a snapshot answers with exactly the code the live engine runs, fed the
/// forked arena instead of the head one.
///
/// All functions are pure reads of their arguments. They are safe to call
/// from any number of threads concurrently as long as the referenced
/// TimingData/TimingGraph are not mutated underneath them — which is
/// precisely the guarantee a TimingSnapshot provides (DESIGN.md §14).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "sta/corner.hpp"
#include "sta/kernels.hpp"
#include "sta/timing_data.hpp"
#include "sta/timing_graph.hpp"
#include "sta/timing_types.hpp"
#include "util/check.hpp"

namespace mgba::query {

inline int mode_idx(Mode m) { return static_cast<int>(m); }

inline double arrival(const TimingData& d, NodeId node, Mode mode,
                      CornerId corner) {
  return d.arrival[d.node_index(corner, mode_idx(mode), node)];
}

inline double slew(const TimingData& d, NodeId node, Mode mode,
                   CornerId corner) {
  return d.slew[d.node_index(corner, mode_idx(mode), node)];
}

inline double required(const TimingData& d, NodeId node, Mode mode,
                       CornerId corner) {
  return d.required[d.node_index(corner, mode_idx(mode), node)];
}

/// Endpoint slack: late = setup (required - arrival), early = hold.
inline double slack(const TimingData& d, NodeId node, Mode mode,
                    CornerId corner) {
  if (mode == Mode::Late) {
    return required(d, node, mode, corner) - arrival(d, node, mode, corner);
  }
  return arrival(d, node, mode, corner) - required(d, node, mode, corner);
}

/// Worst (smallest) slack across all corners of the arena.
inline double slack_merged(const TimingData& d, NodeId node, Mode mode) {
  double worst = kInfPs;
  for (CornerId c = 0; c < d.num_corners; ++c) {
    worst = std::min(worst, slack(d, node, mode, c));
  }
  return worst;
}

inline CornerId worst_slack_corner(const TimingData& d, NodeId node,
                                   Mode mode) {
  CornerId worst_corner = kDefaultCorner;
  double worst = kInfPs;
  for (CornerId c = 0; c < d.num_corners; ++c) {
    const double s = slack(d, node, mode, c);
    if (s < worst) {
      worst = s;
      worst_corner = c;
    }
  }
  return worst_corner;
}

inline double arc_delay(const TimingData& d, ArcId arc, Mode mode,
                        CornerId corner) {
  return d.arc_delay[d.arc_index(corner, mode_idx(mode), arc)];
}

inline double arc_delay_base(const TimingData& d, ArcId arc, Mode mode,
                             CornerId corner) {
  return d.arc_delay_base[d.arc_index(corner, mode_idx(mode), arc)];
}

inline const CheckTiming& check_timing(const TimingData& d, std::size_t i,
                                       CornerId corner) {
  MGBA_CHECK(i < d.num_checks && corner < d.num_corners);
  return d.check[d.check_index(corner, i)];
}

/// AOCV derate factors of an instance in one corner's installed vector
/// (instances past its end are at identity).
inline DeratePair instance_derate(const std::vector<DeratePair>& derates,
                                  InstanceId inst) {
  if (inst >= derates.size()) return {};
  return derates[inst];
}

/// True if the arc is a data-path combinational cell arc: one that
/// receives an mGBA weighting factor and contributes a column to the
/// system matrix A (Eq. 9). Clock cells and flip-flops are never weighted.
inline bool is_weighted(const TimingGraph& g, const TimingArc& arc) {
  if (arc.kind != TimingArc::Kind::Cell) return false;
  if (g.node(arc.to).is_clock_network) return false;
  return g.design().cell_of(arc.inst).kind != CellKind::FlipFlop;
}

/// Per-endpoint slacks of one (mode, corner) view, densely packed in
/// endpoint order — the input the slack reductions below run over. The
/// gather stays scalar (the arena is a chunked COW vector, not a flat
/// array); the reductions themselves run through the kernels in their
/// canonical blocked order, so WNS/TNS answers are independent of how the
/// endpoints are partitioned across threads.
inline void endpoint_slacks(const TimingData& d, const TimingGraph& g,
                            Mode mode, CornerId corner,
                            std::vector<double>& buf) {
  const auto& endpoints = g.endpoints();
  buf.resize(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    buf[i] = slack(d, endpoints[i], mode, corner);
  }
}

inline void endpoint_slacks_merged(const TimingData& d, const TimingGraph& g,
                                   Mode mode, std::vector<double>& buf) {
  const auto& endpoints = g.endpoints();
  buf.resize(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    buf[i] = slack_merged(d, endpoints[i], mode);
  }
}

inline double wns(const TimingData& d, const TimingGraph& g, Mode mode,
                  CornerId corner) {
  std::vector<double> s;
  endpoint_slacks(d, g, mode, corner, s);
  const double worst = kernels::reduce_min(s.data(), s.size());
  return worst < 0.0 ? worst : 0.0;  // WNS reports 0 for a clean design
}

inline double tns(const TimingData& d, const TimingGraph& g, Mode mode,
                  CornerId corner) {
  std::vector<double> s;
  endpoint_slacks(d, g, mode, corner, s);
  return kernels::reduce_sum_neg(s.data(), s.size());
}

inline std::size_t num_violations(const TimingData& d, const TimingGraph& g,
                                  Mode mode, CornerId corner) {
  std::vector<double> s;
  endpoint_slacks(d, g, mode, corner, s);
  return kernels::count_neg(s.data(), s.size());
}

inline double wns_merged(const TimingData& d, const TimingGraph& g,
                         Mode mode) {
  std::vector<double> s;
  endpoint_slacks_merged(d, g, mode, s);
  const double worst = kernels::reduce_min(s.data(), s.size());
  return worst < 0.0 ? worst : 0.0;
}

inline double tns_merged(const TimingData& d, const TimingGraph& g,
                         Mode mode) {
  std::vector<double> s;
  endpoint_slacks_merged(d, g, mode, s);
  return kernels::reduce_sum_neg(s.data(), s.size());
}

inline std::size_t num_violations_merged(const TimingData& d,
                                         const TimingGraph& g, Mode mode) {
  std::vector<double> s;
  endpoint_slacks_merged(d, g, mode, s);
  return kernels::count_neg(s.data(), s.size());
}

/// Worst-slack path to \p endpoint traced back through worst fanins.
/// Late mode only; node ids from launch to endpoint.
inline std::vector<NodeId> worst_path(const TimingData& d,
                                      const TimingGraph& g, NodeId endpoint,
                                      CornerId corner) {
  const int late = mode_idx(Mode::Late);
  const std::size_t node_base = d.node_index(corner, late, 0);
  const std::size_t arc_base = d.arc_index(corner, late, 0);
  std::vector<NodeId> path{endpoint};
  NodeId cur = endpoint;
  while (!g.fanin(cur).empty()) {
    NodeId best_from = kInvalidNode;
    double best_gap = kInfPs;
    for (const ArcId a : g.fanin(cur)) {
      const TimingArc& arc = g.arc(a);
      const double gap =
          std::abs(d.arrival[node_base + cur] -
                   (d.arrival[node_base + arc.from] + d.arc_delay[arc_base + a]));
      if (gap < best_gap) {
        best_gap = gap;
        best_from = arc.from;
      }
    }
    MGBA_CHECK(best_from != kInvalidNode);
    path.push_back(best_from);
    cur = best_from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Endpoint realizing the merged worst slack (ties break toward the
/// lowest node id), or kInvalidNode when the design has no endpoints.
inline NodeId worst_endpoint_merged(const TimingData& d, const TimingGraph& g,
                                    Mode mode) {
  NodeId worst = kInvalidNode;
  double worst_slack = kInfPs;
  for (const NodeId e : g.endpoints()) {
    const double s = slack_merged(d, e, mode);
    if (s < worst_slack) {
      worst_slack = s;
      worst = e;
    }
  }
  return worst;
}

/// Clock-cell delay difference (late - early) summed over the common
/// clock-path prefix of two checks, at one corner — the exact CRPR credit
/// PBA applies per launch/capture pair.
inline double common_path_credit(
    const TimingData& d, const TimingGraph& g, const GraphStatics& statics,
    std::size_t check_a, std::size_t check_b, CornerId corner) {
  const auto& path_a = g.clock_path(check_a);
  const auto& path_b = g.clock_path(check_b);
  const std::size_t len = std::min(path_a.size(), path_b.size());
  const std::size_t late_base = d.arc_index(corner, mode_idx(Mode::Late), 0);
  const std::size_t early_base = d.arc_index(corner, mode_idx(Mode::Early), 0);
  double credit = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    if (path_a[i] != path_b[i]) break;
    for (const ArcId a : statics.instance_arcs(path_a[i])) {
      credit += d.arc_delay[late_base + a] - d.arc_delay[early_base + a];
    }
  }
  return credit;
}

/// Exact CRPR credit of one launch/capture check pair (common_path_credit
/// with CRPR on). A launch from a primary input has no clock path:
/// std::nullopt -> 0 credit.
inline double crpr_credit_exact(const TimingData& d, const TimingGraph& g,
                                const GraphStatics& statics, bool enable_crpr,
                                std::optional<std::size_t> launch_check,
                                std::size_t capture_check, CornerId corner) {
  if (!enable_crpr || !launch_check.has_value()) return 0.0;
  return common_path_credit(d, g, statics, *launch_check, capture_check,
                            corner);
}

}  // namespace mgba::query
