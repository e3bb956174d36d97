#pragma once

/// \file depth_analysis.hpp
/// GBA worst-case AOCV parameters per instance, computed by forward /
/// backward dynamic programming over the timing graph (Fig. 2 of the
/// paper):
///
///   depth(g)  = min over all launch->capture paths through g of the number
///               of combinational cells on the path (the *worst*, i.e.
///               smallest, cell depth — yielding the largest derate), from
///               fwd_min_cells(out(g)) + bwd_min_cells(out(g));
///   distance(g) = max over paths through g of the Manhattan distance
///               between the path's two endpoints, bounded via launch /
///               capture bounding boxes (the *worst*, i.e. largest,
///               distance — again the largest derate).
///
/// Clock cells get the analogous quantities computed inside the clock
/// network (source -> CK pins). PBA's per-path depth/distance are exact;
/// GBA's are these conservative bounds, and the gap is precisely the
/// pessimism mGBA removes.
///
/// The analysis keeps the per-node minimum data depths (forward and
/// backward), so a closure run can carry it across buffer insertions
/// (with_buffer) at the cost of the cones whose depths move, instead of
/// re-running the whole DP per trial.

#include <cstdint>
#include <vector>

#include "sta/timing_graph.hpp"

namespace mgba {

/// Axis-aligned bounding box over placement points.
struct BoundingBox {
  double min_x = kInfPs, min_y = kInfPs;
  double max_x = -kInfPs, max_y = -kInfPs;

  [[nodiscard]] bool empty() const { return min_x > max_x; }
  void expand(const Point& p);
  void merge(const BoundingBox& other);
  /// Maximum Manhattan distance between a point of this box and a point of
  /// \p other (0 if either is empty).
  [[nodiscard]] double max_manhattan_to(const BoundingBox& other) const;
};

/// Per-instance conservative AOCV parameters.
struct InstanceAocvInfo {
  bool on_data_path = false;   ///< combinational cell reachable launch->capture
  bool on_clock_path = false;  ///< cell inside the clock network
  double depth = 1.0;          ///< worst (minimum) cell depth
  double distance_um = 0.0;    ///< worst (maximum) endpoint distance
};

class DepthAnalysis {
 public:
  /// Runs the forward/backward DP over \p graph.
  explicit DepthAnalysis(const TimingGraph& graph);

  [[nodiscard]] const InstanceAocvInfo& info(InstanceId inst) const;
  [[nodiscard]] std::size_t num_instances() const { return info_.size(); }

  /// The analysis of \p graph, which \p patch derived from the graph this
  /// analysis describes by inserting one buffer on a data net — equal to
  /// DepthAnalysis(graph) for every instance. The buffer adds no launch
  /// point or endpoint and keeps reachability, so no bounding box moves:
  /// depths update forward from S and backward from D, stopping where
  /// values keep their bits, and only the buffer's own distance walks the
  /// two cones (D's launches, S's endpoints). Appends to \p moved every
  /// instance whose info may differ, the buffer included.
  [[nodiscard]] DepthAnalysis with_buffer(const TimingGraph& graph,
                                          const BufferPatch& patch,
                                          std::vector<InstanceId>& moved) const;

  /// Exact PBA cell depth of a path given as graph nodes (launch ->
  /// endpoint): the number of distinct combinational data cells traversed.
  [[nodiscard]] static std::size_t path_depth(const TimingGraph& graph,
                                              const std::vector<NodeId>& path);

  /// Exact PBA endpoint distance of a path: Manhattan distance between the
  /// launch terminal location and the endpoint terminal location.
  [[nodiscard]] static double path_distance_um(const TimingGraph& graph,
                                               const std::vector<NodeId>& path);

 private:
  DepthAnalysis() = default;
  void analyze_data(const TimingGraph& graph);
  void analyze_clock(const TimingGraph& graph);

  std::vector<InstanceAocvInfo> info_;
  /// Per node: minimum combinational cells from any launch point (fwd_)
  /// and to any endpoint (bwd_) through the data network; kInfPs where
  /// none is reachable and on clock nodes.
  std::vector<double> fwd_;
  std::vector<double> bwd_;
  /// Per node: launch point (bit 1) and endpoint (bit 2), the DPs' seeds.
  /// A buffer patch carries it with the depths; the buffer's pins have
  /// neither role.
  std::vector<std::uint8_t> role_;
};

}  // namespace mgba
