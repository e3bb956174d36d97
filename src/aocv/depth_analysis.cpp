#include "aocv/depth_analysis.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mgba {

void BoundingBox::expand(const Point& p) {
  min_x = std::min(min_x, p.x);
  min_y = std::min(min_y, p.y);
  max_x = std::max(max_x, p.x);
  max_y = std::max(max_y, p.y);
}

void BoundingBox::merge(const BoundingBox& other) {
  if (other.empty()) return;
  min_x = std::min(min_x, other.min_x);
  min_y = std::min(min_y, other.min_y);
  max_x = std::max(max_x, other.max_x);
  max_y = std::max(max_y, other.max_y);
}

double BoundingBox::max_manhattan_to(const BoundingBox& other) const {
  if (empty() || other.empty()) return 0.0;
  const double dx =
      std::max(max_x - other.min_x, other.max_x - min_x);
  const double dy =
      std::max(max_y - other.min_y, other.max_y - min_y);
  return std::max(dx, 0.0) + std::max(dy, 0.0);
}

namespace {

constexpr double kInf = kInfPs;

/// True if traversing this arc passes through a combinational cell (the
/// unit of AOCV depth counting).
bool is_comb_cell_arc(const TimingGraph& graph, const TimingArc& arc) {
  if (arc.kind != TimingArc::Kind::Cell) return false;
  return graph.design().cell_of(arc.inst).kind != CellKind::FlipFlop;
}

/// Output-pin node of an instance's cell arcs, or kInvalidNode.
NodeId output_node_of(const TimingGraph& graph, InstanceId inst) {
  const Design& d = graph.design();
  const LibCell& cell = d.cell_of(inst);
  for (std::size_t p = 0; p < cell.pins.size(); ++p) {
    if (cell.pins[p].direction == PinDirection::Output) {
      const NodeId n = graph.node_of_pin(inst, static_cast<std::uint32_t>(p));
      if (n != kInvalidNode) return n;
    }
  }
  return kInvalidNode;
}

}  // namespace

DepthAnalysis::DepthAnalysis(const TimingGraph& graph) {
  info_.assign(graph.design().num_instances(), {});
  analyze_data(graph);
  analyze_clock(graph);
}

void DepthAnalysis::analyze_data(const TimingGraph& graph) {
  const Design& design = graph.design();
  const std::size_t n = graph.num_nodes();

  std::vector<double> fwd(n, kInf), bwd(n, kInf);
  std::vector<BoundingBox> fwd_box(n), bwd_box(n);

  for (const NodeId launch : graph.launch_nodes()) {
    fwd[launch] = 0.0;
    BoundingBox box;
    box.expand(design.terminal_location(graph.node(launch).terminal));
    fwd_box[launch] = box;
  }
  // Node ids ascend in topological order (level-contiguous layout).
  for (NodeId u = 0; u < n; ++u) {
    if (graph.node(u).is_clock_network || fwd[u] == kInf) continue;
    for (const ArcId a : graph.fanout(u)) {
      const TimingArc& arc = graph.arc(a);
      const NodeId v = arc.to;
      if (graph.node(v).is_clock_network) continue;
      const double cost = is_comb_cell_arc(graph, arc) ? 1.0 : 0.0;
      fwd[v] = std::min(fwd[v], fwd[u] + cost);
      fwd_box[v].merge(fwd_box[u]);
    }
  }

  for (const NodeId endpoint : graph.endpoints()) {
    bwd[endpoint] = 0.0;
    BoundingBox box;
    box.expand(design.terminal_location(graph.node(endpoint).terminal));
    bwd_box[endpoint] = box;
  }
  for (NodeId u = static_cast<NodeId>(n); u-- > 0;) {
    if (graph.node(u).is_clock_network) continue;
    for (const ArcId a : graph.fanout(u)) {
      const TimingArc& arc = graph.arc(a);
      const NodeId v = arc.to;
      if (graph.node(v).is_clock_network || bwd[v] == kInf) continue;
      const double cost = is_comb_cell_arc(graph, arc) ? 1.0 : 0.0;
      bwd[u] = std::min(bwd[u], bwd[v] + cost);
      bwd_box[u].merge(bwd_box[v]);
    }
  }

  for (std::size_t i = 0; i < info_.size(); ++i) {
    const InstanceId inst = static_cast<InstanceId>(i);
    if (design.cell_of(inst).kind == CellKind::FlipFlop) continue;
    const NodeId out = output_node_of(graph, inst);
    if (out == kInvalidNode || graph.node(out).is_clock_network) continue;
    if (fwd[out] == kInf || bwd[out] == kInf) continue;
    info_[i].on_data_path = true;
    // fwd includes this cell (its input->output arc was traversed); bwd
    // from the output pin excludes it; their sum is the full path depth.
    info_[i].depth = std::max(1.0, fwd[out] + bwd[out]);
    info_[i].distance_um = fwd_box[out].max_manhattan_to(bwd_box[out]);
  }
}

void DepthAnalysis::analyze_clock(const TimingGraph& graph) {
  const Design& design = graph.design();
  const std::size_t n = graph.num_nodes();

  std::vector<double> fwd(n, kInf), bwd(n, kInf);
  std::vector<BoundingBox> fwd_box(n), bwd_box(n);

  const NodeId source = graph.clock_source();
  fwd[source] = 0.0;
  {
    BoundingBox box;
    box.expand(design.terminal_location(graph.node(source).terminal));
    fwd_box[source] = box;
  }

  // Clock endpoints: flip-flop CK pins.
  for (const TimingCheck& check : graph.checks()) {
    const NodeId ck = check.clock_node;
    bwd[ck] = 0.0;
    BoundingBox box;
    box.expand(design.terminal_location(graph.node(ck).terminal));
    bwd_box[ck].merge(box);
  }

  for (NodeId u = 0; u < n; ++u) {
    if (!graph.node(u).is_clock_network || fwd[u] == kInf) continue;
    for (const ArcId a : graph.fanout(u)) {
      const TimingArc& arc = graph.arc(a);
      const NodeId v = arc.to;
      if (!graph.node(v).is_clock_network) continue;
      const double cost = is_comb_cell_arc(graph, arc) ? 1.0 : 0.0;
      fwd[v] = std::min(fwd[v], fwd[u] + cost);
      fwd_box[v].merge(fwd_box[u]);
    }
  }
  for (NodeId u = static_cast<NodeId>(n); u-- > 0;) {
    if (!graph.node(u).is_clock_network) continue;
    for (const ArcId a : graph.fanout(u)) {
      const TimingArc& arc = graph.arc(a);
      const NodeId v = arc.to;
      if (!graph.node(v).is_clock_network || bwd[v] == kInf) continue;
      const double cost = is_comb_cell_arc(graph, arc) ? 1.0 : 0.0;
      bwd[u] = std::min(bwd[u], bwd[v] + cost);
      bwd_box[u].merge(bwd_box[v]);
    }
  }

  for (std::size_t i = 0; i < info_.size(); ++i) {
    const InstanceId inst = static_cast<InstanceId>(i);
    const NodeId out = output_node_of(graph, inst);
    if (out == kInvalidNode || !graph.node(out).is_clock_network) continue;
    if (fwd[out] == kInf || bwd[out] == kInf) continue;
    info_[i].on_clock_path = true;
    info_[i].depth = std::max(1.0, fwd[out] + bwd[out]);
    info_[i].distance_um = fwd_box[out].max_manhattan_to(bwd_box[out]);
  }
}

const InstanceAocvInfo& DepthAnalysis::info(InstanceId inst) const {
  MGBA_CHECK(inst < info_.size());
  return info_[inst];
}

std::size_t DepthAnalysis::path_depth(const TimingGraph& graph,
                                      const std::vector<NodeId>& path) {
  const Design& design = graph.design();
  std::size_t depth = 0;
  for (const NodeId node : path) {
    const TimingNode& tn = graph.node(node);
    if (tn.is_clock_network) continue;
    if (tn.terminal.kind != Terminal::Kind::InstancePin) continue;
    const LibCell& cell = design.cell_of(tn.terminal.id);
    if (cell.kind == CellKind::FlipFlop) continue;
    if (cell.pins[tn.terminal.pin].direction == PinDirection::Output) ++depth;
  }
  return depth;
}

double DepthAnalysis::path_distance_um(const TimingGraph& graph,
                                       const std::vector<NodeId>& path) {
  MGBA_CHECK(!path.empty());
  const Design& design = graph.design();
  const Point a = design.terminal_location(graph.node(path.front()).terminal);
  const Point b = design.terminal_location(graph.node(path.back()).terminal);
  return manhattan(a, b);
}

}  // namespace mgba
