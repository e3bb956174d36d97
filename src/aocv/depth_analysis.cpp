#include "aocv/depth_analysis.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/float_bits.hpp"

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

/// Per-node role bits (DepthAnalysis::role_): the graph's launch nodes and
/// endpoints, the seeds of analyze_data's forward and backward DPs.
constexpr std::uint8_t kLaunch = 1;
constexpr std::uint8_t kEndpoint = 2;

/// analyze_data's box at \p start without the per-node box arrays: the
/// locations of the launch points (forward) or endpoints (backward) whose
/// data paths reach it, found by walking the data cone — non-clock nodes
/// whose depth in that direction is finite.
BoundingBox cone_box(const TimingGraph& graph,
                     const std::vector<std::uint8_t>& role,
                     const std::vector<double>& depth, NodeId start,
                     bool forward) {
  const Design& design = graph.design();
  const std::uint8_t seed = forward ? kLaunch : kEndpoint;
  BoundingBox box;
  std::vector<std::uint8_t> seen(graph.num_nodes(), 0);
  std::vector<NodeId> stack{start};
  seen[start] = 1;
  const auto visit = [&](NodeId w) {
    if (seen[w] != 0 || graph.node(w).is_clock_network || depth[w] == kInf) {
      return;
    }
    seen[w] = 1;
    stack.push_back(w);
  };
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    if ((role[u] & seed) != 0) {
      box.expand(design.terminal_location(graph.node(u).terminal));
    }
    if (forward) {
      for (const ArcId a : graph.fanin(u)) visit(graph.arc(a).from);
    } else {
      for (const ArcId a : graph.fanout(u)) visit(graph.arc(a).to);
    }
  }
  return box;
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

  fwd_.assign(n, kInf);
  bwd_.assign(n, kInf);
  role_.assign(n, 0);
  for (const NodeId u : graph.launch_nodes()) role_[u] |= kLaunch;
  for (const NodeId u : graph.endpoints()) role_[u] |= kEndpoint;
  std::vector<double>& fwd = fwd_;
  std::vector<double>& bwd = bwd_;
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

DepthAnalysis DepthAnalysis::with_buffer(const TimingGraph& graph,
                                         const BufferPatch& patch,
                                         std::vector<InstanceId>& moved) const {
  const Design& design = graph.design();
  DepthAnalysis out;
  out.info_ = info_;
  out.info_.resize(design.num_instances());
  // The per-node state follows the node map: the unmoved ids in one
  // block, the moved range one by one, the tail in one block two ids up.
  // A and Y are neither launch points nor endpoints and start unreachable;
  // the pulls below settle their depths.
  const auto carry = [&]<typename T>(const std::vector<T>& from,
                                     std::vector<T>& to, T fill) {
    to.reserve(graph.num_nodes());
    to.assign(from.begin(), from.begin() + patch.first_moved_node);
    to.resize(graph.num_nodes(), fill);
    for (NodeId u = patch.first_moved_node; u < patch.tail_node; ++u) {
      to[patch.node_map[u]] = from[u];
    }
    std::copy(from.begin() + patch.tail_node, from.end(),
              to.begin() + patch.tail_node + 2);
  };
  carry(fwd_, out.fwd_, kInf);
  carry(bwd_, out.bwd_, kInf);
  carry(role_, out.role_, std::uint8_t{0});
  std::vector<double>& fwd = out.fwd_;
  std::vector<double>& bwd = out.bwd_;
  const std::vector<std::uint8_t>& role = out.role_;

  // analyze_data's push DP in pull form, for one non-clock node: the
  // launch/endpoint seed, min'ed with every data fanin (fanout). Depths
  // are small integers, so the fold order cannot move a bit.
  const auto pull_fwd = [&](NodeId v) {
    double best = (role[v] & kLaunch) != 0 ? 0.0 : kInf;
    for (const ArcId a : graph.fanin(v)) {
      const TimingArc& arc = graph.arc(a);
      if (graph.node(arc.from).is_clock_network || fwd[arc.from] == kInf) {
        continue;
      }
      best = std::min(best, fwd[arc.from] +
                                (is_comb_cell_arc(graph, arc) ? 1.0 : 0.0));
    }
    return best;
  };
  const auto pull_bwd = [&](NodeId u) {
    double best = (role[u] & kEndpoint) != 0 ? 0.0 : kInf;
    for (const ArcId a : graph.fanout(u)) {
      const TimingArc& arc = graph.arc(a);
      if (graph.node(arc.to).is_clock_network || bwd[arc.to] == kInf) {
        continue;
      }
      best = std::min(best, bwd[arc.to] +
                                (is_comb_cell_arc(graph, arc) ? 1.0 : 0.0));
    }
    return best;
  };

  // Node ids ascend in topological order: a min-heap settles the forward
  // cone of S and a max-heap the backward cone of D, each node after every
  // node it reads; a node's duplicates pop right after it.
  std::vector<NodeId> changed;
  const auto sweep = [&](NodeId start, bool forward) {
    std::vector<NodeId> heap{start};
    const auto order = [forward](NodeId a, NodeId b) {
      return forward ? a > b : a < b;
    };
    const auto push = [&](NodeId w) {
      if (graph.node(w).is_clock_network) return;
      heap.push_back(w);
      std::push_heap(heap.begin(), heap.end(), order);
    };
    std::vector<double>& depth = forward ? fwd : bwd;
    NodeId last = kInvalidNode;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), order);
      const NodeId v = heap.back();
      heap.pop_back();
      if (v == last) continue;
      last = v;
      const double d = forward ? pull_fwd(v) : pull_bwd(v);
      if (float_bits(d) == float_bits(depth[v])) continue;
      depth[v] = d;
      changed.push_back(v);
      if (forward) {
        for (const ArcId a : graph.fanout(v)) push(graph.arc(a).to);
      } else {
        for (const ArcId a : graph.fanin(v)) push(graph.arc(a).from);
      }
    }
  };
  fwd[patch.buf_in] = pull_fwd(patch.buf_in);
  fwd[patch.buf_out] = pull_fwd(patch.buf_out);
  sweep(patch.sink, true);
  bwd[patch.buf_out] = pull_bwd(patch.buf_out);
  bwd[patch.buf_in] = pull_bwd(patch.buf_in);
  sweep(patch.driver, false);

  // Reachability is unchanged, so is every on_data_path flag and every
  // bounding box: a moved depth moves only the depth of its instance.
  for (const NodeId v : changed) {
    const Terminal& t = graph.node(v).terminal;
    if (t.kind != Terminal::Kind::InstancePin) continue;
    InstanceAocvInfo& info = out.info_[t.id];
    if (!info.on_data_path || output_node_of(graph, t.id) != v) continue;
    info.depth = std::max(1.0, fwd[v] + bwd[v]);
    moved.push_back(t.id);
  }
  // The buffer's own distance pairs D's launches with S's endpoints.
  InstanceAocvInfo& buffer = out.info_[patch.buffer];
  buffer = {};
  const NodeId y = patch.buf_out;
  if (fwd[y] != kInf && bwd[y] != kInf) {
    buffer.on_data_path = true;
    buffer.depth = std::max(1.0, fwd[y] + bwd[y]);
    buffer.distance_um =
        cone_box(graph, role, fwd, patch.driver, true)
            .max_manhattan_to(cone_box(graph, role, bwd, patch.sink, false));
  }
  moved.push_back(patch.buffer);
  return out;
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
