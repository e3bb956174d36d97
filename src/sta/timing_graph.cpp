#include "sta/timing_graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mgba {

TimingGraph::TimingGraph(const Design& design,
                         const std::string& clock_port_name)
    : design_(&design) {
  build_nodes();
  build_arcs();
  // The clock BFS and levelize need adjacency before the node/arc ids
  // settle; they walk a build-order fanout CSR that lives only here.
  const BuildCsr fanout = build_order_fanout();
  mark_clock_network(clock_port_name, fanout);
  levelize(fanout);
  renumber_level_contiguous();
  build_adjacency();
  collect_checks_and_endpoints();
  trace_clock_paths();
}

void TimingGraph::build_nodes() {
  const Design& d = *design_;
  inst_pin_nodes_.assign(d.num_instances(), {});
  port_nodes_.assign(d.num_ports(), kInvalidNode);

  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    const Instance& inst = d.instance(static_cast<InstanceId>(i));
    inst_pin_nodes_[i].assign(inst.pin_nets.size(), kInvalidNode);
    for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
      if (inst.pin_nets[p] == kInvalidId) continue;
      TimingNode node;
      node.terminal = Terminal::instance_pin(static_cast<InstanceId>(i),
                                             static_cast<std::uint32_t>(p));
      inst_pin_nodes_[i][p] = static_cast<NodeId>(nodes_.size());
      nodes_.push_back(node);
    }
  }
  for (std::size_t p = 0; p < d.num_ports(); ++p) {
    if (d.port(static_cast<PortId>(p)).net == kInvalidId) continue;
    TimingNode node;
    node.terminal = Terminal::port(static_cast<PortId>(p));
    port_nodes_[p] = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(node);
  }
}

void TimingGraph::build_arcs() {
  const Design& d = *design_;

  // Cell arcs.
  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    const Instance& inst = d.instance(static_cast<InstanceId>(i));
    const LibCell& cell = d.library().cell(inst.cell);
    for (std::size_t a = 0; a < cell.arcs.size(); ++a) {
      const LibTimingArc& lib_arc = cell.arcs[a];
      const NodeId from = inst_pin_nodes_[i][lib_arc.from_pin];
      const NodeId to = inst_pin_nodes_[i][lib_arc.to_pin];
      if (from == kInvalidNode || to == kInvalidNode) continue;
      TimingArc arc;
      arc.kind = TimingArc::Kind::Cell;
      arc.from = from;
      arc.to = to;
      arc.inst = static_cast<InstanceId>(i);
      arc.lib_arc = static_cast<std::uint32_t>(a);
      arcs_.push_back(arc);
    }
  }

  // Net arcs.
  const auto terminal_node = [&](const Terminal& t) -> NodeId {
    if (t.kind == Terminal::Kind::InstancePin) {
      return inst_pin_nodes_[t.id][t.pin];
    }
    return port_nodes_[t.id];
  };
  for (std::size_t n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(static_cast<NetId>(n));
    if (!net.driver) continue;
    const NodeId from = terminal_node(*net.driver);
    for (const Terminal& sink : net.sinks) {
      TimingArc arc;
      arc.kind = TimingArc::Kind::Net;
      arc.from = from;
      arc.to = terminal_node(sink);
      arc.net = static_cast<NetId>(n);
      arcs_.push_back(arc);
    }
  }
}

namespace {

/// Fanout CSR of \p arcs over \p num_nodes nodes by a counting placement
/// in ascending arc id, so each node's list ascends by arc id.
void fanout_csr(const std::vector<TimingArc>& arcs, std::size_t num_nodes,
                std::vector<std::uint32_t>& begin, std::vector<ArcId>& list) {
  begin.assign(num_nodes + 1, 0);
  for (const TimingArc& arc : arcs) ++begin[arc.from + 1];
  for (std::size_t u = 0; u < num_nodes; ++u) begin[u + 1] += begin[u];
  list.resize(arcs.size());
  std::vector<std::uint32_t> pos(begin.begin(), begin.end() - 1);
  for (std::size_t a = 0; a < arcs.size(); ++a) {
    list[pos[arcs[a].from]++] = static_cast<ArcId>(a);
  }
}

}  // namespace

TimingGraph::BuildCsr TimingGraph::build_order_fanout() const {
  BuildCsr csr;
  fanout_csr(arcs_, nodes_.size(), csr.begin, csr.arcs);
  return csr;
}

void TimingGraph::mark_clock_network(const std::string& clock_port_name,
                                     const BuildCsr& fanout) {
  const Design& d = *design_;
  const auto clock_port = d.find_port(clock_port_name);
  MGBA_CHECK(clock_port.has_value());
  clock_source_ = port_nodes_[*clock_port];
  MGBA_CHECK(clock_source_ != kInvalidNode);

  // BFS from the clock source. A flip-flop CK pin belongs to the clock
  // network but the traversal does not continue through its CK->Q arc;
  // everything past Q is data.
  // FIFO over a plain vector: every node enters the queue at most once.
  std::vector<NodeId> queue{clock_source_};
  nodes_[clock_source_].is_clock_network = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const Terminal& t = nodes_[u].terminal;
    if (t.kind == Terminal::Kind::InstancePin) {
      const LibCell& cell = d.cell_of(t.id);
      if (cell.pins[t.pin].is_clock) continue;  // stop at FF CK pins
    }
    for (const ArcId a : fanout.of(u)) {
      const NodeId v = arcs_[a].to;
      if (!nodes_[v].is_clock_network) {
        nodes_[v].is_clock_network = true;
        queue.push_back(v);
      }
    }
  }
}

void TimingGraph::levelize(const BuildCsr& fanout) {
  std::vector<std::uint32_t> in_degree(nodes_.size(), 0);
  for (const TimingArc& arc : arcs_) ++in_degree[arc.to];

  // Kahn's algorithm with a vector FIFO: every node is pushed exactly once,
  // so the queue is the visit order and its length the visited count.
  std::vector<NodeId> ready;
  ready.reserve(nodes_.size());
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    if (in_degree[u] == 0) {
      nodes_[u].level = 0;
      ready.push_back(u);
    }
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const NodeId u = ready[head];
    for (const ArcId a : fanout.of(u)) {
      const NodeId v = arcs_[a].to;
      nodes_[v].level = std::max(nodes_[v].level, nodes_[u].level + 1);
      if (--in_degree[v] == 0) ready.push_back(v);
    }
  }
  MGBA_CHECK(ready.size() == nodes_.size() &&
             "timing graph has a combinational cycle");
}

void TimingGraph::renumber_level_contiguous() {
  const std::size_t n = nodes_.size();
  std::uint32_t num_levels = 0;
  for (const TimingNode& node : nodes_) {
    num_levels = std::max(num_levels, node.level + 1);
  }
  // New id order: concatenated level buckets, ascending build-order id
  // within each level (any within-level order is valid — bucket members
  // have no mutual dependencies — and ascending build order keeps the ids
  // of one instance's same-level pins adjacent).
  level_begin_.assign(num_levels + 1, 0);
  for (const TimingNode& node : nodes_) ++level_begin_[node.level + 1];
  for (std::size_t l = 0; l < num_levels; ++l) {
    level_begin_[l + 1] += level_begin_[l];
  }
  std::vector<NodeId> next(level_begin_.begin(), level_begin_.end() - 1);
  std::vector<NodeId> old2new(n);
  std::vector<TimingNode> renumbered(n);
  for (std::size_t old_id = 0; old_id < n; ++old_id) {
    const NodeId new_id = next[nodes_[old_id].level]++;
    old2new[old_id] = new_id;
    renumbered[new_id] = nodes_[old_id];
  }
  nodes_ = std::move(renumbered);
  for (auto& pins : inst_pin_nodes_) {
    for (NodeId& id : pins) {
      if (id != kInvalidNode) id = old2new[id];
    }
  }
  for (NodeId& id : port_nodes_) {
    if (id != kInvalidNode) id = old2new[id];
  }
  clock_source_ = old2new[clock_source_];

  // Order arcs by (destination, build-order arc id): the fanin arcs of one
  // level become a single contiguous arc range, and the build-order
  // tiebreak keeps each node's fanin arcs in construction order, the
  // order every fanin fold visits them in. A counting placement by
  // destination, walking arcs in build order, yields exactly that order;
  // its row pointers are the fanin CSR offsets.
  fanin_begin_.assign(n + 1, 0);
  for (const TimingArc& arc : arcs_) ++fanin_begin_[old2new[arc.to] + 1];
  for (std::size_t u = 0; u < n; ++u) fanin_begin_[u + 1] += fanin_begin_[u];
  std::vector<std::uint32_t> pos(fanin_begin_.begin(), fanin_begin_.end() - 1);
  std::vector<TimingArc> placed(arcs_.size());
  for (TimingArc arc : arcs_) {
    arc.from = old2new[arc.from];
    arc.to = old2new[arc.to];
    placed[pos[arc.to]++] = arc;
  }
  arcs_ = std::move(placed);
}

void TimingGraph::build_adjacency() {
  // Arcs are ordered by destination, so each node's fanin list is the
  // consecutive id run [fanin_begin_[u], fanin_begin_[u + 1]).
  fanin_arcs_.resize(arcs_.size());
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    fanin_arcs_[a] = static_cast<ArcId>(a);
  }
  fanout_csr(arcs_, nodes_.size(), fanout_begin_, fanout_arcs_);
}

void TimingGraph::collect_checks_and_endpoints() {
  const Design& d = *design_;
  check_of_node_.assign(nodes_.size(), -1);

  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    const Instance& inst = d.instance(static_cast<InstanceId>(i));
    const LibCell& cell = d.library().cell(inst.cell);
    for (std::size_t c = 0; c < cell.constraints.size(); ++c) {
      const LibConstraintArc& con = cell.constraints[c];
      const NodeId data = inst_pin_nodes_[i][con.data_pin];
      const NodeId clock = inst_pin_nodes_[i][con.clock_pin];
      if (data == kInvalidNode || clock == kInvalidNode) continue;
      TimingCheck check;
      check.inst = static_cast<InstanceId>(i);
      check.data_node = data;
      check.clock_node = clock;
      check.constraint = static_cast<std::uint32_t>(c);
      check_of_node_[data] = static_cast<std::int32_t>(checks_.size());
      checks_.push_back(check);
      endpoints_.push_back(data);
    }
    // Launch nodes: flip-flop Q pins.
    if (cell.kind == CellKind::FlipFlop) {
      const NodeId q = inst_pin_nodes_[i][cell.output_pin()];
      if (q != kInvalidNode) launch_nodes_.push_back(q);
    }
  }
  for (std::size_t p = 0; p < d.num_ports(); ++p) {
    const NodeId node = port_nodes_[p];
    if (node == kInvalidNode) continue;
    if (node == clock_source_) continue;
    if (d.port(static_cast<PortId>(p)).direction == PortDirection::Output) {
      endpoints_.push_back(node);
    } else {
      launch_nodes_.push_back(node);
    }
  }
}

void TimingGraph::trace_clock_paths() {
  // In a tree-structured clock network, every CK pin has a single fanin
  // chain back to the source; follow it, recording cell instances.
  clock_paths_.assign(checks_.size(), {});
  for (std::size_t c = 0; c < checks_.size(); ++c) {
    std::vector<InstanceId> path;
    NodeId cur = checks_[c].clock_node;
    while (cur != clock_source_) {
      MGBA_CHECK(fanin(cur).size() == 1 &&
                 "clock network must be tree-structured for CRPR");
      const TimingArc& arc = arcs_[fanin(cur)[0]];
      if (arc.kind == TimingArc::Kind::Cell) path.push_back(arc.inst);
      cur = arc.from;
    }
    std::reverse(path.begin(), path.end());
    clock_paths_[c] = std::move(path);
  }
}

void TimingGraph::pad_instances(std::size_t num_instances) {
  while (inst_pin_nodes_.size() < num_instances) {
    const InstanceId id = static_cast<InstanceId>(inst_pin_nodes_.size());
    inst_pin_nodes_.emplace_back(design_->instance(id).pin_nets.size(),
                                 kInvalidNode);
  }
}

NodeId TimingGraph::node_of_pin(InstanceId inst, std::uint32_t pin) const {
  MGBA_CHECK(inst < inst_pin_nodes_.size());
  MGBA_CHECK(pin < inst_pin_nodes_[inst].size());
  return inst_pin_nodes_[inst][pin];
}

NodeId TimingGraph::node_of_port(PortId port) const {
  MGBA_CHECK(port < port_nodes_.size());
  return port_nodes_[port];
}

NodeId TimingGraph::find_node(const Terminal& terminal) const {
  if (terminal.kind == Terminal::Kind::Port) {
    return terminal.id < port_nodes_.size() ? port_nodes_[terminal.id]
                                            : kInvalidNode;
  }
  if (terminal.id >= inst_pin_nodes_.size()) return kInvalidNode;
  const std::vector<NodeId>& pins = inst_pin_nodes_[terminal.id];
  return terminal.pin < pins.size() ? pins[terminal.pin] : kInvalidNode;
}

std::optional<std::size_t> TimingGraph::check_at(NodeId data_node) const {
  const std::int32_t idx = check_of_node_[data_node];
  if (idx < 0) return std::nullopt;
  return static_cast<std::size_t>(idx);
}

std::string TimingGraph::node_name(NodeId id) const {
  const Terminal& t = nodes_[id].terminal;
  if (t.kind == Terminal::Kind::Port) return design_->port(t.id).name;
  const Instance& inst = design_->instance(t.id);
  const LibCell& cell = design_->library().cell(inst.cell);
  return inst.name + "/" + cell.pins[t.pin].name;
}

std::optional<NodeId> TimingGraph::find_endpoint(
    const std::string& name) const {
  for (const NodeId e : endpoints_) {
    if (node_name(e) == name) return e;
  }
  return std::nullopt;
}

}  // namespace mgba
