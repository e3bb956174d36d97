#include "sta/timing_graph.hpp"

#include <algorithm>
#include <deque>

#include "util/check.hpp"

namespace mgba {

TimingGraph::TimingGraph(const Design& design,
                         const std::string& clock_port_name)
    : design_(&design) {
  build_nodes();
  // Adjacency is needed before arc ids settle (clock BFS + levelize), so
  // the build phase keeps a per-node scratch fanout and converts to the
  // final CSR only after the renumbering fixed the id spaces.
  std::vector<std::vector<ArcId>> fanout_scratch(nodes_.size());
  build_arcs(fanout_scratch);
  mark_clock_network(clock_port_name, fanout_scratch);
  levelize(fanout_scratch);
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

void TimingGraph::build_arcs(std::vector<std::vector<ArcId>>& fanout_scratch) {
  const Design& d = *design_;

  const auto add_arc = [&](TimingArc arc) {
    const ArcId id = static_cast<ArcId>(arcs_.size());
    fanout_scratch[arc.from].push_back(id);
    arcs_.push_back(arc);
  };

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
      add_arc(arc);
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
      add_arc(arc);
    }
  }
}

void TimingGraph::mark_clock_network(
    const std::string& clock_port_name,
    const std::vector<std::vector<ArcId>>& fanout) {
  const Design& d = *design_;
  const auto clock_port = d.find_port(clock_port_name);
  MGBA_CHECK(clock_port.has_value());
  clock_source_ = port_nodes_[*clock_port];
  MGBA_CHECK(clock_source_ != kInvalidNode);

  // BFS from the clock source. A flip-flop CK pin belongs to the clock
  // network but the traversal does not continue through its CK->Q arc;
  // everything past Q is data.
  std::deque<NodeId> queue{clock_source_};
  nodes_[clock_source_].is_clock_network = true;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const Terminal& t = nodes_[u].terminal;
    if (t.kind == Terminal::Kind::InstancePin) {
      const LibCell& cell = d.cell_of(t.id);
      if (cell.pins[t.pin].is_clock) continue;  // stop at FF CK pins
    }
    for (const ArcId a : fanout[u]) {
      const NodeId v = arcs_[a].to;
      if (!nodes_[v].is_clock_network) {
        nodes_[v].is_clock_network = true;
        queue.push_back(v);
      }
    }
  }
}

void TimingGraph::levelize(const std::vector<std::vector<ArcId>>& fanout) {
  std::vector<std::uint32_t> in_degree(nodes_.size(), 0);
  for (const TimingArc& arc : arcs_) ++in_degree[arc.to];

  std::deque<NodeId> ready;
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    if (in_degree[u] == 0) {
      nodes_[u].level = 0;
      ready.push_back(u);
    }
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const NodeId u = ready.front();
    ready.pop_front();
    ++visited;
    for (const ArcId a : fanout[u]) {
      const NodeId v = arcs_[a].to;
      nodes_[v].level = std::max(nodes_[v].level, nodes_[u].level + 1);
      if (--in_degree[v] == 0) ready.push_back(v);
    }
  }
  MGBA_CHECK(visited == nodes_.size() &&
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
  // of one instance's same-level pins adjacent, which is what compresses
  // the per-(region, level) buckets of a Partitioning into short runs).
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

  // Sort arcs by (destination, build-order arc id): the fanin arcs of one
  // level become a single contiguous arc range, and the build-order
  // tiebreak keeps each node's fanin arcs in construction order, the
  // order every fanin fold visits them in.
  for (TimingArc& arc : arcs_) {
    arc.from = old2new[arc.from];
    arc.to = old2new[arc.to];
  }
  std::stable_sort(arcs_.begin(), arcs_.end(),
                   [](const TimingArc& x, const TimingArc& y) {
                     return x.to < y.to;
                   });
}

void TimingGraph::build_adjacency() {
  const std::size_t n = nodes_.size();
  const std::size_t m = arcs_.size();
  fanin_begin_.assign(n + 1, 0);
  fanout_begin_.assign(n + 1, 0);
  for (const TimingArc& arc : arcs_) {
    ++fanin_begin_[arc.to + 1];
    ++fanout_begin_[arc.from + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    fanin_begin_[i + 1] += fanin_begin_[i];
    fanout_begin_[i + 1] += fanout_begin_[i];
  }
  fanin_arcs_.resize(m);
  fanout_arcs_.resize(m);
  // Place arcs ascending id so each node's list stays in build order (and
  // ascending arc id, which makes every fanin list a consecutive id run).
  std::vector<std::uint32_t> in_pos(fanin_begin_.begin(),
                                    fanin_begin_.end() - 1);
  std::vector<std::uint32_t> out_pos(fanout_begin_.begin(),
                                     fanout_begin_.end() - 1);
  for (std::size_t a = 0; a < m; ++a) {
    const TimingArc& arc = arcs_[a];
    fanin_arcs_[in_pos[arc.to]++] = static_cast<ArcId>(a);
    fanout_arcs_[out_pos[arc.from]++] = static_cast<ArcId>(a);
  }
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
