#include "sta/timing_graph.hpp"

#include <algorithm>
#include <functional>

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

std::optional<TimingGraph::BufferSite> TimingGraph::buffer_site(
    InstanceId buffer) const {
  const Design& d = *design_;
  // The graph covers every instance but the buffer, and every port.
  if (std::size_t{buffer} + 1 != d.num_instances() ||
      pin_begin_.size() != d.num_instances() ||
      port_nodes_.size() != d.num_ports()) {
    return std::nullopt;
  }
  const Instance& inst = d.instance(buffer);
  const LibCell& cell = d.cell_of(buffer);
  if (cell.kind != CellKind::Buffer) return std::nullopt;
  NetId in_net = kInvalidId;
  NetId out_net = kInvalidId;
  for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
    NetId& slot =
        cell.pins[p].direction == PinDirection::Input ? in_net : out_net;
    if (inst.pin_nets[p] == kInvalidId || slot != kInvalidId) {
      return std::nullopt;
    }
    slot = inst.pin_nets[p];
  }
  if (in_net == kInvalidId || out_net == kInvalidId) return std::nullopt;
  const Net& in = d.net(in_net);
  const Net& out = d.net(out_net);
  if (!in.driver || out.sinks.size() != 1) return std::nullopt;
  const NodeId driver = find_node(*in.driver);
  const NodeId sink = find_node(out.sinks.front());
  if (driver == kInvalidNode || sink == kInvalidNode ||
      nodes_[driver].is_clock_network || fanin(sink).size() != 1) {
    return std::nullopt;
  }
  const ArcId arc = fanin(sink).front();
  if (arcs_[arc].kind != TimingArc::Kind::Net || arcs_[arc].from != driver ||
      arcs_[arc].net != in_net) {
    return std::nullopt;
  }
  return BufferSite{driver, sink, arc};
}

TimingGraph::TimingGraph(const TimingGraph& before, InstanceId buffer,
                         BufferPatch& patch)
    : design_(before.design_) {
  const Design& d = *design_;
  const std::optional<BufferSite> site = before.buffer_site(buffer);
  MGBA_CHECK(site.has_value() && "not a patchable buffer insertion");
  const std::size_t old_nodes = before.nodes_.size();
  const std::size_t old_arcs = before.arcs_.size();

  // Levels. S's one fanin now comes through two more stages, so S rises
  // to level(D) + 3 and its fanout cone rises behind it; nothing else
  // moves. Ascending old id is a topological order, so a min-heap pops
  // each node after every fanin has settled, and a node's duplicates pop
  // right after it.
  std::vector<std::uint32_t> level(old_nodes);
  for (NodeId u = 0; u < old_nodes; ++u) level[u] = before.nodes_[u].level;
  const std::uint32_t driver_level = level[site->driver];
  level[site->sink] = driver_level + 3;
  std::vector<NodeId> heap;
  const auto push_fanout = [&](NodeId u) {
    for (const ArcId a : before.fanout(u)) {
      heap.push_back(before.arcs_[a].to);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  };
  push_fanout(site->sink);
  NodeId last = kInvalidNode;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const NodeId v = heap.back();
    heap.pop_back();
    if (v == last) continue;
    last = v;
    std::uint32_t lv = 0;
    for (const ArcId a : before.fanin(v)) {
      lv = std::max(lv, level[before.arcs_[a].from] + 1);
    }
    if (lv > level[v]) {
      level[v] = lv;
      push_fanout(v);
    }
  }

  // Nodes in build order: instance pins by (instance, pin) — the buffer,
  // the newest instance, last — then ports. to_build maps old ids.
  std::vector<NodeId> to_build(old_nodes);
  nodes_.reserve(old_nodes + 2);
  const auto add_old = [&](NodeId old) -> NodeId {
    if (old == kInvalidNode) return kInvalidNode;
    const NodeId id = static_cast<NodeId>(nodes_.size());
    to_build[old] = id;
    nodes_.push_back(before.nodes_[old]);
    nodes_.back().level = level[old];
    return id;
  };
  pin_begin_ = before.pin_begin_;
  pin_nodes_.resize(before.pin_nodes_.size());
  for (std::size_t k = 0; k < before.pin_nodes_.size(); ++k) {
    pin_nodes_[k] = add_old(before.pin_nodes_[k]);
  }
  const Instance& buf = d.instance(buffer);
  const LibCell& buf_cell = d.cell_of(buffer);
  NodeId buf_in = kInvalidNode;
  NodeId buf_out = kInvalidNode;
  for (std::size_t p = 0; p < buf.pin_nets.size(); ++p) {
    const bool input = buf_cell.pins[p].direction == PinDirection::Input;
    TimingNode node;
    node.terminal =
        Terminal::instance_pin(buffer, static_cast<std::uint32_t>(p));
    node.level = driver_level + (input ? 1 : 2);
    (input ? buf_in : buf_out) = static_cast<NodeId>(nodes_.size());
    pin_nodes_.push_back(static_cast<NodeId>(nodes_.size()));
    nodes_.push_back(node);
  }
  pin_begin_.push_back(static_cast<std::uint32_t>(pin_nodes_.size()));
  port_nodes_.resize(before.port_nodes_.size());
  for (std::size_t p = 0; p < before.port_nodes_.size(); ++p) {
    port_nodes_[p] = add_old(before.port_nodes_[p]);
  }
  clock_source_ = to_build[before.clock_source_];

  // Arcs in the old order, which keeps every node's fanin arcs in build
  // order: D->S becomes Y->S in place (S's only fanin), then D->A and the
  // buffer's cell arcs, the only fanin of A and Y, in lib-arc order.
  arcs_.reserve(old_arcs + 1 + buf_cell.arcs.size());
  for (ArcId a = 0; a < old_arcs; ++a) {
    TimingArc arc = before.arcs_[a];
    arc.to = to_build[arc.to];
    if (a == site->arc) {
      arc.from = buf_out;
      arc.net = buf.pin_nets[buf_cell.output_pin()];
    } else {
      arc.from = to_build[arc.from];
    }
    arcs_.push_back(arc);
  }
  TimingArc to_buffer;
  to_buffer.kind = TimingArc::Kind::Net;
  to_buffer.from = to_build[site->driver];
  to_buffer.to = buf_in;
  to_buffer.net = before.arcs_[site->arc].net;
  arcs_.push_back(to_buffer);
  for (std::size_t a = 0; a < buf_cell.arcs.size(); ++a) {
    const LibTimingArc& lib_arc = buf_cell.arcs[a];
    TimingArc arc;
    arc.kind = TimingArc::Kind::Cell;
    arc.from = pin_node(buffer, lib_arc.from_pin);
    arc.to = pin_node(buffer, lib_arc.to_pin);
    arc.inst = buffer;
    arc.lib_arc = static_cast<std::uint32_t>(a);
    arcs_.push_back(arc);
  }

  std::vector<ArcId> arc_ids;
  const std::vector<NodeId> to_final = renumber_level_contiguous(&arc_ids);
  build_adjacency();
  collect_checks_and_endpoints();
  trace_clock_paths();

  patch.buffer = buffer;
  patch.old_driver = site->driver;
  patch.old_sink = site->sink;
  patch.old_arc = site->arc;
  patch.node_map.resize(old_nodes);
  for (NodeId u = 0; u < old_nodes; ++u) {
    patch.node_map[u] = to_final[to_build[u]];
  }
  patch.arc_map.assign(arc_ids.begin(),
                       arc_ids.begin() + static_cast<std::ptrdiff_t>(old_arcs));
  patch.arc_map[site->arc] = kInvalidArc;
  patch.driver = patch.node_map[site->driver];
  patch.sink = patch.node_map[site->sink];
  patch.buf_in = to_final[buf_in];
  patch.buf_out = to_final[buf_out];
}

void TimingGraph::build_nodes() {
  const Design& d = *design_;
  port_nodes_.assign(d.num_ports(), kInvalidNode);

  for (std::size_t i = 0; i < d.num_instances(); ++i) {
    const Instance& inst = d.instance(static_cast<InstanceId>(i));
    for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
      if (inst.pin_nets[p] == kInvalidId) {
        pin_nodes_.push_back(kInvalidNode);
        continue;
      }
      TimingNode node;
      node.terminal = Terminal::instance_pin(static_cast<InstanceId>(i),
                                             static_cast<std::uint32_t>(p));
      pin_nodes_.push_back(static_cast<NodeId>(nodes_.size()));
      nodes_.push_back(node);
    }
    pin_begin_.push_back(static_cast<std::uint32_t>(pin_nodes_.size()));
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
      const NodeId from = pin_node(i, lib_arc.from_pin);
      const NodeId to = pin_node(i, lib_arc.to_pin);
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
    if (t.kind == Terminal::Kind::InstancePin) return pin_node(t.id, t.pin);
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

std::vector<NodeId> TimingGraph::renumber_level_contiguous(
    std::vector<ArcId>* arc_ids) {
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
  for (NodeId& id : pin_nodes_) {
    if (id != kInvalidNode) id = old2new[id];
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
  if (arc_ids != nullptr) arc_ids->resize(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    TimingArc arc = arcs_[i];
    arc.from = old2new[arc.from];
    arc.to = old2new[arc.to];
    if (arc_ids != nullptr) (*arc_ids)[i] = pos[arc.to];
    placed[pos[arc.to]++] = arc;
  }
  arcs_ = std::move(placed);
  return old2new;
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
      const NodeId data = pin_node(i, con.data_pin);
      const NodeId clock = pin_node(i, con.clock_pin);
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
      const NodeId q = pin_node(i, cell.output_pin());
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
  for (std::size_t id = pin_begin_.size() - 1; id < num_instances; ++id) {
    const std::size_t pins =
        design_->instance(static_cast<InstanceId>(id)).pin_nets.size();
    pin_nodes_.resize(pin_nodes_.size() + pins, kInvalidNode);
    pin_begin_.push_back(static_cast<std::uint32_t>(pin_nodes_.size()));
  }
}

NodeId TimingGraph::node_of_pin(InstanceId inst, std::uint32_t pin) const {
  MGBA_CHECK(std::size_t{inst} + 1 < pin_begin_.size());
  MGBA_CHECK(pin < pin_begin_[inst + 1] - pin_begin_[inst]);
  return pin_node(inst, pin);
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
  if (std::size_t{terminal.id} + 1 >= pin_begin_.size()) return kInvalidNode;
  return terminal.pin < pin_begin_[terminal.id + 1] - pin_begin_[terminal.id]
             ? pin_node(terminal.id, terminal.pin)
             : kInvalidNode;
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
