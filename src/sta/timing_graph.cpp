#include "sta/timing_graph.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "util/check.hpp"
#include "util/input.hpp"

namespace mgba {

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
  fanout_csr(arcs_, nodes_.size(), fanout_begin_, fanout_arcs_);
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

std::vector<TimingGraph::RaisedNode> TimingGraph::raise_cone(
    const TimingGraph& before, const BufferSite& site) {
  // S's one fanin now comes through two more stages, so S rises to
  // level(D) + 3 and its fanout cone rises behind it; nothing else moves.
  // Ascending old id is a topological order, so a min-heap pops each node
  // after every fanin has settled, and a node's duplicates pop right after
  // it: the raised nodes come out in ascending old id.
  std::vector<RaisedNode> raised{
      {site.sink, before.nodes_[site.driver].level + 3}};
  const auto level_of = [&](NodeId u) {
    const auto it = std::ranges::lower_bound(raised, u, {}, &RaisedNode::node);
    return it != raised.end() && it->node == u ? it->level
                                               : before.nodes_[u].level;
  };
  std::vector<NodeId> heap;
  const auto push_fanout = [&](NodeId u) {
    for (const ArcId a : before.fanout(u)) {
      heap.push_back(before.arcs_[a].to);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  };
  push_fanout(site.sink);
  NodeId last = kInvalidNode;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const NodeId v = heap.back();
    heap.pop_back();
    if (v == last) continue;
    last = v;
    std::uint32_t lv = 0;
    for (const ArcId a : before.fanin(v)) {
      lv = std::max(lv, level_of(before.arcs_[a].from) + 1);
    }
    if (lv > before.nodes_[v].level) {
      raised.push_back({v, lv});
      push_fanout(v);
    }
  }
  return raised;
}

TimingGraph::TimingGraph(const TimingGraph& before, InstanceId buffer,
                         BufferPatch& patch)
    : design_(before.design_), clock_paths_(before.clock_paths_) {
  const Design& d = *design_;
  const std::optional<BufferSite> site = before.buffer_site(buffer);
  MGBA_CHECK(site.has_value() && "not a patchable buffer insertion");
  const std::size_t old_nodes = before.nodes_.size();
  const std::size_t old_arcs = before.arcs_.size();
  const Instance& buf = d.instance(buffer);
  const LibCell& buf_cell = d.cell_of(buffer);
  const std::uint32_t driver_level = before.nodes_[site->driver].level;

  const std::vector<RaisedNode> raised = raise_cone(before, *site);
  // The moved range: levels lo (A's, one above D) through hi (the top of
  // the raised cone). Every raised node comes from and lands in it, so the
  // levels below keep their nodes and ids (old ids [0, mid)), and the
  // levels above keep their nodes shifted by A and Y (old ids [tail, n)).
  const std::uint32_t lo = driver_level + 1;
  std::uint32_t hi = driver_level + 2;
  for (const RaisedNode& r : raised) hi = std::max(hi, r.level);
  const std::size_t old_levels = before.num_levels();
  const std::size_t num_levels = std::max<std::size_t>(old_levels, hi + 1);
  const NodeId mid = before.level_begin_[lo];
  const NodeId tail =
      before.level_begin_[std::min<std::size_t>(hi + 1, old_levels)];
  const std::size_t num_nodes = old_nodes + 2;

  pin_begin_ = before.pin_begin_;
  pin_nodes_ = before.pin_nodes_;
  port_nodes_ = before.port_nodes_;
  pin_nodes_.resize(pin_nodes_.size() + buf.pin_nets.size());
  pin_begin_.push_back(static_cast<std::uint32_t>(pin_nodes_.size()));
  // Build order: instance pins by (instance, pin) — the buffer, the
  // newest instance, last — then ports.
  const auto build_key = [&](const Terminal& t) {
    return t.kind == Terminal::Kind::InstancePin
               ? std::uint64_t{pin_begin_[t.id]} + t.pin
               : (std::uint64_t{1} << 32) + t.id;
  };

  // A and Y enter the moved range as two tokens beside the old ids.
  constexpr NodeId kTokenA = kInvalidNode - 2;
  constexpr NodeId kTokenY = kInvalidNode - 1;
  TimingNode buf_node[2];
  for (std::size_t p = 0; p < buf.pin_nets.size(); ++p) {
    const bool input = buf_cell.pins[p].direction == PinDirection::Input;
    TimingNode& node = buf_node[input ? 0 : 1];
    node.terminal =
        Terminal::instance_pin(buffer, static_cast<std::uint32_t>(p));
    node.level = driver_level + (input ? 1 : 2);
  }
  struct Placed {
    std::uint32_t level;
    std::uint64_t key;
    NodeId node;
  };
  std::vector<Placed> inserted;
  inserted.reserve(raised.size() + 2);
  for (const RaisedNode& r : raised) {
    inserted.push_back(
        {r.level, build_key(before.nodes_[r.node].terminal), r.node});
  }
  inserted.push_back({lo, build_key(buf_node[0].terminal), kTokenA});
  inserted.push_back({lo + 1, build_key(buf_node[1].terminal), kTokenY});
  std::ranges::sort(inserted, {}, [](const Placed& p) {
    return std::pair(p.level, p.key);
  });

  // Re-sort the moved range: per level, the nodes that stay (in their old
  // order, which is build order) merged with the nodes that arrive.
  // order[i] is the node at new id mid + i.
  std::vector<NodeId> order;
  order.reserve(tail - mid + 2);
  nodes_.reserve(num_nodes);
  nodes_.assign(before.nodes_.begin(), before.nodes_.begin() + mid);
  level_begin_.resize(num_levels + 1);
  std::copy_n(before.level_begin_.begin(), lo + 1, level_begin_.begin());
  const auto place = [&](NodeId node, std::uint32_t level) {
    order.push_back(node);
    nodes_.push_back(node < old_nodes ? before.nodes_[node]
                                      : buf_node[node == kTokenA ? 0 : 1]);
    nodes_.back().level = level;
  };
  std::size_t next_raised = 0;
  std::size_t next_in = 0;
  for (std::uint32_t l = lo; l <= hi; ++l) {
    level_begin_[l] = static_cast<NodeId>(mid + order.size());
    const auto [u0, u1] =
        l < old_levels ? before.level_range(l) : std::pair(tail, tail);
    for (NodeId u = u0; u < u1; ++u) {
      if (next_raised < raised.size() && raised[next_raised].node == u) {
        ++next_raised;
        continue;
      }
      if (next_in < inserted.size() && inserted[next_in].level == l) {
        const std::uint64_t key = build_key(before.nodes_[u].terminal);
        while (next_in < inserted.size() && inserted[next_in].level == l &&
               inserted[next_in].key < key) {
          place(inserted[next_in++].node, l);
        }
      }
      place(u, l);
    }
    while (next_in < inserted.size() && inserted[next_in].level == l) {
      place(inserted[next_in++].node, l);
    }
  }
  MGBA_DCHECK(mid + order.size() == tail + 2);
  nodes_.insert(nodes_.end(), before.nodes_.begin() + tail,
                before.nodes_.end());
  level_begin_[hi + 1] = tail + 2;
  for (std::size_t l = hi + 2; l <= num_levels; ++l) {
    level_begin_[l] = before.level_begin_[l] + 2;
  }

  // Node ids.
  std::vector<NodeId>& node_map = patch.node_map;
  node_map.resize(old_nodes);
  std::iota(node_map.begin(), node_map.begin() + mid, NodeId{0});
  NodeId buf_in = kInvalidNode;
  NodeId buf_out = kInvalidNode;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto v = static_cast<NodeId>(mid + i);
    if (order[i] == kTokenA) {
      buf_in = v;
    } else if (order[i] == kTokenY) {
      buf_out = v;
    } else {
      node_map[order[i]] = v;
    }
  }
  for (NodeId u = tail; u < old_nodes; ++u) node_map[u] = u + 2;
  std::size_t same = 0;
  while (order[same] == mid + same) ++same;
  const auto first_moved = static_cast<NodeId>(mid + same);
  for (NodeId v = first_moved; v < num_nodes; ++v) {
    const Terminal& t = nodes_[v].terminal;
    (t.kind == Terminal::Kind::InstancePin
         ? pin_nodes_[pin_begin_[t.id] + t.pin]
         : port_nodes_[t.id]) = v;
  }
  clock_source_ = node_map[before.clock_source_];

  // Arcs, in destination order: the arcs into the unmoved levels as they
  // were; per moved node its fanin arcs in their old order — S's one fanin
  // D->S becomes Y->S, A's is D->A, Y's the buffer's cell arcs in lib-arc
  // order; the arcs into the tail shifted.
  const std::size_t shift = buf_cell.arcs.size() + 1;
  const ArcId arc_mid = before.fanin_begin_[mid];
  const ArcId arc_tail = before.fanin_begin_[tail];
  std::vector<ArcId>& arc_map = patch.arc_map;
  arc_map.resize(old_arcs);
  std::iota(arc_map.begin(), arc_map.begin() + arc_mid, ArcId{0});
  patch.new_arcs.clear();
  arcs_.reserve(old_arcs + shift);
  arcs_.assign(before.arcs_.begin(), before.arcs_.begin() + arc_mid);
  fanin_begin_.reserve(num_nodes + 1);
  fanin_begin_.assign(before.fanin_begin_.begin(),
                      before.fanin_begin_.begin() + mid + 1);
  const auto add_new = [&](const TimingArc& arc) {
    patch.new_arcs.push_back(static_cast<ArcId>(arcs_.size()));
    arcs_.push_back(arc);
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto v = static_cast<NodeId>(mid + i);
    const NodeId u = order[i];
    if (u == kTokenA) {
      TimingArc arc;
      arc.kind = TimingArc::Kind::Net;
      arc.from = site->driver;
      arc.to = v;
      arc.net = before.arcs_[site->arc].net;
      add_new(arc);
    } else if (u == kTokenY) {
      for (std::size_t a = 0; a < buf_cell.arcs.size(); ++a) {
        const LibTimingArc& lib_arc = buf_cell.arcs[a];
        TimingArc arc;
        arc.kind = TimingArc::Kind::Cell;
        arc.from = pin_node(buffer, lib_arc.from_pin);
        arc.to = pin_node(buffer, lib_arc.to_pin);
        arc.inst = buffer;
        arc.lib_arc = static_cast<std::uint32_t>(a);
        MGBA_DCHECK(arc.from == buf_in && arc.to == v);
        add_new(arc);
      }
    } else {
      for (ArcId a = before.fanin_begin_[u]; a < before.fanin_begin_[u + 1];
           ++a) {
        TimingArc arc = before.arcs_[a];
        arc.to = v;
        if (a == site->arc) {
          arc.from = buf_out;
          arc.net = buf.pin_nets[buf_cell.output_pin()];
          arc_map[a] = kInvalidArc;
          add_new(arc);
          continue;
        }
        arc.from = node_map[arc.from];
        arc_map[a] = static_cast<ArcId>(arcs_.size());
        arcs_.push_back(arc);
      }
    }
    fanin_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
  }
  MGBA_DCHECK(arcs_.size() == arc_tail + shift);
  arcs_.insert(arcs_.end(), before.arcs_.begin() + arc_tail,
               before.arcs_.end());
  for (auto arc = arcs_.begin() + arc_tail + shift; arc != arcs_.end();
       ++arc) {
    arc->from = node_map[arc->from];
    arc->to += 2;
  }
  for (ArcId a = arc_tail; a < old_arcs; ++a) {
    arc_map[a] = static_cast<ArcId>(a + shift);
  }
  const auto shifted = [](auto& to, const auto& from, std::size_t first,
                          std::size_t by) {
    const std::size_t at = to.size();
    to.insert(to.end(), from.begin() + static_cast<std::ptrdiff_t>(first),
              from.end());
    for (std::size_t k = at; k < to.size(); ++k) to[k] += by;
  };
  shifted(fanin_begin_, before.fanin_begin_, tail + 1, shift);
  const ArcId first_moved_arc = before.fanin_begin_[first_moved];

  // Fanout CSR. Every old node keeps its fanout count (D trades D->S for
  // D->A), so the unmoved nodes keep their pool runs, whose moved arc ids
  // are remapped, and the tail's runs shift with the arcs. A node's run can
  // fall out of ascending order only where a raised node overtook another
  // destination, or at D: those runs are re-sorted.
  fanout_begin_.reserve(num_nodes + 1);
  fanout_begin_.assign(before.fanout_begin_.begin(),
                       before.fanout_begin_.begin() + mid + 1);
  fanout_arcs_.reserve(old_arcs + shift);
  fanout_arcs_.assign(before.fanout_arcs_.begin(),
                      before.fanout_arcs_.begin() + before.fanout_begin_[mid]);
  // arc_map is the identity below first_moved_arc; D's old_arc is fixed
  // below, with D's run.
  for (ArcId& a : fanout_arcs_) a = arc_map[a];
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto v = static_cast<NodeId>(mid + i);
    const NodeId u = order[i];
    if (u < old_nodes) {
      for (std::uint32_t p = before.fanout_begin_[u];
           p < before.fanout_begin_[u + 1]; ++p) {
        fanout_arcs_.push_back(arc_map[before.fanout_arcs_[p]]);
      }
    } else {
      for (const ArcId a : patch.new_arcs) {
        if (arcs_[a].from == v) fanout_arcs_.push_back(a);
      }
    }
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_arcs_.size()));
  }
  MGBA_DCHECK(fanout_arcs_.size() == before.fanout_begin_[tail] + shift);
  shifted(fanout_arcs_, before.fanout_arcs_, before.fanout_begin_[tail],
          shift);
  shifted(fanout_begin_, before.fanout_begin_, tail + 1, shift);
  const auto run_of = [&](NodeId w) {
    return std::span(fanout_arcs_)
        .subspan(fanout_begin_[w], fanout_begin_[w + 1] - fanout_begin_[w]);
  };
  const auto sort_fanout = [&](NodeId w) {
    const std::span<ArcId> run = run_of(w);
    if (!std::ranges::is_sorted(run)) std::ranges::sort(run);
  };
  std::ranges::replace(run_of(site->driver), kInvalidArc,
                       patch.new_arcs.front());
  sort_fanout(site->driver);
  for (const RaisedNode& r : raised) {
    for (const ArcId a : before.fanin(r.node)) {
      if (a != site->arc) sort_fanout(node_map[before.arcs_[a].from]);
    }
  }

  // Checks, endpoints and launch nodes keep their order; their nodes move.
  check_of_node_.reserve(num_nodes);
  check_of_node_.assign(before.check_of_node_.begin(),
                        before.check_of_node_.begin() + mid);
  for (const NodeId u : order) {
    check_of_node_.push_back(u < old_nodes ? before.check_of_node_[u] : -1);
  }
  check_of_node_.insert(check_of_node_.end(),
                        before.check_of_node_.begin() + tail,
                        before.check_of_node_.end());
  checks_ = before.checks_;
  for (TimingCheck& check : checks_) {
    check.data_node = node_map[check.data_node];
    check.clock_node = node_map[check.clock_node];
  }
  endpoints_ = before.endpoints_;
  for (NodeId& u : endpoints_) u = node_map[u];
  launch_nodes_ = before.launch_nodes_;
  for (NodeId& u : launch_nodes_) u = node_map[u];

  patch.buffer = buffer;
  patch.old_driver = site->driver;
  patch.old_sink = site->sink;
  patch.old_arc = site->arc;
  patch.driver = node_map[site->driver];
  patch.sink = node_map[site->sink];
  patch.buf_in = buf_in;
  patch.buf_out = buf_out;
  patch.first_moved_node = first_moved;
  patch.first_moved_arc = first_moved_arc;
  patch.tail_node = tail;
  patch.tail_arc = arc_tail;
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


TimingGraph::BuildCsr TimingGraph::build_order_fanout() const {
  BuildCsr csr;
  fanout_csr(arcs_, nodes_.size(), csr.begin, csr.arcs);
  return csr;
}

void TimingGraph::mark_clock_network(const std::string& clock_port_name,
                                     const BuildCsr& fanout) {
  const Design& d = *design_;
  const auto clock_port = d.find_port(clock_port_name);
  if (!clock_port.has_value() || port_nodes_[*clock_port] == kInvalidNode) {
    throw InputError("design " + d.name() + " has no connected clock port '" +
                     clock_port_name + "'");
  }
  clock_source_ = port_nodes_[*clock_port];

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
  if (ready.size() == nodes_.size()) return;
  // Every node left over has a predecessor left over too, so walking back
  // through them from any one must come round to a node on a cycle.
  std::vector<NodeId> pred(nodes_.size(), kInvalidNode);
  for (const TimingArc& arc : arcs_) {
    if (in_degree[arc.to] > 0 && in_degree[arc.from] > 0) {
      pred[arc.to] = arc.from;
    }
  }
  NodeId u = 0;
  while (in_degree[u] == 0) ++u;
  std::vector<bool> seen(nodes_.size(), false);
  for (; !seen[u]; u = pred[u]) seen[u] = true;
  throw InputError("design " + design_->name() +
                   " has a combinational cycle through " + node_name(u));
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
  for (TimingArc arc : arcs_) {
    arc.from = old2new[arc.from];
    arc.to = old2new[arc.to];
    placed[pos[arc.to]++] = arc;
  }
  arcs_ = std::move(placed);
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
  auto paths = std::make_shared<std::vector<std::vector<InstanceId>>>(
      checks_.size());
  for (std::size_t c = 0; c < checks_.size(); ++c) {
    std::vector<InstanceId>& path = (*paths)[c];
    NodeId cur = checks_[c].clock_node;
    while (cur != clock_source_) {
      if (fanin(cur).size() != 1) {
        throw InputError("design " + design_->name() + ": clock pin " +
                         node_name(checks_[c].clock_node) +
                         " is not fed by a tree from clock port " +
                         node_name(clock_source_));
      }
      const TimingArc& arc = arcs_[fanin(cur).front()];
      if (arc.kind == TimingArc::Kind::Cell) path.push_back(arc.inst);
      cur = arc.from;
    }
    std::reverse(path.begin(), path.end());
  }
  clock_paths_ = std::move(paths);
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
