#pragma once

/// \file timing_graph.hpp
/// Pin-level timing graph built from a Design. Nodes are connected instance
/// pins and ports; arcs are cell timing arcs (input pin -> output pin of
/// one instance) and net arcs (driver -> each sink). The graph is a DAG:
/// flip-flops cut combinational cycles because the D pin has no outgoing
/// arc (the only arc through a flop is CK -> Q).
///
/// The graph also classifies the clock network (nodes reachable from the
/// clock source up to flip-flop CK pins) and records, for every flip-flop,
/// its unique clock path from the source — the input to clock reconvergence
/// pessimism removal (CRPR).
///
/// Node/arc id layout: the graph numbers its nodes so that every
/// topological level is one contiguous id range (ascending build order
/// within the level) and sorts arcs by destination id. Level sweeps walk
/// dense id ranges, and the fanin arcs of a whole level form one contiguous
/// arc range — the layout the kernels in sta/kernels.hpp operate on. Node
/// ids therefore ascend in a topological order. Design-side ids
/// (InstanceId, PortId, NetId) are never renumbered.

#include <cstdint>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netlist/design.hpp"
#include "sta/timing_types.hpp"

namespace mgba {

/// Graph node: one connected pin (instance pin or port).
struct TimingNode {
  Terminal terminal;
  bool is_clock_network = false;
  std::uint32_t level = 0;  ///< topological level (0 = source)
};

/// Graph arc.
struct TimingArc {
  enum class Kind : std::uint8_t { Cell, Net } kind = Kind::Cell;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  // Cell arcs:
  InstanceId inst = kInvalidId;
  std::uint32_t lib_arc = 0;  ///< index into LibCell::arcs
  // Net arcs:
  NetId net = kInvalidId;
};

/// How TimingGraph's buffer-patch constructor numbered the post-insertion
/// graph relative to the pre-insertion one. The buffer replaced the net
/// arc D->S (driver D, sink S) with D->A, the buffer's cell arc A->Y and
/// Y->S; every other node and arc exists in both graphs.
///
/// The maps have three parts. Below first_moved_node / first_moved_arc
/// they are the identity. From tail_node / tail_arc on — the levels above
/// the cone the insertion raised — they add the graph's growth: two nodes,
/// and arc_shift() arcs. Only the moved range between is a permutation.
struct BufferPatch {
  InstanceId buffer = kInvalidId;
  // Pre-insertion ids.
  NodeId old_driver = kInvalidNode;
  NodeId old_sink = kInvalidNode;
  ArcId old_arc = kInvalidArc;  ///< the replaced D->S arc
  // Post-insertion ids.
  NodeId driver = kInvalidNode;
  NodeId buf_in = kInvalidNode;   ///< A
  NodeId buf_out = kInvalidNode;  ///< Y
  NodeId sink = kInvalidNode;
  /// Old node id -> new node id.
  std::vector<NodeId> node_map;
  /// Old arc id -> new arc id; old_arc maps to kInvalidArc.
  std::vector<ArcId> arc_map;
  // The moved range's bounds, in pre-insertion ids; the first moved id
  // does map to a different id.
  NodeId first_moved_node = kInvalidNode;
  ArcId first_moved_arc = kInvalidArc;
  NodeId tail_node = kInvalidNode;
  ArcId tail_arc = kInvalidArc;
  /// The new arcs: D->A, the buffer's cell arcs and Y->S (post-insertion
  /// ids).
  std::vector<ArcId> new_arcs;

  /// Arcs the insertion added: the net gained one, the buffer brings its
  /// cell arcs.
  [[nodiscard]] std::size_t arc_shift() const { return new_arcs.size() - 1; }
};

/// A setup/hold check site: a flip-flop D pin with its clock pin.
struct TimingCheck {
  InstanceId inst = kInvalidId;
  NodeId data_node = kInvalidNode;
  NodeId clock_node = kInvalidNode;
  std::uint32_t constraint = 0;  ///< index into LibCell::constraints
};

class TimingGraph {
 public:
  /// Builds the graph for \p design using \p clock_port_name as the single
  /// clock source. The design must be acyclic through flip-flops.
  TimingGraph(const Design& design, const std::string& clock_port_name);

  /// Where a buffer the patch constructor can apply sits in this
  /// (pre-insertion) graph: the driver D, the sink S and the D->S arc.
  struct BufferSite {
    NodeId driver = kInvalidNode;
    NodeId sink = kInvalidNode;
    ArcId arc = kInvalidArc;
  };
  /// The site of \p buffer when it is the design's newest instance,
  /// inserted by Design::insert_buffer_for_sink on a data net (driver
  /// outside the clock network) after this graph was built or padded;
  /// nullopt for any other edit, which needs a fresh build.
  [[nodiscard]] std::optional<BufferSite> buffer_site(InstanceId buffer) const;

  /// Derives the post-insertion graph from \p before, the graph of the
  /// design just before the insertion of \p buffer (buffer_site must
  /// accept it), and fills \p patch with the id maps. The result equals
  /// TimingGraph(design, clock_port_name) field for field. Levels rise
  /// forward from S alone, so the levels below A's keep every node and arc
  /// id, and the levels above the raised cone shift by the growth: the
  /// patch copies both in blocks, re-sorts only the levels between in
  /// build order, and carries checks, endpoints, launch nodes and clock
  /// paths through the node map (a data-net buffer changes none of them).
  TimingGraph(const TimingGraph& before, InstanceId buffer,
              BufferPatch& patch);

  [[nodiscard]] const Design& design() const { return *design_; }

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size(); }
  [[nodiscard]] const TimingNode& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] const TimingArc& arc(ArcId id) const { return arcs_[id]; }

  /// Node of an instance pin / port, or kInvalidNode when unconnected.
  [[nodiscard]] NodeId node_of_pin(InstanceId inst, std::uint32_t pin) const;
  [[nodiscard]] NodeId node_of_port(PortId port) const;
  /// Node of a terminal, or kInvalidNode when the terminal is unconnected
  /// or names an instance/port this graph does not know (one added to the
  /// design after the build).
  [[nodiscard]] NodeId find_node(const Terminal& terminal) const;

  /// Extends the instance-pin lookup to cover instances appended to the
  /// design *after* this graph was built — the disconnected tombstones a
  /// reverted buffer trial leaves behind. Their pins resolve to
  /// kInvalidNode, matching how unconnected pins behave everywhere else.
  /// Used when a trial checkpoint restores a pre-insertion graph against
  /// the post-revert design.
  void pad_instances(std::size_t num_instances);

  /// Fanin arcs of a node, ascending arc id. The ids are consecutive (arcs
  /// are sorted by destination): the [fanin_begin(id), fanin_begin(id+1))
  /// run of the arc id space.
  [[nodiscard]] std::ranges::iota_view<ArcId, ArcId> fanin(NodeId id) const {
    return {fanin_begin_[id], fanin_begin_[id + 1]};
  }
  [[nodiscard]] std::span<const ArcId> fanout(NodeId id) const {
    return {fanout_arcs_.data() + fanout_begin_[id],
            fanout_begin_[id + 1] - fanout_begin_[id]};
  }
  /// First fanin arc id of a node (CSR row pointer; fanin arcs are the
  /// consecutive run [fanin_begin(id), fanin_begin(id+1))).
  [[nodiscard]] std::uint32_t fanin_begin(NodeId id) const {
    return fanin_begin_[id];
  }
  /// First fanout pool offset of a node (CSR row pointer into
  /// fanout_pool()).
  [[nodiscard]] std::uint32_t fanout_begin(NodeId id) const {
    return fanout_begin_[id];
  }
  /// The pooled fanout arc-id array the fanout() spans slice — exposed so
  /// the full backward sweep can gather per pool slot.
  [[nodiscard]] std::span<const ArcId> fanout_pool() const {
    return fanout_arcs_;
  }

  /// Number of topological levels. Every arc crosses from a strictly
  /// lower to a strictly higher level, so the nodes of one level have no
  /// mutual dependencies — the invariant the level-synchronous parallel
  /// propagation in Timer and PathEnumerator relies on.
  [[nodiscard]] std::size_t num_levels() const {
    return level_begin_.size() - 1;
  }
  /// [first, last) node id range of level \p l.
  [[nodiscard]] std::pair<NodeId, NodeId> level_range(std::size_t l) const {
    return {level_begin_[l], level_begin_[l + 1]};
  }
  /// [first, last) arc id range of the fanin arcs of every node in level
  /// \p l — dense because arcs are sorted by destination id.
  [[nodiscard]] std::pair<ArcId, ArcId> level_arc_range(std::size_t l) const {
    return {fanin_begin_[level_begin_[l]], fanin_begin_[level_begin_[l + 1]]};
  }

  /// Setup/hold check sites (one per flip-flop data pin).
  [[nodiscard]] const std::vector<TimingCheck>& checks() const {
    return checks_;
  }
  /// Check at a data node, if any.
  [[nodiscard]] std::optional<std::size_t> check_at(NodeId data_node) const;

  /// Data-path endpoints: FF data pins and output-port nodes.
  [[nodiscard]] const std::vector<NodeId>& endpoints() const {
    return endpoints_;
  }
  /// Data-path launch nodes: FF Q output pins and input-port nodes
  /// (excluding the clock port).
  [[nodiscard]] const std::vector<NodeId>& launch_nodes() const {
    return launch_nodes_;
  }

  [[nodiscard]] NodeId clock_source() const { return clock_source_; }

  /// Clock path of a flip-flop (by check index): instance ids of the clock
  /// cells from the source to (excluding) the flop itself, in order. Used
  /// for CRPR common-prefix computation.
  [[nodiscard]] const std::vector<InstanceId>& clock_path(
      std::size_t check_idx) const {
    return (*clock_paths_)[check_idx];
  }

  /// Human-readable name of a node ("inst/PIN" or "port").
  [[nodiscard]] std::string node_name(NodeId id) const;

  /// Endpoint node whose node_name() matches, or nullopt. Linear in the
  /// endpoint count — meant for interactive queries (the timing shell's
  /// get_slack / report_path), not inner loops.
  [[nodiscard]] std::optional<NodeId> find_endpoint(
      const std::string& name) const;

 private:
  /// Fanout adjacency over build-order ids (CSR: node u's arcs are
  /// arcs[begin[u] .. begin[u + 1]), ascending arc id), used only while
  /// the constructor levelizes.
  struct BuildCsr {
    std::vector<std::uint32_t> begin;
    std::vector<ArcId> arcs;
    [[nodiscard]] std::span<const ArcId> of(NodeId u) const {
      return {arcs.data() + begin[u], begin[u + 1] - begin[u]};
    }
  };

  /// A node a buffer insertion lifts: its pre-insertion id and new level.
  struct RaisedNode {
    NodeId node;
    std::uint32_t level;
  };
  /// The nodes a buffer at \p site lifts (S and the part of its fanout
  /// cone whose level rises), ascending pre-insertion id.
  static std::vector<RaisedNode> raise_cone(const TimingGraph& before,
                                            const BufferSite& site);
  void build_nodes();
  void build_arcs();
  /// Node of pin \p pin of instance \p inst (kInvalidNode when
  /// unconnected); the instance must be covered by pin_begin_.
  [[nodiscard]] NodeId pin_node(std::size_t inst, std::size_t pin) const {
    return pin_nodes_[pin_begin_[inst] + pin];
  }
  [[nodiscard]] BuildCsr build_order_fanout() const;
  void mark_clock_network(const std::string& clock_port_name,
                          const BuildCsr& fanout);
  void levelize(const BuildCsr& fanout);
  /// Renumbers nodes level-contiguously (ascending build-order id within
  /// each level) and orders arcs by (destination, build-order arc id),
  /// filling the fanin CSR offsets. Runs after levelize, before anything
  /// that records node/arc ids (checks, endpoints, clock paths, fanout
  /// CSR).
  void renumber_level_contiguous();
  void collect_checks_and_endpoints();
  void trace_clock_paths();

  const Design* design_;
  std::vector<TimingNode> nodes_;
  std::vector<TimingArc> arcs_;
  // CSR adjacency, offsets sized num_nodes + 1: a node's fanin arcs are
  // the id run [fanin_begin_[u], fanin_begin_[u + 1]); its fanout arcs,
  // ascending arc id, the pool run fanout_arcs_[fanout_begin_[u] ..
  // fanout_begin_[u + 1]).
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<ArcId> fanout_arcs_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<NodeId> level_begin_{0};  ///< size num_levels + 1

  // pin -> node maps. Instance i's pins are the run
  // pin_nodes_[pin_begin_[i] .. pin_begin_[i + 1]).
  std::vector<std::uint32_t> pin_begin_{0};
  std::vector<NodeId> pin_nodes_;
  std::vector<NodeId> port_nodes_;

  std::vector<TimingCheck> checks_;
  std::vector<std::int32_t> check_of_node_;  // -1 when none
  std::vector<NodeId> endpoints_;
  std::vector<NodeId> launch_nodes_;
  NodeId clock_source_ = kInvalidNode;
  /// Per check; instance ids only, so a buffer patch and pad_instances'
  /// copy share it.
  std::shared_ptr<const std::vector<std::vector<InstanceId>>> clock_paths_;
};

/// Graph-derived lookup tables shared (refcounted) between the Timer head
/// and its snapshots: per-instance cell-arc lists and the FF -> check
/// index map, both read by the exact CRPR credit walk. Rebuilt on every
/// structural change; cloned before mutation when a snapshot still holds
/// the old version.
struct GraphStatics {
  /// Cell arcs of instance i, ascending id: the run
  /// arcs[arc_begin[i] .. arc_begin[i + 1]) (CSR over InstanceId).
  std::vector<std::uint32_t> arc_begin{0};
  std::vector<ArcId> arcs;
  std::vector<std::int32_t> check_of_ff;  // InstanceId -> check idx or -1

  [[nodiscard]] std::size_t num_instances() const {
    return arc_begin.size() - 1;
  }
  [[nodiscard]] std::span<const ArcId> instance_arcs(InstanceId inst) const {
    return {arcs.data() + arc_begin[inst],
            arc_begin[inst + 1] - arc_begin[inst]};
  }
};

}  // namespace mgba
