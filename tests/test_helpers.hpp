#pragma once

/// Shared fixtures for the STA / AOCV / PBA / mGBA tests: small hand-built
/// circuits with exactly known timing, plus a convenience wrapper that
/// assembles the generated-design + timer + derates stack.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "aocv/derate_table.hpp"
#include "liberty/default_library.hpp"
#include "netlist/design.hpp"
#include "netlist/generator.hpp"
#include "sta/timer.hpp"
#include "util/rng.hpp"

namespace mgba::testing_helpers {

/// in -> INV u1 -> INV u2 -> ... (n stages) -> out, unit-delay library,
/// everything at the origin (zero wire delay).
struct ChainCircuit {
  Library library;
  std::unique_ptr<Design> design;
  ChainCircuit(std::size_t stages, double delay_ps = 100.0)
      : library(make_unit_delay_library(delay_ps)) {
    design = std::make_unique<Design>(library, "chain");
    const auto inv = library.cell_id("INV_X1");
    const auto in = design->add_port("in", PortDirection::Input);
    const auto clk = design->add_port("CLK", PortDirection::Input);
    const auto out = design->add_port("out", PortDirection::Output);
    (void)clk;
    NetId prev = design->add_net("n_in");
    design->connect_port(in, prev);
    for (std::size_t i = 0; i < stages; ++i) {
      const auto u =
          design->add_instance("u" + std::to_string(i), inv, {0.0, 0.0});
      design->connect_pin(u, 0, prev);
      prev = design->add_net("n" + std::to_string(i));
      design->connect_pin(u, 1, prev);
    }
    design->connect_port(out, prev);
    // The CLK port must drive something for the graph's clock source; use
    // a dedicated flop so the design has a clock network.
    const auto dff = library.cell_id("DFF_X1");
    const auto ff = design->add_instance("ff_anchor", dff, {0.0, 0.0});
    const auto clk_net = design->add_net("clk_net");
    design->connect_port(*design->find_port("CLK"), clk_net);
    design->connect_pin(ff, 1, clk_net);  // CK
    design->connect_pin(ff, 0, prev);     // D observes the chain
    const auto q_net = design->add_net("q_net");
    design->connect_pin(ff, 2, q_net);
    const auto qout = design->add_port("qout", PortDirection::Output);
    design->connect_port(qout, q_net);
    design->validate();
  }
};

/// Two flip-flops with a buffered clock tree and a logic cloud between
/// them; unit-delay library. Layout of the clock network:
///   CLK -> ckroot(BUF) -> cka(BUF) -> FF1.CK
///                      -> ckb(BUF) -> FF2.CK
/// Data: FF1.Q -> u0 -> u1 -> ... (n stages) -> FF2.D.
struct FlopPairCircuit {
  Library library;
  std::unique_ptr<Design> design;
  InstanceId ff1 = 0, ff2 = 0, ckroot = 0, cka = 0, ckb = 0;

  explicit FlopPairCircuit(std::size_t stages, double delay_ps = 100.0)
      : library(make_unit_delay_library(delay_ps)) {
    design = std::make_unique<Design>(library, "flop_pair");
    const auto inv = library.cell_id("INV_X1");
    const auto buf = library.cell_id("BUF_X1");
    const auto dff = library.cell_id("DFF_X1");

    const auto clk = design->add_port("CLK", PortDirection::Input);
    const auto clk_net = design->add_net("clk");
    design->connect_port(clk, clk_net);

    ckroot = design->add_instance("ckroot", buf, {0.0, 0.0});
    design->connect_pin(ckroot, 0, clk_net);
    const auto trunk = design->add_net("trunk");
    design->connect_pin(ckroot, 1, trunk);

    cka = design->add_instance("cka", buf, {0.0, 0.0});
    ckb = design->add_instance("ckb", buf, {0.0, 0.0});
    design->connect_pin(cka, 0, trunk);
    design->connect_pin(ckb, 0, trunk);
    const auto neta = design->add_net("cknet_a");
    const auto netb = design->add_net("cknet_b");
    design->connect_pin(cka, 1, neta);
    design->connect_pin(ckb, 1, netb);

    ff1 = design->add_instance("ff1", dff, {0.0, 0.0});
    ff2 = design->add_instance("ff2", dff, {0.0, 0.0});
    design->connect_pin(ff1, 1, neta);
    design->connect_pin(ff2, 1, netb);

    NetId prev = design->add_net("q1");
    design->connect_pin(ff1, 2, prev);
    for (std::size_t i = 0; i < stages; ++i) {
      const auto u =
          design->add_instance("u" + std::to_string(i), inv, {0.0, 0.0});
      design->connect_pin(u, 0, prev);
      prev = design->add_net("n" + std::to_string(i));
      design->connect_pin(u, 1, prev);
    }
    design->connect_pin(ff2, 0, prev);

    // Tie off FF2.Q and FF1.D so nothing floats.
    const auto q2 = design->add_net("q2");
    design->connect_pin(ff2, 2, q2);
    const auto q2out = design->add_port("q2out", PortDirection::Output);
    design->connect_port(q2out, q2);
    const auto din = design->add_port("din", PortDirection::Input);
    const auto din_net = design->add_net("din_net");
    design->connect_port(din, din_net);
    design->connect_pin(ff1, 0, din_net);
    design->validate();
  }
};

/// Generated design + timer + AOCV derates in one object.
struct GeneratedStack {
  Library library;
  GeneratedDesign generated;
  DerateTable table;
  std::unique_ptr<Timer> timer;

  /// \p constraints supplies everything but the clock port and period.
  explicit GeneratedStack(GeneratorOptions options,
                          double clock_period_ps = 4000.0,
                          TimingConstraints constraints = {})
      : library(make_default_library()),
        generated(generate_design(library, options)),
        table(default_aocv_table()) {
    constraints.clock_port = generated.clock_port;
    constraints.clock_period_ps = clock_period_ps;
    timer = std::make_unique<Timer>(generated.design, constraints);
    timer->set_instance_derates(compute_gba_derates(timer->graph(), table));
    timer->update_timing();
  }

  Design& design() { return generated.design; }
};

/// Which sink of a data net a buffer-insertion test buffers.
enum class BufferSinkKind { FlopData, OutputPort, OneOfMany, Deepest, Any };

/// A (net, sink) pair to buffer: a data net (driver outside the clock
/// network, per \p graph, the design's current graph) and one of its
/// sinks of the requested kind — a flip-flop D pin, an output port, one
/// sink of a net with three or more, a node on the graph's last level, or
/// any. Scans the nets from a random start; nullopt when none matches.
inline std::optional<std::pair<NetId, Terminal>> pick_buffer_site(
    const Design& design, const TimingGraph& graph, Rng& rng,
    BufferSinkKind kind) {
  const std::size_t start = rng.uniform_index(design.num_nets());
  for (std::size_t k = 0; k < design.num_nets(); ++k) {
    const auto n = static_cast<NetId>((start + k) % design.num_nets());
    const Net& net = design.net(n);
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    const NodeId driver = graph.find_node(*net.driver);
    if (driver == kInvalidNode || graph.node(driver).is_clock_network) {
      continue;
    }
    if (kind == BufferSinkKind::Any ||
        (kind == BufferSinkKind::OneOfMany && net.sinks.size() >= 3)) {
      return std::make_pair(n, net.sinks[rng.uniform_index(net.sinks.size())]);
    }
    for (const Terminal& sink : net.sinks) {
      const NodeId node = graph.find_node(sink);
      const bool match =
          (kind == BufferSinkKind::FlopData && graph.check_at(node)) ||
          (kind == BufferSinkKind::OutputPort &&
           sink.kind == Terminal::Kind::Port) ||
          (kind == BufferSinkKind::Deepest &&
           graph.node(node).level + 1 == graph.num_levels());
      if (match) return std::make_pair(n, sink);
    }
  }
  return std::nullopt;
}

/// Buffer sites at the extremes of a buffer patch's moved range (the node
/// ids the patch renumbers one by one, between the unmoved low levels and
/// the shifted tail).
enum class MovedRangeExtreme {
  /// A net driven from level 0 or 1: nearly every node id moves.
  NearlyAll,
  /// A sink whose raised cone lands exactly on the top level: no tail is
  /// left, and the level count stays.
  NearTop,
  /// An endpoint sink on the top level: the graph grows two levels.
  Top,
};

/// The highest level the fanout cone of \p sink reaches once a buffer in
/// front of it lifts it two levels — the rule the patch applies: ascending
/// id is a topological order, and a node rises to one above its highest
/// fanin.
inline std::uint32_t raised_cone_top(const TimingGraph& graph, NodeId sink) {
  std::map<NodeId, std::uint32_t> raised{{sink, graph.node(sink).level + 2}};
  std::set<NodeId> pending;
  for (const ArcId a : graph.fanout(sink)) pending.insert(graph.arc(a).to);
  std::uint32_t top = raised.begin()->second;
  while (!pending.empty()) {
    const NodeId v = *pending.begin();
    pending.erase(pending.begin());
    std::uint32_t level = 0;
    for (const ArcId a : graph.fanin(v)) {
      const NodeId u = graph.arc(a).from;
      const auto it = raised.find(u);
      level = std::max(level,
                       (it != raised.end() ? it->second : graph.node(u).level) +
                           1);
    }
    if (level <= graph.node(v).level) continue;
    raised[v] = level;
    top = std::max(top, level);
    for (const ArcId a : graph.fanout(v)) pending.insert(graph.arc(a).to);
  }
  return top;
}

/// The first site of \p kind in net order (a data net and one of its
/// sinks, per \p graph, the design's current graph), or nullopt.
inline std::optional<std::pair<NetId, Terminal>> pick_extreme_site(
    const Design& design, const TimingGraph& graph, MovedRangeExtreme kind) {
  const std::uint32_t top = static_cast<std::uint32_t>(graph.num_levels() - 1);
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (!net.driver.has_value()) continue;
    const NodeId driver = graph.find_node(*net.driver);
    if (driver == kInvalidNode || graph.node(driver).is_clock_network) {
      continue;
    }
    for (const Terminal& sink : net.sinks) {
      const NodeId node = graph.find_node(sink);
      if (node == kInvalidNode) continue;
      const std::uint32_t level = graph.node(node).level;
      bool match = false;
      switch (kind) {
        case MovedRangeExtreme::NearlyAll:
          match = graph.node(driver).level <= 1;
          break;
        case MovedRangeExtreme::NearTop:
          // Only sinks a few levels down, whose cones are small.
          match = level + 12 >= top && level + 2 <= top &&
                  raised_cone_top(graph, node) == top;
          break;
        case MovedRangeExtreme::Top:
          match = level == top && graph.fanout(node).empty();
          break;
      }
      if (match) return std::make_pair(static_cast<NetId>(n), sink);
    }
  }
  return std::nullopt;
}
/// A same-footprint sibling cell the instance can be resized to, or
/// nullopt (flip-flops are excluded; footprint families never mix kinds).
inline std::optional<std::size_t> sizable_sibling(const Library& library,
                                                  const Design& design,
                                                  InstanceId inst) {
  const LibCell& cell = design.cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return std::nullopt;
  for (std::size_t j = 0; j < library.num_cells(); ++j) {
    const LibCell& c = library.cell(j);
    if (c.footprint == cell.footprint && c.name != cell.name) return j;
  }
  return std::nullopt;
}

/// A deterministic sequence of sizable (instance, sibling cell) pairs.
inline std::vector<std::pair<InstanceId, std::size_t>> resize_plan(
    const Library& library, const Design& design, std::size_t count,
    std::uint64_t seed) {
  std::vector<std::pair<InstanceId, std::size_t>> plan;
  Rng rng(seed);
  while (plan.size() < count) {
    const auto inst =
        static_cast<InstanceId>(rng.uniform_index(design.num_instances()));
    const auto sibling = sizable_sibling(library, design, inst);
    if (!sibling.has_value()) continue;
    if (design.instance(inst).cell == *sibling) continue;
    plan.emplace_back(inst, *sibling);
  }
  return plan;
}


inline GeneratorOptions small_options(std::uint64_t seed = 42) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.num_gates = 300;
  opt.num_flops = 32;
  opt.num_inputs = 8;
  opt.num_outputs = 8;
  opt.target_depth = 24;
  return opt;
}

}  // namespace mgba::testing_helpers
