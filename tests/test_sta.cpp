#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <memory>
#include <ranges>
#include <tuple>
#include <vector>

#include "sta/report.hpp"
#include "sta/state_signature.hpp"
#include "sta/timer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace mgba {
namespace {

using testing_helpers::ChainCircuit;
using testing_helpers::FlopPairCircuit;
using testing_helpers::GeneratedStack;
using testing_helpers::BufferSinkKind;
using testing_helpers::MovedRangeExtreme;
using testing_helpers::pick_buffer_site;
using testing_helpers::pick_extreme_site;
using testing_helpers::small_options;

TimingConstraints unit_constraints(double period) {
  TimingConstraints c;
  c.clock_period_ps = period;
  c.input_slew_ps = 0.0;
  return c;
}

TEST(TimingGraph, ChainStructure) {
  const ChainCircuit circuit(3);
  const TimingGraph graph(*circuit.design, "CLK");
  // Nodes: in, 3x(A,Z), out, ff(D,CK,Q), CLK, qout = 1+6+1+3+1+1 = 13.
  EXPECT_EQ(graph.num_nodes(), 13u);
  EXPECT_EQ(graph.checks().size(), 1u);
  // Endpoints: out port, qout port, ff D pin.
  EXPECT_EQ(graph.endpoints().size(), 3u);
  EXPECT_EQ(graph.level_range(graph.num_levels() - 1).second,
            graph.num_nodes());
}

TEST(TimingGraph, TopologicalOrderRespectsArcs) {
  GeneratedStack stack(small_options(1));
  const TimingGraph& graph = stack.timer->graph();
  // Node ids ascend in topological order, level by level.
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const TimingArc& arc = graph.arc(a);
    EXPECT_LT(arc.from, arc.to);
    EXPECT_LT(graph.node(arc.from).level, graph.node(arc.to).level);
  }
  for (std::size_t l = 0; l < graph.num_levels(); ++l) {
    const auto [u0, u1] = graph.level_range(l);
    for (NodeId u = u0; u < u1; ++u) EXPECT_EQ(graph.node(u).level, l);
  }
}

TEST(TimingGraph, ClockNetworkMarking) {
  const FlopPairCircuit circuit(2);
  const TimingGraph graph(*circuit.design, "CLK");
  // All clock buffer pins and FF CK pins are clock network; data is not.
  const NodeId ck1 = graph.node_of_pin(circuit.ff1, 1);
  const NodeId q1 = graph.node_of_pin(circuit.ff1, 2);
  EXPECT_TRUE(graph.node(ck1).is_clock_network);
  EXPECT_FALSE(graph.node(q1).is_clock_network);
  const NodeId root_out = graph.node_of_pin(circuit.ckroot, 1);
  EXPECT_TRUE(graph.node(root_out).is_clock_network);
}

TEST(TimingGraph, ClockPathsTraced) {
  const FlopPairCircuit circuit(2);
  const TimingGraph graph(*circuit.design, "CLK");
  ASSERT_EQ(graph.checks().size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& path = graph.clock_path(c);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], circuit.ckroot);
  }
  EXPECT_NE(graph.clock_path(0)[1], graph.clock_path(1)[1]);
}

TEST(TimingGraph, NodeNames) {
  const ChainCircuit circuit(1);
  const TimingGraph graph(*circuit.design, "CLK");
  bool found_pin = false, found_port = false;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    const std::string name = graph.node_name(n);
    if (name == "u0/Z") found_pin = true;
    if (name == "in") found_port = true;
  }
  EXPECT_TRUE(found_pin);
  EXPECT_TRUE(found_port);
}

TEST(TimingGraph, LayoutKeepsBuildOrder) {
  // The level-contiguous layout (DESIGN.md §16) on D1-D3: levels rise
  // along every arc, each level is one node-id range, a node's fanin arcs
  // are consecutive ids in construction order (cell arcs by instance and
  // lib arc, net arcs by net and sink position), and fanout lists ascend.
  const Library library = make_default_library();
  for (int d = 1; d <= 3; ++d) {
    SCOPED_TRACE("D" + std::to_string(d));
    const GeneratedDesign generated =
        generate_design(library, benchmark_design_options(d));
    const Design& design = generated.design;
    const TimingGraph graph(design, generated.clock_port);

    for (ArcId a = 0; a < graph.num_arcs(); ++a) {
      const TimingArc& arc = graph.arc(a);
      ASSERT_LT(graph.node(arc.from).level, graph.node(arc.to).level);
    }
    NodeId next = 0;
    for (std::size_t l = 0; l < graph.num_levels(); ++l) {
      const auto [u0, u1] = graph.level_range(l);
      ASSERT_EQ(u0, next);
      ASSERT_LT(u0, u1);
      for (NodeId u = u0; u < u1; ++u) ASSERT_EQ(graph.node(u).level, l);
      next = u1;
    }
    ASSERT_EQ(next, graph.num_nodes());

    // Construction rank: cell arcs instance by instance in lib-arc order,
    // then net arcs net by net in sink order.
    const auto rank = [&](const TimingArc& arc) {
      if (arc.kind == TimingArc::Kind::Cell) {
        return std::make_tuple(0, std::size_t{arc.inst},
                               std::size_t{arc.lib_arc});
      }
      const Terminal& sink = graph.node(arc.to).terminal;
      const auto& sinks = design.net(arc.net).sinks;
      const auto pos = static_cast<std::size_t>(
          std::find(sinks.begin(), sinks.end(), sink) - sinks.begin());
      return std::make_tuple(1, std::size_t{arc.net}, pos);
    };
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      const auto fanin = graph.fanin(u);
      for (std::size_t i = 0; i < fanin.size(); ++i) {
        ASSERT_EQ(fanin[i], graph.fanin_begin(u) + i);
        ASSERT_EQ(graph.arc(fanin[i]).to, u);
        if (i > 0) {
          ASSERT_LT(rank(graph.arc(fanin[i - 1])), rank(graph.arc(fanin[i])));
        }
      }
      const auto fanout = graph.fanout(u);
      for (std::size_t i = 0; i < fanout.size(); ++i) {
        ASSERT_EQ(graph.arc(fanout[i]).from, u);
        if (i > 0) {
          ASSERT_LT(fanout[i - 1], fanout[i]);
        }
      }
    }
  }
}


/// Every accessor of \p got equals that of \p want, a graph of the same
/// design.
void expect_same_graph(const TimingGraph& got, const TimingGraph& want) {
  const Design& design = want.design();
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_arcs(), want.num_arcs());
  ASSERT_EQ(got.num_levels(), want.num_levels());
  for (NodeId u = 0; u <= want.num_nodes(); ++u) {
    ASSERT_EQ(got.fanin_begin(u), want.fanin_begin(u)) << "node " << u;
    ASSERT_EQ(got.fanout_begin(u), want.fanout_begin(u)) << "node " << u;
  }
  for (NodeId u = 0; u < want.num_nodes(); ++u) {
    const TimingNode& a = got.node(u);
    const TimingNode& b = want.node(u);
    ASSERT_TRUE(a.terminal == b.terminal) << "node " << u;
    ASSERT_EQ(a.is_clock_network, b.is_clock_network) << "node " << u;
    ASSERT_EQ(a.level, b.level) << "node " << u;
    ASSERT_EQ(got.check_at(u), want.check_at(u)) << "node " << u;
    ASSERT_TRUE(std::ranges::equal(got.fanin(u), want.fanin(u)));
    ASSERT_TRUE(std::ranges::equal(got.fanout(u), want.fanout(u)));
  }
  for (ArcId a = 0; a < want.num_arcs(); ++a) {
    const TimingArc& x = got.arc(a);
    const TimingArc& y = want.arc(a);
    ASSERT_EQ(std::tie(x.kind, x.from, x.to, x.inst, x.lib_arc, x.net),
              std::tie(y.kind, y.from, y.to, y.inst, y.lib_arc, y.net))
        << "arc " << a;
  }
  ASSERT_TRUE(std::ranges::equal(got.fanout_pool(), want.fanout_pool()));
  for (std::size_t l = 0; l < want.num_levels(); ++l) {
    ASSERT_EQ(got.level_range(l), want.level_range(l));
    ASSERT_EQ(got.level_arc_range(l), want.level_arc_range(l));
  }
  ASSERT_EQ(got.checks().size(), want.checks().size());
  for (std::size_t c = 0; c < want.checks().size(); ++c) {
    const TimingCheck& x = got.checks()[c];
    const TimingCheck& y = want.checks()[c];
    ASSERT_EQ(std::tie(x.inst, x.data_node, x.clock_node, x.constraint),
              std::tie(y.inst, y.data_node, y.clock_node, y.constraint));
    ASSERT_EQ(got.clock_path(c), want.clock_path(c));
  }
  ASSERT_EQ(got.endpoints(), want.endpoints());
  ASSERT_EQ(got.launch_nodes(), want.launch_nodes());
  ASSERT_EQ(got.clock_source(), want.clock_source());
  for (InstanceId i = 0; i < design.num_instances(); ++i) {
    for (std::uint32_t p = 0; p < design.instance(i).pin_nets.size(); ++p) {
      ASSERT_EQ(got.node_of_pin(i, p), want.node_of_pin(i, p));
    }
  }
  for (PortId p = 0; p < design.num_ports(); ++p) {
    ASSERT_EQ(got.node_of_port(p), want.node_of_port(p));
  }
}

/// The moved-range structure of \p patch, which derived \p after from \p
/// before, derived from the two graphs alone: the id maps are the identity
/// below first_moved_node / first_moved_arc and the first of those ids
/// moves; above the levels the insertion touched (Y's and the raised
/// cone's) every old id shifts by the growth; the moved range between maps
/// into itself.
void expect_moved_range(const TimingGraph& before, const TimingGraph& after,
                        const BufferPatch& patch) {
  const std::size_t nodes = before.num_nodes();
  const std::size_t arcs = before.num_arcs();
  const std::size_t shift = after.num_arcs() - arcs;
  ASSERT_EQ(after.num_nodes(), nodes + 2);
  ASSERT_EQ(patch.arc_shift(), shift);
  ASSERT_EQ(patch.new_arcs.size(), shift + 1);
  ASSERT_LT(patch.first_moved_node, nodes);
  for (NodeId u = 0; u < patch.first_moved_node; ++u) {
    ASSERT_EQ(patch.node_map[u], u) << "node " << u;
  }
  ASSERT_NE(patch.node_map[patch.first_moved_node], patch.first_moved_node);
  ASSERT_EQ(patch.first_moved_arc, before.fanin_begin(patch.first_moved_node));
  for (ArcId a = 0; a < patch.first_moved_arc; ++a) {
    ASSERT_EQ(patch.arc_map[a], a) << "arc " << a;
  }
  ASSERT_NE(patch.arc_map[patch.first_moved_arc], patch.first_moved_arc);

  std::uint32_t top = after.node(patch.buf_out).level;
  for (NodeId u = 0; u < nodes; ++u) {
    const std::uint32_t level = after.node(patch.node_map[u]).level;
    if (level != before.node(u).level) top = std::max(top, level);
  }
  const NodeId tail = top + 1 < before.num_levels()
                          ? before.level_range(top + 1).first
                          : static_cast<NodeId>(nodes);
  ASSERT_EQ(patch.tail_node, tail);
  ASSERT_EQ(patch.tail_arc, before.fanin_begin(tail));
  for (NodeId u = tail; u < nodes; ++u) {
    ASSERT_EQ(patch.node_map[u], u + 2) << "node " << u;
  }
  for (ArcId a = patch.tail_arc; a < arcs; ++a) {
    ASSERT_EQ(patch.arc_map[a], a + shift) << "arc " << a;
  }
  for (NodeId u = patch.first_moved_node; u < tail; ++u) {
    ASSERT_GE(patch.node_map[u], patch.first_moved_node);
    ASSERT_LT(patch.node_map[u], tail + 2);
  }
  for (const ArcId a : patch.new_arcs) {
    const NodeId to = after.arc(a).to;
    ASSERT_TRUE(to == patch.buf_in || to == patch.buf_out || to == patch.sink);
  }
}

TEST(TimingGraph, BufferPatchMatchesFreshBuild) {
  // The patch constructor derives the post-insertion graph from the
  // pre-insertion one; it must equal a fresh build field for field on
  // D1-D3 and a 600-gate design, 40 seeded insertions each, chained
  // patch on patch. Every seventh insertion is a rejected trial: the
  // buffer stays as a tombstone and the pre-insertion graph comes back
  // padded over it, as a structural rollback restores it.
  const Library library = make_default_library();
  const std::size_t buffer_cell = *library.strongest_buffer();
  std::vector<GeneratorOptions> designs;
  for (int d = 1; d <= 3; ++d) designs.push_back(benchmark_design_options(d));
  designs.push_back(small_options(61));
  designs.back().num_gates = 600;
  std::size_t flop_sinks = 0;
  std::size_t port_sinks = 0;
  std::size_t shared_sinks = 0;
  std::size_t raised = 0;
  std::size_t grown = 0;
  std::size_t after_tombstone = 0;
  for (std::size_t k = 0; k < designs.size(); ++k) {
    GeneratedDesign generated = generate_design(library, designs[k]);
    Design& design = generated.design;
    auto graph = std::make_unique<TimingGraph>(design, generated.clock_port);
    Rng rng(900 + k);
    bool tombstone = false;
    for (std::size_t step = 0; step < 40; ++step) {
      SCOPED_TRACE("design " + std::to_string(k) + " step " +
                   std::to_string(step));
      auto site = pick_buffer_site(design, *graph, rng,
                                   static_cast<BufferSinkKind>(step % 5));
      if (!site.has_value()) {
        site = pick_buffer_site(design, *graph, rng, BufferSinkKind::Any);
      }
      ASSERT_TRUE(site.has_value());
      const auto [net, sink] = *site;
      const InstanceId buffer = design.insert_buffer_for_sink(
          net, sink, buffer_cell, "patchbuf" + std::to_string(step),
          design.terminal_location(sink));
      BufferPatch patch;
      auto patched = std::make_unique<TimingGraph>(*graph, buffer, patch);
      const TimingGraph fresh(design, generated.clock_port);
      expect_same_graph(*patched, fresh);
      expect_moved_range(*graph, *patched, patch);
      if (HasFatalFailure()) return;

      // The id maps name the same terminals in both graphs.
      for (NodeId u = 0; u < graph->num_nodes(); ++u) {
        ASSERT_TRUE(patched->node(patch.node_map[u]).terminal ==
                    graph->node(u).terminal);
      }
      for (ArcId a = 0; a < graph->num_arcs(); ++a) {
        if (a == patch.old_arc) {
          ASSERT_EQ(patch.arc_map[a], kInvalidArc);
          continue;
        }
        const TimingArc& was = graph->arc(a);
        const TimingArc& now = patched->arc(patch.arc_map[a]);
        ASSERT_EQ(now.from, patch.node_map[was.from]);
        ASSERT_EQ(now.to, patch.node_map[was.to]);
        ASSERT_EQ(std::tie(now.kind, now.inst, now.lib_arc, now.net),
                  std::tie(was.kind, was.inst, was.lib_arc, was.net));
      }
      ASSERT_EQ(patched->arc(patched->fanin(patch.sink)[0]).from,
                patch.buf_out);

      flop_sinks += fresh.check_at(patch.sink).has_value() ? 1 : 0;
      port_sinks += sink.kind == Terminal::Kind::Port ? 1 : 0;
      shared_sinks += design.net(net).sinks.size() > 1 ? 1 : 0;
      grown += patched->num_levels() > graph->num_levels() ? 1 : 0;
      after_tombstone += tombstone ? 1 : 0;
      for (NodeId u = 0; u < graph->num_nodes(); ++u) {
        if (u != patch.old_sink &&
            patched->node(patch.node_map[u]).level != graph->node(u).level) {
          ++raised;
          break;
        }
      }
      if (step % 7 == 3) {
        design.remove_buffer(buffer, net);
        graph->pad_instances(design.num_instances());
        tombstone = true;
      } else {
        graph = std::move(patched);
      }
    }
  }
  EXPECT_GT(flop_sinks, 0u);
  EXPECT_GT(port_sinks, 0u);
  EXPECT_GT(shared_sinks, 0u);
  EXPECT_GT(raised, 0u);
  EXPECT_GT(grown, 0u);
  EXPECT_GT(after_tombstone, 0u);
}

TEST(TimingGraph, BufferPatchMovedRangeExtremes) {
  // The moved range at its extremes, each patch equal to a fresh build
  // field for field and holding the moved-range structure, on D1-D3 and a
  // 600-gate design, patch on patch: a buffer on a net driven from level 0
  // or 1 (nearly every id moves); on a sink whose raised cone lands on the
  // top level (no tail, no new level); a
  // rejected trial, whose tombstone the next patch builds over; on an
  // endpoint on the top level (two new levels); and on the same sink
  // again, now alone on the top level (the one node that moves).
  const Library library = make_default_library();
  const std::size_t buffer_cell = *library.strongest_buffer();
  std::vector<GeneratorOptions> designs;
  for (int d = 1; d <= 3; ++d) designs.push_back(benchmark_design_options(d));
  designs.push_back(small_options(62));
  designs.back().num_gates = 600;
  for (std::size_t k = 0; k < designs.size(); ++k) {
    SCOPED_TRACE("design " + std::to_string(k));
    GeneratedDesign generated = generate_design(library, designs[k]);
    Design& design = generated.design;
    auto graph = std::make_unique<TimingGraph>(design, generated.clock_port);
    std::size_t count = 0;
    // Inserts a buffer on (net, sink) and patches; a patch equal to a
    // fresh build replaces the graph unless \p reject, which leaves the
    // tombstone and pads the old graph over it.
    const auto insert = [&](NetId net, const Terminal& sink, bool reject) {
      const std::size_t levels = graph->num_levels();
      const InstanceId buffer = design.insert_buffer_for_sink(
          net, sink, buffer_cell, "extbuf" + std::to_string(count++),
          design.terminal_location(sink));
      BufferPatch patch;
      auto patched = std::make_unique<TimingGraph>(*graph, buffer, patch);
      expect_same_graph(*patched, TimingGraph(design, generated.clock_port));
      expect_moved_range(*graph, *patched, patch);
      if (reject) {
        design.remove_buffer(buffer, net);
        graph->pad_instances(design.num_instances());
      } else {
        graph = std::move(patched);
      }
      return std::make_tuple(buffer, patch, graph->num_levels() - levels);
    };

    auto site = pick_extreme_site(design, *graph, MovedRangeExtreme::NearlyAll);
    ASSERT_TRUE(site.has_value());
    const std::uint32_t driver_level =
        graph->node(graph->find_node(*design.net(site->first).driver)).level;
    const NodeId low = graph->level_range(driver_level + 2).first;
    {
      const auto [buffer, patch, grown] = insert(site->first, site->second,
                                                 false);
      if (HasFatalFailure()) return;
      EXPECT_LT(patch.first_moved_node, low);
    }

    site = pick_extreme_site(design, *graph, MovedRangeExtreme::NearTop);
    ASSERT_TRUE(site.has_value());
    {
      const std::size_t nodes = graph->num_nodes();
      const auto [buffer, patch, grown] = insert(site->first, site->second,
                                                 false);
      if (HasFatalFailure()) return;
      EXPECT_EQ(patch.tail_node, nodes);
      EXPECT_EQ(grown, 0u);
    }

    Rng rng(700 + k);
    site = pick_buffer_site(design, *graph, rng, BufferSinkKind::Any);
    ASSERT_TRUE(site.has_value());
    insert(site->first, site->second, true);
    if (HasFatalFailure()) return;

    site = pick_extreme_site(design, *graph, MovedRangeExtreme::Top);
    ASSERT_TRUE(site.has_value());
    const Terminal sink = site->second;
    InstanceId top_buffer = kInvalidId;
    {
      const std::size_t nodes = graph->num_nodes();
      const auto [buffer, patch, grown] = insert(site->first, sink, false);
      if (HasFatalFailure()) return;
      EXPECT_EQ(patch.tail_node, nodes);
      EXPECT_EQ(grown, 2u);
      top_buffer = buffer;
    }

    const NetId out = design.instance(top_buffer)
                          .pin_nets[design.cell_of(top_buffer).output_pin()];
    {
      const std::size_t nodes = graph->num_nodes();
      const auto [buffer, patch, grown] = insert(out, sink, false);
      if (HasFatalFailure()) return;
      EXPECT_EQ(patch.first_moved_node, nodes - 1);
      EXPECT_EQ(patch.tail_node, nodes);
      EXPECT_EQ(patch.node_map[nodes - 1], nodes + 1);
      EXPECT_EQ(grown, 2u);
    }
  }
}

TEST(TimingGraph, ClockNetBufferNeedsFreshBuild) {
  // A buffer on the clock network is not a patch site: the caller builds.
  FlopPairCircuit circuit(2);
  Design& design = *circuit.design;
  const TimingGraph graph(design, "CLK");
  const NetId trunk = *design.find_net("trunk");
  const Terminal sink = design.net(trunk).sinks.front();
  const InstanceId buffer = design.insert_buffer_for_sink(
      trunk, sink, circuit.library.cell_id("BUF_X1"), "ckbuf", {0.0, 0.0});
  EXPECT_FALSE(graph.buffer_site(buffer).has_value());
}
TEST(Timer, ChainArrivalExact) {
  const ChainCircuit circuit(4);
  Timer timer(*circuit.design, unit_constraints(1000.0));
  timer.update_timing();
  const NodeId out =
      timer.graph().node_of_port(*circuit.design->find_port("out"));
  EXPECT_DOUBLE_EQ(timer.arrival(out, Mode::Late), 400.0);
  EXPECT_DOUBLE_EQ(timer.arrival(out, Mode::Early), 400.0);
  EXPECT_DOUBLE_EQ(timer.slack(out, Mode::Late), 600.0);
}

TEST(Timer, ChainRequiredBackward) {
  const ChainCircuit circuit(4);
  Timer timer(*circuit.design, unit_constraints(1000.0));
  timer.update_timing();
  // Required at u0 output: 1000 - 3 remaining stages * 100 = 700.
  const auto u0 = *circuit.design->find_instance("u0");
  const NodeId u0_out = timer.graph().node_of_pin(u0, 1);
  EXPECT_DOUBLE_EQ(timer.required(u0_out, Mode::Late), 700.0);
  EXPECT_DOUBLE_EQ(timer.slack(u0_out, Mode::Late), 600.0);
}

TEST(Timer, FlopToFlopSetupSlack) {
  const FlopPairCircuit circuit(3);
  Timer timer(*circuit.design, unit_constraints(1000.0));
  timer.update_timing();
  // Unit library: CK->Q = 0, setup = 0, clock buffers 0 delay, no derates.
  // Data arrival at FF2.D = 300; required = 1000. Slack = 700.
  const auto check = timer.graph().check_at(
      timer.graph().node_of_pin(circuit.ff2, 0));
  ASSERT_TRUE(check.has_value());
  EXPECT_DOUBLE_EQ(timer.check_timing(*check).setup_slack_ps, 700.0);
}

TEST(Timer, DeratesScaleDelays) {
  const FlopPairCircuit circuit(3);
  Timer timer(*circuit.design, unit_constraints(1000.0));
  std::vector<DeratePair> derates(circuit.design->num_instances(),
                                  DeratePair{1.0, 1.0});
  // Derate only data inverters.
  for (const char* name : {"u0", "u1", "u2"}) {
    derates[*circuit.design->find_instance(name)] = {1.5, 0.8};
  }
  timer.set_instance_derates(derates);
  timer.update_timing();
  // Clock insertion (ckroot + cka, underated 100 ps buffers) adds 200 ps
  // to the launch in both modes; the three derated inverters contribute
  // 3 x 150 late and 3 x 80 early.
  const NodeId d2 = timer.graph().node_of_pin(circuit.ff2, 0);
  EXPECT_DOUBLE_EQ(timer.arrival(d2, Mode::Late), 200.0 + 450.0);
  EXPECT_DOUBLE_EQ(timer.arrival(d2, Mode::Early), 200.0 + 240.0);
}

TEST(Timer, WeightsScaleOnlyLateDataCells) {
  const FlopPairCircuit circuit(2);
  Timer timer(*circuit.design, unit_constraints(1000.0));
  std::vector<double> weights(circuit.design->num_instances(), 0.0);
  weights[*circuit.design->find_instance("u0")] = -0.2;  // 20% faster
  weights[circuit.ckroot] = 0.5;  // must be ignored (clock cell)
  timer.set_instance_weights(weights);
  timer.update_timing();
  // 200 ps clock insertion (the ckroot weight must be ignored) plus the
  // weighted u0 (80 ps) and unweighted u1 (100 ps).
  const NodeId d2 = timer.graph().node_of_pin(circuit.ff2, 0);
  EXPECT_DOUBLE_EQ(timer.arrival(d2, Mode::Late), 200.0 + 80.0 + 100.0);
  // Early mode unweighted.
  EXPECT_DOUBLE_EQ(timer.arrival(d2, Mode::Early), 200.0 + 200.0);
}

TEST(Timer, WeightClampPreventsNegativeDelay) {
  const ChainCircuit circuit(2);
  Timer timer(*circuit.design, unit_constraints(1000.0));
  std::vector<double> weights(circuit.design->num_instances(), -5.0);
  timer.set_instance_weights(weights);
  timer.update_timing();
  const NodeId out =
      timer.graph().node_of_port(*circuit.design->find_port("out"));
  // Clamped at 0.05x, not negative.
  EXPECT_NEAR(timer.arrival(out, Mode::Late), 2 * 100.0 * 0.05, 1e-9);
}

TEST(Timer, CrprCreditWithDeratedClockTree) {
  const FlopPairCircuit circuit(1);
  TimingConstraints constraints = unit_constraints(1000.0);

  // Give the clock buffers real delay via derating a zero-delay cell is
  // impossible; instead derate produces no effect on 0ps arcs. Use the
  // early/late split on data plus explicit check: credit of the shared
  // root must equal its late-early difference, which is 0 here.
  Timer timer(*circuit.design, constraints);
  timer.update_timing();
  EXPECT_DOUBLE_EQ(timer.check_timing(0).crpr_credit_ps, 0.0);
  EXPECT_DOUBLE_EQ(timer.check_timing(1).crpr_credit_ps, 0.0);
}

TEST(Timer, CrprCreditPositiveWithRealClockDelays) {
  // Default (table-driven) library so clock buffers have real delay.
  const Library lib = make_default_library();
  Design design(lib, "crpr");
  const auto buf = lib.cell_id("BUF_X4");
  const auto dff = lib.cell_id("DFF_X1");
  const auto inv = lib.cell_id("INV_X1");

  const auto clk = design.add_port("CLK", PortDirection::Input, {0, 0});
  const auto clk_net = design.add_net("clk");
  design.connect_port(clk, clk_net);
  const auto root = design.add_instance("root", buf, {10, 10});
  design.connect_pin(root, 0, clk_net);
  const auto trunk = design.add_net("trunk");
  design.connect_pin(root, 1, trunk);

  const auto ba = design.add_instance("ba", buf, {20, 10});
  const auto bb = design.add_instance("bb", buf, {10, 20});
  design.connect_pin(ba, 0, trunk);
  design.connect_pin(bb, 0, trunk);
  const auto neta = design.add_net("neta");
  const auto netb = design.add_net("netb");
  design.connect_pin(ba, 1, neta);
  design.connect_pin(bb, 1, netb);

  const auto ff1 = design.add_instance("ff1", dff, {25, 10});
  const auto ff2 = design.add_instance("ff2", dff, {10, 25});
  design.connect_pin(ff1, 1, neta);
  design.connect_pin(ff2, 1, netb);

  const auto q1 = design.add_net("q1");
  design.connect_pin(ff1, 2, q1);
  const auto u = design.add_instance("u", inv, {18, 18});
  design.connect_pin(u, 0, q1);
  const auto n1 = design.add_net("n1");
  design.connect_pin(u, 1, n1);
  design.connect_pin(ff2, 0, n1);

  const auto q2 = design.add_net("q2");
  design.connect_pin(ff2, 2, q2);
  const auto out = design.add_port("out", PortDirection::Output, {0, 30});
  design.connect_port(out, q2);
  const auto din = design.add_port("din", PortDirection::Input, {30, 0});
  const auto dnet = design.add_net("dnet");
  design.connect_port(din, dnet);
  design.connect_pin(ff1, 0, dnet);
  design.validate();

  TimingConstraints constraints;
  constraints.clock_period_ps = 2000.0;
  Timer timer(design, constraints);
  // Apply a late/early split on the clock cells so the shared root
  // contributes pessimism that CRPR can win back.
  std::vector<DeratePair> derates(design.num_instances(), DeratePair{});
  derates[root] = {1.2, 0.9};
  derates[ba] = {1.2, 0.9};
  derates[bb] = {1.2, 0.9};
  timer.set_instance_derates(derates);
  timer.update_timing();

  // FF2's check: launches come only from FF1; common path = root buffer.
  const auto check2 = timer.graph().check_at(
      timer.graph().node_of_pin(ff2, 0));
  ASSERT_TRUE(check2.has_value());
  const double credit = timer.check_timing(*check2).crpr_credit_ps;
  EXPECT_GT(credit, 0.0);

  // Exact pair credit for (ff1 -> ff2) equals the GBA credit here (single
  // launcher), and the self-pair credit (ff2 -> ff2) covers the longer
  // shared prefix.
  const auto check1 = timer.graph().check_at(
      timer.graph().node_of_pin(ff1, 0));
  ASSERT_TRUE(check1.has_value());
  EXPECT_DOUBLE_EQ(timer.crpr_credit_exact(check1, *check2), credit);
  EXPECT_GT(timer.crpr_credit_exact(check2, *check2), credit);

  // FF1's check is launched from the din port: zero credit.
  EXPECT_DOUBLE_EQ(timer.check_timing(*check1).crpr_credit_ps, 0.0);

  // CRPR can only help: slack with credit >= slack without.
  TimingConstraints no_crpr = constraints;
  no_crpr.enable_crpr = false;
  Timer timer2(design, no_crpr);
  timer2.set_instance_derates(derates);
  timer2.update_timing();
  const auto check2b = timer2.graph().check_at(
      timer2.graph().node_of_pin(ff2, 0));
  EXPECT_GE(timer.check_timing(*check2).setup_slack_ps,
            timer2.check_timing(*check2b).setup_slack_ps);
}

TEST(Timer, WorstSlewPropagationTakesMax) {
  GeneratedStack stack(small_options(3));
  Timer& timer = *stack.timer;
  const TimingGraph& graph = timer.graph();
  // For every node with multiple fanin, the late slew equals the max of
  // the fanin arc evaluations.
  std::size_t multi_fanin_checked = 0;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (graph.fanin(n).size() < 2) continue;
    double expected = -1.0;
    for (const ArcId a : graph.fanin(n)) {
      const ArcTiming t = timer.delay_calc().evaluate(
          graph, a, timer.slew(graph.arc(a).from, Mode::Late));
      expected = std::max(expected, t.slew_ps);
    }
    ASSERT_NEAR(timer.slew(n, Mode::Late), expected, 1e-9);
    ++multi_fanin_checked;
  }
  EXPECT_GT(multi_fanin_checked, 10u);
}

TEST(Timer, EarlyArrivalNeverExceedsLate) {
  GeneratedStack stack(small_options(4));
  const Timer& timer = *stack.timer;
  for (NodeId n = 0; n < timer.graph().num_nodes(); ++n) {
    EXPECT_LE(timer.arrival(n, Mode::Early), timer.arrival(n, Mode::Late) + 1e-9);
  }
}

TEST(Timer, WnsTnsConsistent) {
  GeneratedStack stack(small_options(5), /*clock_period_ps=*/1200.0);
  const Timer& timer = *stack.timer;
  double wns = 0.0, tns = 0.0;
  std::size_t violations = 0;
  for (const NodeId e : timer.graph().endpoints()) {
    const double s = timer.slack(e, Mode::Late);
    wns = std::min(wns, s);
    if (s < 0) {
      tns += s;
      ++violations;
    }
  }
  EXPECT_DOUBLE_EQ(timer.wns(Mode::Late), wns);
  EXPECT_DOUBLE_EQ(timer.tns(Mode::Late), tns);
  EXPECT_EQ(timer.num_violations(Mode::Late), violations);
  EXPECT_GT(violations, 0u) << "test period should create violations";
}

TEST(Timer, WorstPathEndsAtLaunchAndMatchesArrival) {
  GeneratedStack stack(small_options(6), 1200.0);
  const Timer& timer = *stack.timer;
  const TimingGraph& graph = timer.graph();
  for (const NodeId e : graph.endpoints()) {
    const auto path = timer.worst_path(e);
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.back(), e);
    EXPECT_TRUE(graph.fanin(path.front()).empty());
    // Arrival accumulates along the worst fanins, so consecutive arrivals
    // are non-decreasing in late mode along the data portion.
  }
}

class IncrementalTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalTest, IncrementalMatchesFullAfterResizes) {
  GeneratedStack stack(small_options(GetParam()), 2000.0);
  Timer& timer = *stack.timer;
  Design& design = stack.design();
  const Library& lib = design.library();

  Rng rng(GetParam() * 77 + 1);
  // Resize a handful of random sizable instances, updating incrementally.
  std::size_t resized = 0;
  for (std::size_t attempt = 0; attempt < 60 && resized < 12; ++attempt) {
    const auto inst = static_cast<InstanceId>(
        rng.uniform_index(design.num_instances()));
    const LibCell& cell = design.cell_of(inst);
    if (cell.kind == CellKind::FlipFlop) continue;
    const NodeId out = timer.graph().node_of_pin(
        inst, static_cast<std::uint32_t>(cell.output_pin()));
    if (out == kInvalidNode || timer.graph().node(out).is_clock_network) {
      continue;
    }
    const auto family = lib.footprint_family(cell.footprint);
    const std::size_t new_cell =
        family[rng.uniform_index(family.size())];
    design.resize_instance(inst, new_cell);
    timer.invalidate_instance(inst);
    timer.update_timing();
    ++resized;
  }
  ASSERT_GT(resized, 0u);
  EXPECT_GT(timer.incremental_updates(), 0u);

  // Reference: a fresh timer over the mutated design.
  Timer reference(design, timer.constraints());
  reference.set_instance_derates(
      compute_gba_derates(reference.graph(), stack.table));
  reference.update_timing();

  ASSERT_EQ(reference.graph().num_nodes(), timer.graph().num_nodes());
  for (NodeId n = 0; n < timer.graph().num_nodes(); ++n) {
    EXPECT_NEAR(timer.arrival(n, Mode::Late), reference.arrival(n, Mode::Late),
                1e-6);
    EXPECT_NEAR(timer.arrival(n, Mode::Early),
                reference.arrival(n, Mode::Early), 1e-6);
    EXPECT_NEAR(timer.slew(n, Mode::Late), reference.slew(n, Mode::Late),
                1e-6);
  }
  for (const NodeId e : timer.graph().endpoints()) {
    EXPECT_NEAR(timer.slack(e, Mode::Late), reference.slack(e, Mode::Late),
                1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(Timer, RebuildAfterBufferInsertConsistent) {
  GeneratedStack stack(small_options(9), 2000.0);
  Timer& timer = *stack.timer;
  Design& design = stack.design();

  // Find a data net with sinks and splice a buffer in.
  NetId target = kInvalidId;
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (!net.driver || net.sinks.empty()) continue;
    if (net.name.rfind("n_", 0) == 0) {
      target = static_cast<NetId>(n);
      break;
    }
  }
  ASSERT_NE(target, kInvalidId);
  design.insert_buffer(target, *design.library().smallest_buffer(), "b0",
                       {1.0, 1.0});
  timer.rebuild_graph();
  timer.set_instance_derates(compute_gba_derates(timer.graph(), stack.table));
  timer.update_timing();

  // The rebuild carried the memo of every unchanged arc; the result must
  // still be bit-identical to a timer that evaluated every arc afresh.
  Timer reference(design, timer.constraints());
  reference.set_instance_derates(
      compute_gba_derates(reference.graph(), stack.table));
  reference.update_timing();
  EXPECT_TRUE(same_bits(state_signature(timer), state_signature(reference)));
}

TEST(Timer, DisablingIncrementalMatchesIncrementalResults) {
  // Same mutations with and without the incremental path must agree.
  GeneratedStack a(small_options(201), 2000.0);
  GeneratedStack b(small_options(201), 2000.0);
  b.timer->set_incremental_enabled(false);

  for (const char* name : {"g_10", "g_50", "g_100"}) {
    const auto inst = a.design().find_instance(name);
    ASSERT_TRUE(inst.has_value());
    const auto family = a.design().library().footprint_family(
        a.design().cell_of(*inst).footprint);
    a.design().resize_instance(*inst, family.back());
    b.design().resize_instance(*inst, family.back());
    a.timer->invalidate_instance(*inst);
    b.timer->invalidate_instance(*inst);
    a.timer->update_timing();
    b.timer->update_timing();
  }
  EXPECT_GT(a.timer->incremental_updates(), 0u);
  EXPECT_EQ(b.timer->incremental_updates(), 0u);
  EXPECT_NEAR(a.timer->wns(Mode::Late), b.timer->wns(Mode::Late), 1e-6);
  EXPECT_NEAR(a.timer->tns(Mode::Late), b.timer->tns(Mode::Late), 1e-6);
}

TEST(Timer, ClockCellResizeRecomputesCrpr) {
  // Resizing a clock buffer changes the late-early spread on the shared
  // clock path; the cached CRPR credits must be refreshed (full update).
  GeneratedStack stack(small_options(203), 2000.0);
  Timer& timer = *stack.timer;
  Design& design = stack.design();

  InstanceId clock_buf = kInvalidId;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    const LibCell& cell = design.cell_of(id);
    if (cell.kind != CellKind::Buffer) continue;
    const NodeId out = timer.graph().node_of_pin(
        id, static_cast<std::uint32_t>(cell.output_pin()));
    if (out != kInvalidNode && timer.graph().node(out).is_clock_network) {
      clock_buf = id;
      break;
    }
  }
  ASSERT_NE(clock_buf, kInvalidId);

  const auto family = design.library().footprint_family("BUF");
  design.resize_instance(clock_buf, family.front());  // weakest buffer
  timer.invalidate_instance(clock_buf);
  timer.update_timing();

  Timer reference(design, timer.constraints());
  reference.set_instance_derates(
      compute_gba_derates(reference.graph(), stack.table));
  reference.update_timing();
  for (std::size_t c = 0; c < timer.graph().checks().size(); ++c) {
    EXPECT_NEAR(timer.check_timing(c).crpr_credit_ps,
                reference.check_timing(c).crpr_credit_ps, 1e-6);
    EXPECT_NEAR(timer.check_timing(c).setup_slack_ps,
                reference.check_timing(c).setup_slack_ps, 1e-6);
  }
}

TEST(Timer, MemoryStatsSane) {
  GeneratedStack stack(small_options(606));
  const Timer& timer = *stack.timer;
  const Timer::MemoryStats m = timer.memory_stats();
  EXPECT_EQ(m.num_nodes, static_cast<std::size_t>(timer.graph().num_nodes()));
  EXPECT_EQ(m.arena_bytes, timer.timing_storage_bytes());
  EXPECT_GT(m.arena_bytes_per_lane, 0u);
  EXPECT_GT(m.delay_cache_entries, 0u);
  EXPECT_GE(m.total_bytes(), m.arena_bytes);
  EXPECT_FALSE(m.to_string().empty());
}

TEST(Timer, LaunchSetsGatedOnCrpr) {
  auto options = small_options(607);
  GeneratedStack with_crpr(options);
  EXPECT_GT(with_crpr.timer->memory_stats().launch_set_bytes, 0u);

  // CRPR off: the per-endpoint launch bitsets are never built. At 1M+
  // instances those sets are tens of GB — this gate is what lets designs
  // of that size fit in memory.
  GeneratedDesign gen = generate_design(with_crpr.library, options);
  TimingConstraints constraints;
  constraints.clock_port = gen.clock_port;
  constraints.clock_period_ps = 4000.0;
  constraints.enable_crpr = false;
  Timer timer(gen.design, constraints);
  timer.update_timing();
  EXPECT_EQ(timer.memory_stats().launch_set_bytes, 0u);
}

TEST(Report, SlackHistogramRenders) {
  GeneratedStack stack(small_options(202), 1500.0);
  const std::string text = report_slack_histogram(*stack.timer, 8);
  EXPECT_NE(text.find("endpoint setup slack histogram"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);
}

TEST(Report, SummaryAndEndpointsRender) {
  GeneratedStack stack(small_options(10), 1500.0);
  const std::string summary = report_summary(*stack.timer, Mode::Late);
  EXPECT_NE(summary.find("WNS="), std::string::npos);
  const std::string endpoints = report_endpoints(*stack.timer, 3);
  EXPECT_NE(endpoints.find("slack"), std::string::npos);
  const NodeId e = stack.timer->graph().endpoints().front();
  const std::string path = report_worst_path(*stack.timer, e);
  EXPECT_NE(path.find("worst path"), std::string::npos);
}

}  // namespace
}  // namespace mgba
