#include <gtest/gtest.h>

#include <sstream>

#include "liberty/default_library.hpp"
#include "netlist/design.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist_io.hpp"
#include "sta/timer.hpp"

namespace mgba {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  Library lib_ = make_default_library();
};

TEST_F(NetlistTest, AddAndConnect) {
  Design d(lib_, "t");
  const auto inv = d.add_instance("u1", lib_.cell_id("INV_X1"), {1.0, 2.0});
  const auto in = d.add_port("in", PortDirection::Input);
  const auto out = d.add_port("out", PortDirection::Output);
  const auto n1 = d.add_net("n1");
  const auto n2 = d.add_net("n2");
  d.connect_port(in, n1);
  d.connect_pin(inv, 0, n1);
  d.connect_pin(inv, 1, n2);
  d.connect_port(out, n2);
  d.validate();

  EXPECT_EQ(d.net(n1).driver->kind, Terminal::Kind::Port);
  EXPECT_EQ(d.net(n1).sinks.size(), 1u);
  EXPECT_EQ(d.net(n2).driver->kind, Terminal::Kind::InstancePin);
  EXPECT_EQ(d.instance(inv).location.x, 1.0);
}

TEST_F(NetlistTest, DisconnectPin) {
  Design d(lib_, "t");
  const auto inv = d.add_instance("u1", lib_.cell_id("INV_X1"));
  const auto n1 = d.add_net("n1");
  d.connect_pin(inv, 0, n1);
  d.disconnect_pin(inv, 0);
  EXPECT_TRUE(d.net(n1).sinks.empty());
  EXPECT_EQ(d.instance(inv).pin_nets[0], kInvalidId);
  d.validate();
}

TEST_F(NetlistTest, ResizeKeepsConnectivity) {
  Design d(lib_, "t");
  const auto g = d.add_instance("u1", lib_.cell_id("NAND2_X1"));
  const auto n = d.add_net("n");
  d.connect_pin(g, 0, n);
  d.resize_instance(g, lib_.cell_id("NAND2_X8"));
  EXPECT_EQ(d.cell_of(g).name, "NAND2_X8");
  EXPECT_EQ(d.instance(g).pin_nets[0], n);
  d.validate();
}

TEST_F(NetlistTest, InsertBufferMovesSinks) {
  Design d(lib_, "t");
  const auto drv = d.add_instance("drv", lib_.cell_id("INV_X1"));
  const auto s1 = d.add_instance("s1", lib_.cell_id("INV_X1"));
  const auto s2 = d.add_instance("s2", lib_.cell_id("INV_X1"));
  const auto n = d.add_net("n");
  d.connect_pin(drv, 1, n);
  d.connect_pin(s1, 0, n);
  d.connect_pin(s2, 0, n);

  const auto buf =
      d.insert_buffer(n, *lib_.smallest_buffer(), "buf0", {5.0, 5.0});
  d.validate();
  // Original net now drives only the buffer input.
  ASSERT_EQ(d.net(n).sinks.size(), 1u);
  EXPECT_EQ(d.net(n).sinks[0].id, buf);
  // Buffer output net carries both original sinks.
  const NetId out_net = d.instance(buf).pin_nets[1];
  EXPECT_EQ(d.net(out_net).sinks.size(), 2u);
}

TEST_F(NetlistTest, RemoveBufferRestoresNet) {
  Design d(lib_, "t");
  const auto drv = d.add_instance("drv", lib_.cell_id("INV_X1"));
  const auto s1 = d.add_instance("s1", lib_.cell_id("INV_X1"));
  const auto n = d.add_net("n");
  d.connect_pin(drv, 1, n);
  d.connect_pin(s1, 0, n);

  const double area_before = d.total_area();
  const auto buf =
      d.insert_buffer(n, *lib_.smallest_buffer(), "buf0", {0.0, 0.0});
  d.remove_buffer(buf, n);
  d.validate();
  ASSERT_EQ(d.net(n).sinks.size(), 1u);
  EXPECT_EQ(d.net(n).sinks[0].id, s1);
  EXPECT_TRUE(d.is_disconnected(buf));
  // The tombstone buffer does not count toward area.
  EXPECT_DOUBLE_EQ(d.total_area(), area_before);
}

TEST_F(NetlistTest, InsertBufferForSinkMovesOnlyThatSink) {
  Design d(lib_, "t");
  const auto drv = d.add_instance("drv", lib_.cell_id("INV_X1"));
  const auto s1 = d.add_instance("s1", lib_.cell_id("INV_X1"));
  const auto s2 = d.add_instance("s2", lib_.cell_id("INV_X1"));
  const auto n = d.add_net("n");
  d.connect_pin(drv, 1, n);
  d.connect_pin(s1, 0, n);
  d.connect_pin(s2, 0, n);

  const Terminal target = Terminal::instance_pin(s2, 0);
  const auto buf = d.insert_buffer_for_sink(n, target, *lib_.smallest_buffer(),
                                            "b0", {3.0, 3.0});
  d.validate();
  // s1 stays on the original net; s2 moved behind the buffer.
  ASSERT_EQ(d.net(n).sinks.size(), 2u);  // s1 + buffer input
  const NetId out_net = d.instance(buf).pin_nets[1];
  ASSERT_EQ(d.net(out_net).sinks.size(), 1u);
  EXPECT_EQ(d.net(out_net).sinks[0].id, s2);
  EXPECT_EQ(d.instance(s1).pin_nets[0], n);

  // remove_buffer restores s2 onto the original net.
  d.remove_buffer(buf, n);
  d.validate();
  EXPECT_EQ(d.net(n).sinks.size(), 2u);
  EXPECT_EQ(d.instance(s2).pin_nets[0], n);
  EXPECT_TRUE(d.is_disconnected(buf));
}

TEST_F(NetlistTest, InsertBufferForPortSink) {
  Design d(lib_, "t");
  const auto drv = d.add_instance("drv", lib_.cell_id("INV_X1"));
  const auto n = d.add_net("n");
  d.connect_pin(drv, 1, n);
  const auto po = d.add_port("po", PortDirection::Output, {9.0, 9.0});
  d.connect_port(po, n);

  const auto buf = d.insert_buffer_for_sink(
      n, Terminal::port(po), *lib_.smallest_buffer(), "b0", {4.5, 4.5});
  d.validate();
  const NetId out_net = d.instance(buf).pin_nets[1];
  ASSERT_EQ(d.net(out_net).sinks.size(), 1u);
  EXPECT_EQ(d.net(out_net).sinks[0].kind, Terminal::Kind::Port);
  EXPECT_EQ(d.port(po).net, out_net);
}

TEST_F(NetlistTest, DisconnectPort) {
  Design d(lib_, "t");
  const auto in = d.add_port("in", PortDirection::Input);
  const auto out = d.add_port("out", PortDirection::Output);
  const auto n = d.add_net("n");
  d.connect_port(in, n);
  d.connect_port(out, n);
  d.disconnect_port(in);
  EXPECT_FALSE(d.net(n).driver.has_value());
  EXPECT_EQ(d.port(in).net, kInvalidId);
  d.disconnect_port(out);
  EXPECT_TRUE(d.net(n).sinks.empty());
  d.disconnect_port(out);  // no-op when already disconnected
  d.validate();
}

TEST_F(NetlistTest, NetLoadIncludesPinsAndWire) {
  Design d(lib_, "t");
  const auto drv = d.add_instance("drv", lib_.cell_id("INV_X1"), {0.0, 0.0});
  const auto snk = d.add_instance("snk", lib_.cell_id("INV_X4"), {10.0, 0.0});
  const auto n = d.add_net("n");
  d.connect_pin(drv, 1, n);
  d.connect_pin(snk, 0, n);
  const double pin_cap = d.cell_of(snk).pins[0].capacitance_ff;
  EXPECT_DOUBLE_EQ(d.net_load_ff(n, 0.0), pin_cap);
  EXPECT_DOUBLE_EQ(d.net_load_ff(n, 0.2), pin_cap + 0.2 * 10.0);
}

TEST_F(NetlistTest, ManhattanDistance) {
  EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(manhattan({-1, 2}, {1, -2}), 6.0);
}

TEST_F(NetlistTest, FindByName) {
  Design d(lib_, "t");
  d.add_instance("alpha", lib_.cell_id("INV_X1"));
  d.add_net("beta");
  d.add_port("gamma", PortDirection::Input);
  EXPECT_TRUE(d.find_instance("alpha").has_value());
  EXPECT_TRUE(d.find_net("beta").has_value());
  EXPECT_TRUE(d.find_port("gamma").has_value());
  EXPECT_FALSE(d.find_instance("zzz").has_value());
}

TEST_F(NetlistTest, IoRoundTrip) {
  GeneratorOptions opt;
  opt.seed = 3;
  opt.num_gates = 120;
  opt.num_flops = 16;
  opt.num_inputs = 6;
  opt.num_outputs = 6;
  const GeneratedDesign gen = generate_design(lib_, opt);

  const std::string text = netlist_to_string(gen.design);
  const Design reloaded = netlist_from_string(lib_, text);

  EXPECT_EQ(reloaded.num_instances(), gen.design.num_instances());
  EXPECT_EQ(reloaded.num_nets(), gen.design.num_nets());
  EXPECT_EQ(reloaded.num_ports(), gen.design.num_ports());
  // Second serialization must be byte-identical (stable round-trip).
  EXPECT_EQ(netlist_to_string(reloaded), text);
}

TEST_F(NetlistTest, IoRoundTripWithTombstoneBuffer) {
  // A design that went through insert_buffer + remove_buffer carries a
  // fully disconnected instance; the text format must round-trip it.
  Design d(lib_, "t");
  const auto drv = d.add_instance("drv", lib_.cell_id("INV_X1"));
  const auto s1 = d.add_instance("s1", lib_.cell_id("INV_X1"));
  const auto n = d.add_net("n");
  d.connect_pin(drv, 1, n);
  d.connect_pin(s1, 0, n);
  const auto buf = d.insert_buffer(n, *lib_.smallest_buffer(), "b0", {});
  d.remove_buffer(buf, n);
  d.validate();

  const Design reloaded = netlist_from_string(lib_, netlist_to_string(d));
  EXPECT_EQ(reloaded.num_instances(), d.num_instances());
  EXPECT_TRUE(reloaded.is_disconnected(*reloaded.find_instance("b0")));
  EXPECT_DOUBLE_EQ(reloaded.total_area(), d.total_area());
}

TEST_F(NetlistTest, IoParsesCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "design t\n"
      "\n"
      "port a input 0 0\n"
      "net n\n"
      "pconn a n\n";
  const Design d = netlist_from_string(lib_, text);
  EXPECT_EQ(d.num_ports(), 1u);
  EXPECT_EQ(d.net(0).driver->kind, Terminal::Kind::Port);
}

class GeneratorParamTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorParamTest, BenchmarkDesignsAreValid) {
  const Library lib = make_default_library();
  GeneratorOptions opt = benchmark_design_options(GetParam());
  // Shrink for test runtime; structure knobs stay as configured.
  opt.num_gates = std::min<std::size_t>(opt.num_gates, 800);
  opt.num_flops = std::min<std::size_t>(opt.num_flops, 64);
  const GeneratedDesign gen = generate_design(lib, opt);
  gen.design.validate();

  EXPECT_GE(gen.design.num_instances(), opt.num_gates + opt.num_flops);
  EXPECT_GE(gen.design.num_ports(), opt.num_inputs + opt.num_outputs + 1);
  // Every net with a driver; every FF fully connected.
  std::size_t ff_count = 0;
  for (std::size_t i = 0; i < gen.design.num_instances(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (gen.design.cell_of(id).kind != CellKind::FlipFlop) continue;
    ++ff_count;
    for (const NetId n : gen.design.instance(id).pin_nets) {
      EXPECT_NE(n, kInvalidId);
    }
  }
  EXPECT_EQ(ff_count, opt.num_flops);
}

TEST_P(GeneratorParamTest, GenerationIsDeterministic) {
  const Library lib = make_default_library();
  GeneratorOptions opt = benchmark_design_options(GetParam());
  opt.num_gates = 300;
  opt.num_flops = 32;
  const GeneratedDesign a = generate_design(lib, opt);
  const GeneratedDesign b = generate_design(lib, opt);
  EXPECT_EQ(netlist_to_string(a.design), netlist_to_string(b.design));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratorParamTest,
                         ::testing::Range(1, 11));

TEST(Generator, NoFloatingGateOutputs) {
  const Library lib = make_default_library();
  GeneratorOptions opt;
  opt.seed = 5;
  opt.num_gates = 400;
  opt.num_flops = 40;
  const GeneratedDesign gen = generate_design(lib, opt);
  for (std::size_t n = 0; n < gen.design.num_nets(); ++n) {
    const Net& net = gen.design.net(static_cast<NetId>(n));
    if (net.driver.has_value()) {
      EXPECT_FALSE(net.sinks.empty()) << "floating net " << net.name;
    }
  }
}

TEST(Generator, ScaledDesignSmoke) {
  // The end-to-end benchmark's designs come from scaled_design_options.
  const GeneratorOptions options = scaled_design_options(20000, 5);
  const Library library = make_default_library();
  GeneratedDesign gen = generate_design(library, options);
  // Within a few percent of the target (clock buffers and pads ride along).
  const std::size_t n = gen.design.num_instances();
  EXPECT_GE(n, 19000u);
  EXPECT_LE(n, 22000u);

  TimingConstraints constraints;
  constraints.clock_port = gen.clock_port;
  constraints.clock_period_ps = 4000.0;
  constraints.enable_crpr = false;
  Timer timer(gen.design, constraints);
  timer.update_timing();
  EXPECT_GT(timer.wns(Mode::Late), -1e9);
}

}  // namespace
}  // namespace mgba
