/// PathEngine tests: the persistent k-best candidate arena must enumerate
/// path sets bitwise identical to a cold PathEnumerator on the same timing
/// version — after cold builds, after randomized warm ECO sequences, in
/// hold (early) mode, across MCMM corners, and at 1 and 4 threads. Pruned
/// worst-path extraction must return exactly the unpruned set, and
/// structural drift (a graph rebuild, which also poisons the refit ECO log)
/// must fall back to a counted cold rebuild. The tier-1 script re-runs the
/// PathEngine* suites under ASan+UBSan and TSan.

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "aocv/aocv_model.hpp"
#include "aocv/corner_io.hpp"
#include "netlist/design.hpp"
#include "pba/path_engine.hpp"
#include "pba/path_enum.hpp"
#include "shell/interpreter.hpp"
#include "sta/timer.hpp"
#include "test_helpers.hpp"
#include "util/float_bits.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

/// Restores the ambient thread count on scope exit so test order doesn't
/// leak configuration across suites.
struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

/// Whole-path bitwise equality: structure, launch check, and the GBA
/// arrival down to the last bit.
void expect_paths_equal(const std::vector<TimingPath>& got,
                        const std::vector<TimingPath>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nodes, want[i].nodes) << what << " path " << i;
    EXPECT_EQ(got[i].arcs, want[i].arcs) << what << " path " << i;
    EXPECT_EQ(got[i].launch_check, want[i].launch_check)
        << what << " path " << i;
    EXPECT_EQ(float_bits(got[i].gba_arrival_ps),
              float_bits(want[i].gba_arrival_ps))
        << what << " path " << i;
  }
}

/// A same-footprint sibling cell the instance can be resized to, or
/// nullopt (flip-flops are excluded; footprint families never mix kinds).
std::optional<std::size_t> sizable_sibling(const Library& library,
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
std::vector<std::pair<InstanceId, std::size_t>> resize_plan(
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

/// Applies a randomized resize sequence, syncing \p engine after every ECO
/// and asserting its whole path set is bitwise a cold enumerator's on the
/// same version.
void run_eco_sequence(GeneratedStack& stack, PathEngine& engine,
                      std::size_t num_ecos, std::uint64_t seed) {
  engine.sync();
  expect_paths_equal(
      engine.all_paths(),
      PathEnumerator(*stack.timer, engine.k(), engine.mode(), engine.corner())
          .all_paths(),
      "cold build");
  for (const auto& [inst, cell] :
       resize_plan(stack.library, stack.design(), num_ecos, seed)) {
    stack.design().resize_instance(inst, cell);
    stack.timer->invalidate_instance(inst);
    engine.sync();  // runs update_timing itself
    expect_paths_equal(engine.all_paths(),
                       PathEnumerator(*stack.timer, engine.k(), engine.mode(),
                                      engine.corner())
                           .all_paths(),
                       "after eco");
  }
}

// --- cold build ------------------------------------------------------------

TEST(PathEngineCold, MatchesEnumeratorPerEndpointAndAllPaths) {
  GeneratedStack stack(small_options(901));
  PathEngine engine(*stack.timer, 8);
  engine.sync();
  const PathEnumerator cold(*stack.timer, 8);
  for (const NodeId e : stack.timer->graph().endpoints()) {
    expect_paths_equal(engine.paths_to(e), cold.paths_to(e), "endpoint");
  }
  expect_paths_equal(engine.all_paths(), cold.all_paths(), "all_paths");
  EXPECT_EQ(engine.stats().cold_builds, 1u);
  EXPECT_EQ(engine.stats().warm_syncs, 0u);
}

TEST(PathEngineCold, RepeatSyncIsNoop) {
  GeneratedStack stack(small_options(902));
  PathEngine engine(*stack.timer, 6);
  engine.sync();
  engine.sync();
  EXPECT_EQ(engine.stats().cold_builds, 1u);
  EXPECT_EQ(engine.stats().noop_syncs, 1u);
  EXPECT_EQ(engine.stats().nodes_recomputed, 0u);
}

// --- warm re-enumeration ---------------------------------------------------

TEST(PathEngineWarm, BitIdentityAfterRandomizedEcos) {
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(911));
    PathEngine engine(*stack.timer, 8);
    run_eco_sequence(stack, engine, 10, 8101);
    EXPECT_GT(engine.stats().warm_syncs, 0u) << threads;
    EXPECT_EQ(engine.stats().cold_fallbacks, 0u) << threads;
    // Warm sweeps touch a cone, not the graph.
    EXPECT_LT(engine.stats().nodes_recomputed,
              engine.stats().warm_syncs * stack.timer->graph().num_nodes())
        << threads;
  }
}

TEST(PathEngineWarm, HoldModeBitIdentity) {
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(912));
    PathEngine engine(*stack.timer, 8, Mode::Early);
    run_eco_sequence(stack, engine, 8, 8102);
    EXPECT_GT(engine.stats().warm_syncs, 0u) << threads;
  }
}

TEST(PathEngineWarm, MultiCornerVariant) {
  GeneratedStack stack(small_options(914));
  const std::vector<CornerSetup> setups = corners_from_string(
      "corner slow delay 1.2\ncorner fast delay 0.8\n", stack.table);
  apply_corner_setups(*stack.timer, setups);
  stack.timer->update_timing();
  PathEngineHub hub(*stack.timer);
  PathEngine& slow = hub.engine(8, Mode::Late, 0);
  PathEngine& fast = hub.engine(8, Mode::Late, 1);
  EXPECT_EQ(hub.num_engines(), 2u);
  slow.sync();
  fast.sync();
  for (const auto& [inst, cell] :
       resize_plan(stack.library, stack.design(), 6, 8104)) {
    stack.design().resize_instance(inst, cell);
    stack.timer->invalidate_instance(inst);
    slow.sync();
    fast.sync();
    expect_paths_equal(slow.all_paths(),
                       PathEnumerator(*stack.timer, 8, Mode::Late, 0)
                           .all_paths(),
                       "slow corner");
    expect_paths_equal(fast.all_paths(),
                       PathEnumerator(*stack.timer, 8, Mode::Late, 1)
                           .all_paths(),
                       "fast corner");
  }
  EXPECT_GT(slow.stats().warm_syncs, 0u);
  EXPECT_GT(fast.stats().warm_syncs, 0u);
}

// --- structural fallback ---------------------------------------------------

TEST(PathEngineFallback, GraphRebuildFallsBackColdAndCounts) {
  GeneratedStack stack(small_options(921));
  Design& design = stack.design();
  PathEngine engine(*stack.timer, 8);
  engine.sync();

  // A data net with an instance driver and at least one sink.
  std::optional<NetId> target;
  for (std::size_t n = 0; n < design.num_nets() && !target; ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    if (net.driver->kind != Terminal::Kind::InstancePin) continue;
    const NodeId driver_node =
        stack.timer->graph().node_of_pin(net.driver->id, net.driver->pin);
    if (stack.timer->graph().node(driver_node).is_clock_network) continue;
    target = static_cast<NetId>(n);
  }
  ASSERT_TRUE(target.has_value());
  const Terminal sink = design.net(*target).sinks[0];  // copy: the insert
                                                       // rewires the net
  const Timer::EcoMark mark = stack.timer->eco_mark();
  design.insert_buffer_for_sink(*target, sink,
                                *stack.library.strongest_buffer(), "pebuf",
                                {0.0, 0.0});
  stack.timer->rebuild_graph();
  stack.timer->set_instance_derates(
      compute_gba_derates(stack.timer->graph(), stack.table));
  stack.timer->update_timing();
  // The same structural edit poisons the ECO record the refit sessions
  // read; the engine's version-diff contract detects it independently and
  // never writes to that record.
  EXPECT_TRUE(stack.timer->eco_poisoned_since(mark));
  const Timer::EcoMark before_sync = stack.timer->eco_mark();

  engine.sync();
  EXPECT_EQ(engine.stats().cold_fallbacks, 1u);
  // The record is left for its owners: still poisoned since their mark,
  // and the sync stamped nothing.
  EXPECT_TRUE(stack.timer->eco_poisoned_since(mark));
  EXPECT_EQ(stack.timer->eco_mark(), before_sync);
  expect_paths_equal(engine.all_paths(),
                     PathEnumerator(*stack.timer, 8).all_paths(),
                     "after rebuild");

  // Value-only ECOs warm-sync again against the rebuilt graph.
  const auto plan = resize_plan(stack.library, design, 1, 8106);
  design.resize_instance(plan[0].first, plan[0].second);
  stack.timer->invalidate_instance(plan[0].first);
  engine.sync();
  EXPECT_EQ(engine.stats().warm_syncs, 1u);
  expect_paths_equal(engine.all_paths(),
                     PathEnumerator(*stack.timer, 8).all_paths(),
                     "warm after rebuild");
}

// --- pruned worst-path extraction ------------------------------------------

TEST(PathEnginePruning, OnOffEqualityAndCounters) {
  GeneratedStack stack(small_options(931));
  PathEngine engine(*stack.timer, 8);
  engine.sync();
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                              std::size_t{100000}}) {
    engine.set_pruning_enabled(true);
    const std::vector<TimingPath> pruned = engine.worst_paths(n);
    engine.set_pruning_enabled(false);
    const std::vector<TimingPath> full = engine.worst_paths(n);
    expect_paths_equal(pruned, full, "worst_paths n=" + std::to_string(n));
  }
  EXPECT_GT(engine.stats().endpoints_pruned, 0u);
  EXPECT_GT(engine.stats().endpoints_backtracked, 0u);
  // Worst-first: slacks are non-decreasing down the list.
  engine.set_pruning_enabled(true);
  const std::vector<TimingPath> worst = engine.worst_paths(5);
  ASSERT_FALSE(worst.empty());
  const TimingSnapshot& snap = *engine.view();
  double prev = -kInfPs;
  for (const TimingPath& path : worst) {
    const double slack =
        snap.required(path.endpoint(), Mode::Late, 0) - path.gba_arrival_ps;
    EXPECT_GE(slack, prev);
    prev = slack;
  }
}

// --- shell surface ----------------------------------------------------------

TEST(PathEngineShell, ReportPathsAndStatsSurfaced) {
  std::ostringstream out;
  shell::ShellInterpreter interp(out);
  ASSERT_TRUE(
      interp.execute_line("read_netlist -gates 300 -seed 7 -period 2200").ok());

  shell::CommandResult r = interp.execute_line("report_paths 3");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_NE(r.output.find("worst 3 paths (k=8, late,"), std::string::npos)
      << r.output;

  // The same engine serves the repeat query warm (version unchanged).
  r = interp.execute_line("report_paths 3");
  ASSERT_TRUE(r.ok()) << r.error;

  r = interp.execute_line("stats");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_NE(r.output.find("path_engine k=8 late c0: cold=1"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("noop=1"), std::string::npos) << r.output;

  // An ECO through the session keeps report_paths warm and consistent.
  ASSERT_TRUE(interp.execute_line("report_paths 3 -no_prune").ok());
}

}  // namespace
}  // namespace mgba
