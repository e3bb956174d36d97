/// PathEngine tests: the persistent k-best candidate tables must enumerate
/// path sets bitwise identical to the reference PathEnumerator on the same
/// timing version — after cold builds at k = 1 up to a k above every
/// node's candidate count, after randomized warm ECO sequences, in hold
/// (early) mode, across MCMM corners, and at 1 and 4 threads. Pruned
/// worst-path extraction must return exactly the brute-force top n, and
/// structural drift (a graph rebuild, which also poisons the refit ECO log)
/// must fall back to a counted cold rebuild. The tier-1 script re-runs the
/// PathEngine* suites under ASan+UBSan and TSan.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
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
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::resize_plan;
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
  ThreadGuard guard;
  GeneratedStack stack(small_options(901));
  // k = 1 holds one record per node. At k = 64 some endpoints fill their
  // block and others stop short; k = 1024 is above every node's candidate
  // count, so every block ends in sentinel slots.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    for (const std::size_t k : {std::size_t{1}, std::size_t{8},
                                std::size_t{64}, std::size_t{1024}}) {
      for (const Mode mode : {Mode::Late, Mode::Early}) {
        const std::string what =
            "k=" + std::to_string(k) +
            (mode == Mode::Late ? " late" : " early") +
            " threads=" + std::to_string(threads);
        PathEngine engine(*stack.timer, k, mode);
        engine.sync();
        const PathEnumerator cold(*stack.timer, k, mode);
        std::size_t most = 0;
        std::size_t short_of_k = 0;
        for (const NodeId e : stack.timer->graph().endpoints()) {
          const std::vector<TimingPath> paths = engine.paths_to(e);
          most = std::max(most, paths.size());
          if (paths.size() < k) ++short_of_k;
          expect_paths_equal(paths, cold.paths_to(e), what + " endpoint");
        }
        if (k == 1024) {
          EXPECT_LT(most, k) << what;
        } else {
          EXPECT_EQ(most, k) << what;
        }
        if (k >= 64) EXPECT_GT(short_of_k, 0u) << what;
        expect_paths_equal(engine.all_paths(), cold.all_paths(),
                           what + " all_paths");
        EXPECT_EQ(engine.stats().cold_builds, 1u) << what;
        EXPECT_EQ(engine.stats().warm_syncs, 0u) << what;
      }
    }
  }
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

  // Brute force: every enumerated path, keyed by (slack, endpoint, rank)
  // and sorted. all_paths() lists each endpoint's paths rank by rank.
  struct Keyed {
    double slack;
    NodeId endpoint;
    std::size_t rank;
    const TimingPath* path;
  };
  const TimingSnapshot& snap = *engine.view();
  const std::vector<TimingPath> all = engine.all_paths();
  std::vector<Keyed> keyed;
  for (const TimingPath& path : all) {
    const NodeId e = path.endpoint();
    const std::size_t rank =
        !keyed.empty() && keyed.back().endpoint == e ? keyed.back().rank + 1
                                                     : 0;
    keyed.push_back({snap.required(e, Mode::Late, 0) - path.gba_arrival_ps,
                     e, rank, &path});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& x, const Keyed& y) {
    return std::tie(x.slack, x.endpoint, x.rank) <
           std::tie(y.slack, y.endpoint, y.rank);
  });

  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                              std::size_t{100000}}) {
    std::vector<TimingPath> want;
    for (std::size_t i = 0; i < std::min(n, keyed.size()); ++i) {
      want.push_back(*keyed[i].path);
    }
    expect_paths_equal(engine.worst_paths(n), want,
                       "worst_paths n=" + std::to_string(n));
  }
  EXPECT_GT(engine.stats().endpoints_pruned, 0u);
  EXPECT_GT(engine.stats().endpoints_backtracked, 0u);
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
}

}  // namespace
}  // namespace mgba
