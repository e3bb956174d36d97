#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "aocv/corner_io.hpp"
#include "opt/optimizer.hpp"
#include "opt/qor.hpp"
#include "sta/state_signature.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

TEST(Qor, MeasureMatchesTimer) {
  GeneratedStack stack(small_options(81), 1500.0);
  const QorMetrics qor = measure_qor(*stack.timer);
  EXPECT_DOUBLE_EQ(qor.wns_ps, stack.timer->wns(Mode::Late));
  EXPECT_DOUBLE_EQ(qor.tns_ps, stack.timer->tns(Mode::Late));
  EXPECT_DOUBLE_EQ(qor.area_um2, stack.design().total_area());
  EXPECT_GT(qor.buffer_count, 0u);  // clock tree + generated buffers
  EXPECT_NE(qor.to_string().find("WNS="), std::string::npos);
}

TEST(Qor, GoldenQorLessPessimisticThanGba) {
  GeneratedStack stack(small_options(82), 1500.0);
  const QorMetrics gba = measure_qor(*stack.timer);
  const QorMetrics golden = measure_golden_qor(*stack.timer, stack.table);
  EXPECT_GE(golden.wns_ps, gba.wns_ps - 1e-6);
  EXPECT_GE(golden.tns_ps, gba.tns_ps - 1e-6);
  EXPECT_LE(golden.violations, gba.violations);
}

TEST(Optimizer, ImprovesTnsOnViolatedDesign) {
  GeneratedStack stack(small_options(83), 1500.0);
  OptimizerOptions options;
  options.max_passes = 6;
  options.endpoints_per_pass = 8;
  options.enable_area_recovery = false;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  EXPECT_LT(report.initial.tns_ps, 0.0);
  EXPECT_GE(report.final_qor.tns_ps, report.initial.tns_ps);
  EXPECT_GT(report.upsizes + report.buffers_inserted, 0u);
  stack.design().validate();
}

TEST(Optimizer, AreaRecoveryIsTimingNeutral) {
  GeneratedStack stack(small_options(84), 2200.0);
  OptimizerOptions options;
  options.max_passes = 2;
  options.enable_area_recovery = true;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  // Recovery must not create new violations beyond tolerance.
  EXPECT_GE(report.final_qor.tns_ps,
            report.initial.tns_ps - 1.0 * static_cast<double>(
                report.downsizes + 1));
  if (report.downsizes > 0) {
    EXPECT_LT(report.final_qor.area_um2, report.initial.area_um2 + 1e-9);
  }
  stack.design().validate();
}

/// Records every resize a TimingCloser reports, in order.
struct ResizeLog : TransformListener {
  struct Event {
    InstanceId inst;
    std::size_t from;
    std::size_t to;
  };
  std::vector<Event> events;
  void on_resize(InstanceId inst, std::size_t from, std::size_t to) override {
    events.push_back({inst, from, to});
  }
  void on_buffer_inserted(InstanceId, NetId, const Terminal&, std::size_t,
                          Point) override {}
  void on_buffer_removed(InstanceId, NetId) override {}
};

TEST(Optimizer, AreaRecoveryRevertsMatchParent) {
  // Area recovery alone (no closure passes, so every resize is a recovery
  // resize) on two seeded 600-gate designs, with no slack margin, clocked
  // tight enough that the downsizing sweep breaks paths and the repair
  // loop reverts gates on them. Each revert restores the cell its round's
  // sweep replaced, at most once per instance and round. The event count,
  // reverts, downsizes and the final area and TNS bits are pinned to what
  // the linear-scan revert loop, which the per-instance slots replaced,
  // produced.
  struct Pinned {
    std::uint64_t seed;
    double period_ps;
    std::size_t events;
    std::size_t reverts;
    std::size_t downsizes;
    std::uint64_t area_bits;
    std::uint64_t tns_bits;
  };
  const Pinned cases[] = {
      {89, 2600.0, 265, 31, 203, 0x4096d8f5c28f5c3a, 0xc096335c3e95b8e0},
      {90, 3000.0, 300, 40, 220, 0x4095bfae147ae159, 0x0},
  };
  for (const Pinned& pin : cases) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    GeneratorOptions generator = small_options(pin.seed);
    generator.num_gates = 600;
    GeneratedStack stack(generator, pin.period_ps);
    OptimizerOptions options;
    options.max_passes = 0;
    options.enable_area_recovery = true;
    options.recovery_margin_ps = 0.0;
    TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
    ResizeLog log;
    closer.set_transform_listener(&log);
    const OptimizerReport report = closer.run();

    // A resize to a smaller cell is a sweep downsize; one after a revert
    // opens the next round.
    const Library& library = stack.library;
    std::map<InstanceId, ResizeLog::Event> swept;
    std::set<InstanceId> reverted;
    bool repairing = false;
    std::size_t reverts = 0;
    for (const ResizeLog::Event& e : log.events) {
      if (library.cell(e.to).area_um2 < library.cell(e.from).area_um2) {
        if (repairing) {
          swept.clear();
          reverted.clear();
          repairing = false;
        }
        swept[e.inst] = e;
        continue;
      }
      repairing = true;
      ++reverts;
      const auto it = swept.find(e.inst);
      ASSERT_NE(it, swept.end()) << "instance " << e.inst;
      EXPECT_EQ(e.from, it->second.to) << "instance " << e.inst;
      EXPECT_EQ(e.to, it->second.from) << "instance " << e.inst;
      EXPECT_TRUE(reverted.insert(e.inst).second) << "instance " << e.inst;
    }
    EXPECT_GT(reverts, 0u);
    EXPECT_EQ(log.events.size(), pin.events);
    EXPECT_EQ(reverts, pin.reverts);
    EXPECT_EQ(report.downsizes, pin.downsizes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.final_qor.area_um2),
              pin.area_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.final_qor.tns_ps),
              pin.tns_bits);
  }
}

TEST(Optimizer, SizingDisabledMeansNoResizes) {
  GeneratedStack stack(small_options(85), 1500.0);
  OptimizerOptions options;
  options.max_passes = 3;
  options.enable_sizing = false;
  options.enable_area_recovery = false;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  EXPECT_EQ(report.upsizes, 0u);
  EXPECT_EQ(report.downsizes, 0u);
}

TEST(Optimizer, MgbaFlowRunsEmbedded) {
  GeneratedStack stack(small_options(86), 1500.0);
  OptimizerOptions options;
  options.max_passes = 4;
  options.endpoints_per_pass = 8;
  options.use_mgba = true;
  options.mgba_refresh_passes = 2;
  options.mgba_options.candidate_paths_per_endpoint = 8;
  options.mgba_options.paths_per_endpoint = 8;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  EXPECT_GT(report.mgba_seconds, 0.0);
  stack.design().validate();
}

TEST(Optimizer, MgbaFlowEndsWithNoMoreAreaThanGbaFlow) {
  // The paper's Table 2 direction: the less-pessimistic slack source
  // never requires *more* fixing effort on the same design.
  const auto run_flow = [](bool use_mgba) {
    GeneratedStack stack(small_options(87), 1500.0);
    OptimizerOptions options;
    options.max_passes = 6;
    options.endpoints_per_pass = 8;
    options.use_mgba = use_mgba;
    options.mgba_options.candidate_paths_per_endpoint = 8;
    options.mgba_options.paths_per_endpoint = 8;
    options.enable_area_recovery = false;
    TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
    return closer.run();
  };
  const OptimizerReport gba = run_flow(false);
  const OptimizerReport mgba = run_flow(true);
  EXPECT_LE(mgba.final_qor.area_um2, gba.final_qor.area_um2 * 1.01);
}

TEST(Optimizer, ChooseClockPeriodScalesWithUtilization) {
  GeneratedStack stack(small_options(88), 1e9);
  const double loose = choose_clock_period(*stack.timer, stack.table, 0.5);
  const double tight = choose_clock_period(*stack.timer, stack.table, 1.2);
  EXPECT_GT(loose, tight);
  EXPECT_GT(tight, 0.0);
}

TEST(Optimizer, BufferRevertKeepsDesignValid) {
  GeneratedStack stack(small_options(89), 1500.0);
  OptimizerOptions options;
  options.max_passes = 5;
  options.enable_sizing = false;  // force the buffering path
  options.buffer_wire_threshold_ps = 0.5;
  options.enable_area_recovery = false;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  (void)report;
  stack.design().validate();
}

TEST(Optimizer, RejectedUpsizesRepropagateExactly) {
  // An upsize trial opens no checkpoint: a rejected one is resized back
  // and re-propagated by the next update on the incremental frontier.
  // With an improvement bar no upsize clears, every trial is rejected and
  // the design ends where it began; the timing state must equal a Timer
  // built from scratch on it, bit for bit, at 1 and 4 threads.
  const std::size_t saved_threads = num_threads();
  for (const std::uint64_t seed : {91u, 313u, 343u}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(threads) + " thread(s)");
      set_num_threads(threads);
      GeneratedStack stack(small_options(seed), 1500.0);
      OptimizerOptions options;
      options.min_improvement_ps = 1e9;
      options.enable_buffering = false;
      options.enable_area_recovery = false;
      TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
      const OptimizerReport report = closer.run();
      EXPECT_EQ(report.upsizes, 0u);
      EXPECT_GT(report.transforms_attempted, 0u);
      EXPECT_EQ(stack.timer->update_stats().trial_rollbacks, 0u);

      Timer fresh(stack.design(), stack.timer->constraints());
      fresh.set_instance_derates(
          compute_gba_derates(fresh.graph(), stack.table));
      fresh.update_timing();
      EXPECT_TRUE(
          same_bits(state_signature(*stack.timer), state_signature(fresh)));
    }
  }
  set_num_threads(saved_threads);
}

TEST(Optimizer, PatchedBufferTrialsMatchFullAnalysis) {
  // Buffer trials patch the graph, the timer's tables, the depth state and
  // the installed derates. After a buffering-only closure — one corner,
  // then two with their own tables — every corner's derates equal
  // compute_gba_derates on the final graph bit for bit, and the timing
  // state equals a Timer built from scratch.
  for (const bool two_corners : {false, true}) {
    SCOPED_TRACE(two_corners ? "two corners" : "one corner");
    GeneratorOptions generator = small_options(91);
    generator.num_gates = 600;
    GeneratedStack stack(generator, 1500.0);
    std::vector<CornerSetup> setups;
    if (two_corners) {
      setups = corners_from_string(
          "corner slow delay 1.15 slew 1.05 derate_margin 1.3\n"
          "corner fast delay 0.85 derate_margin 0.7\n",
          stack.table);
      apply_corner_setups(*stack.timer, setups);
    }
    OptimizerOptions options;
    options.max_passes = 6;
    options.enable_sizing = false;
    options.buffer_wire_threshold_ps = 0.5;
    options.enable_area_recovery = false;
    TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
    if (two_corners) closer.set_corner_setups(setups);
    const OptimizerReport report = closer.run();
    EXPECT_GT(report.buffers_inserted, 0u);
    EXPECT_GT(report.buffers_reverted, 0u);

    // A rolled-back trial reinstalls the shorter pre-trial vector; the
    // instances past its end (tombstones) read as identity.
    const Timer& timer = *stack.timer;
    for (CornerId c = 0; c < timer.num_corners(); ++c) {
      const std::vector<DeratePair> want = compute_gba_derates(
          timer.graph(), two_corners ? setups[c].table : stack.table);
      for (InstanceId i = 0; i < want.size(); ++i) {
        const DeratePair got = timer.instance_derate(i, c);
        ASSERT_EQ(std::memcmp(&got, &want[i], sizeof(DeratePair)), 0)
            << "corner " << c << " instance " << i;
      }
    }
    Timer fresh(stack.design(), timer.constraints());
    if (two_corners) {
      apply_corner_setups(fresh, setups);
    } else {
      fresh.set_instance_derates(
          compute_gba_derates(fresh.graph(), stack.table));
    }
    fresh.update_timing();
    EXPECT_TRUE(same_bits(state_signature(timer), state_signature(fresh)));
  }
}

// --- MCMM refit sessions ----------------------------------------------------
//
// The closer runs one MgbaRefitSession per corner on one Timer. Each must
// see every change since its own last fit, whatever the other corners'
// sessions did in between.

std::vector<CornerSetup> two_test_corners(const DerateTable& table) {
  return corners_from_string(
      "corner slow delay 1.15 slew 1.05 derate_margin 1.3\n"
      "corner fast delay 0.85 derate_margin 0.7\n",
      table);
}

TEST(Optimizer, McmmBufferingRefitsEveryCornerCold) {
  // A buffer insertion renumbers the graph under every corner's cached
  // rows, so after a buffering pass every session refits cold — corner 1's
  // as well as corner 0's, whose cold fit runs first.
  for (const std::uint64_t seed : {91u, 313u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GeneratorOptions generator = small_options(seed);
    generator.num_gates = 600;
    GeneratedStack stack(generator, 1500.0);
    const std::vector<CornerSetup> setups = two_test_corners(stack.table);
    apply_corner_setups(*stack.timer, setups);
    OptimizerOptions options;
    options.max_passes = 6;
    options.enable_sizing = false;
    options.buffer_wire_threshold_ps = 0.5;
    options.enable_area_recovery = false;
    options.use_mgba = true;
    options.mgba_refresh_passes = 1;
    options.mgba_options.candidate_paths_per_endpoint = 8;
    options.mgba_options.paths_per_endpoint = 8;
    TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
    closer.set_corner_setups(setups);
    const OptimizerReport report = closer.run();
    EXPECT_GT(report.buffers_inserted, 0u);

    const std::vector<RefitStats> stats = closer.mgba_refit_stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_GE(stats[0].cold_rebuilds, 2u);
    EXPECT_EQ(stats[1].cold_rebuilds, stats[0].cold_rebuilds);
    EXPECT_EQ(stats[1].warm_refits, stats[0].warm_refits);
  }
}

TEST(Optimizer, McmmRefitSessionsKeepTheirOwnEcoRecord) {
  // One session per corner, both fit, then one 2-gate ECO: corner 0's
  // refit must not consume the ECO corner 1's refit still owes.
  GeneratorOptions generator = small_options(91);
  generator.num_gates = 600;
  GeneratedStack stack(generator, 1500.0);
  const std::vector<CornerSetup> setups = two_test_corners(stack.table);
  apply_corner_setups(*stack.timer, setups);
  std::vector<MgbaRefitSession> sessions;
  for (std::size_t c = 0; c < setups.size(); ++c) {
    MgbaFlowOptions options;
    options.candidate_paths_per_endpoint = 8;
    options.paths_per_endpoint = 8;
    options.corner = static_cast<CornerId>(c);
    sessions.emplace_back(*stack.timer, setups[c].table, options);
  }
  for (MgbaRefitSession& session : sessions) {
    session.fit();
    ASSERT_TRUE(session.has_fit());
  }

  // The first two data gates with a same-footprint sibling.
  Design& design = stack.design();
  const Library& library = stack.library;
  std::size_t resized = 0;
  for (std::size_t i = 0; i < design.num_instances() && resized < 2; ++i) {
    const auto inst = static_cast<InstanceId>(i);
    const LibCell& cell = design.cell_of(inst);
    if (cell.kind == CellKind::FlipFlop) continue;
    const NodeId out = stack.timer->graph().node_of_pin(
        inst, static_cast<std::uint32_t>(cell.output_pin()));
    if (out == kInvalidNode ||
        stack.timer->graph().node(out).is_clock_network) {
      continue;
    }
    for (std::size_t j = 0; j < library.num_cells(); ++j) {
      if (library.cell(j).footprint != cell.footprint ||
          library.cell(j).name == cell.name) {
        continue;
      }
      design.resize_instance(inst, j);
      stack.timer->invalidate_instance(inst);
      ++resized;
      break;
    }
  }
  ASSERT_EQ(resized, 2u);

  for (MgbaRefitSession& session : sessions) session.refit();
  for (std::size_t c = 0; c < sessions.size(); ++c) {
    SCOPED_TRACE("corner " + std::to_string(c));
    const RefitStats& stats = sessions[c].stats();
    EXPECT_EQ(stats.cold_rebuilds, 0u);
    EXPECT_EQ(stats.warm_refits, 1u);
    EXPECT_EQ(stats.eco_instances, 2u);
  }
}

}  // namespace
}  // namespace mgba
