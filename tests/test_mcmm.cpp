/// Multi-corner (MCMM) tests: corner spec parsing, the scaled_margin table
/// derivation, single-corner bit-identity with the pre-corner engine,
/// worst-corner merge semantics on a hand-built two-corner circuit, and the
/// per-corner mGBA fit / optimizer integration. The tier-1 script re-runs
/// this file under ASan+UBSan (MGBA_SANITIZE=address) so corner-lane
/// indexing bugs in the SoA arena fault instead of aliasing a neighbor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "aocv/corner_io.hpp"
#include "mgba/framework.hpp"
#include "mgba/metrics.hpp"
#include "opt/optimizer.hpp"
#include "opt/qor.hpp"
#include "test_helpers.hpp"

namespace mgba {
namespace {

using testing_helpers::FlopPairCircuit;
using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

// ---------------------------------------------------------------------------
// Corner spec parsing.

TEST(McmmCornerIo, ParsesSpecText) {
  const DerateTable base = default_aocv_table();
  const auto setups = corners_from_string(
      "# a comment line\n"
      "corner slow delay 1.2 slew 1.1 constraint 1.05 derate_margin 1.3\n"
      "\n"
      "corner fast delay 0.8 derate_margin 0.7\n"
      "corner typical\n",
      base);
  ASSERT_EQ(setups.size(), 3u);
  EXPECT_EQ(setups[0].corner.name, "slow");
  EXPECT_DOUBLE_EQ(setups[0].corner.scaling.delay, 1.2);
  EXPECT_DOUBLE_EQ(setups[0].corner.scaling.slew, 1.1);
  EXPECT_DOUBLE_EQ(setups[0].corner.scaling.constraint, 1.05);
  EXPECT_EQ(setups[1].corner.name, "fast");
  EXPECT_DOUBLE_EQ(setups[1].corner.scaling.delay, 0.8);
  EXPECT_DOUBLE_EQ(setups[1].corner.scaling.slew, 1.0);   // omitted -> 1.0
  EXPECT_EQ(setups[2].corner.name, "typical");
  EXPECT_TRUE(setups[2].corner.scaling.is_identity());

  // derate_margin scales the table's variation margin around 1.0.
  const double base_late = base.late(4.0, 500.0);
  EXPECT_NEAR(setups[0].table.late(4.0, 500.0),
              1.0 + (base_late - 1.0) * 1.3, 1e-12);
  EXPECT_NEAR(setups[1].table.late(4.0, 500.0),
              1.0 + (base_late - 1.0) * 0.7, 1e-12);
  // margin omitted -> k = 1, the base table itself.
  EXPECT_DOUBLE_EQ(setups[2].table.late(4.0, 500.0), base_late);
  const double base_early = base.early(4.0, 500.0);
  EXPECT_NEAR(setups[0].table.early(4.0, 500.0),
              1.0 - (1.0 - base_early) * 1.3, 1e-12);
}

TEST(McmmCornerIo, ReadCornersFromStream) {
  const DerateTable base = default_aocv_table();
  std::istringstream in("corner ss delay 1.1\ncorner ff delay 0.9\n");
  const auto setups = read_corners(in, base, "two.corners");
  ASSERT_EQ(setups.size(), 2u);
  EXPECT_EQ(setups[0].corner.name, "ss");
  EXPECT_EQ(setups[1].corner.name, "ff");
}

TEST(McmmCornerIo, DefaultSetupsAreSingleIdentityCorner) {
  const DerateTable base = default_aocv_table();
  const auto setups = default_corner_setups(base);
  ASSERT_EQ(setups.size(), 1u);
  EXPECT_EQ(setups[0].corner.name, "default");
  EXPECT_TRUE(setups[0].corner.scaling.is_identity());
  EXPECT_DOUBLE_EQ(setups[0].table.late(4.0, 500.0), base.late(4.0, 500.0));
}

TEST(McmmCornerIo, ScaledMarginIdentityAndClamp) {
  const DerateTable base = default_aocv_table();
  const DerateTable same = base.scaled_margin(1.0);
  EXPECT_DOUBLE_EQ(same.late(8.0, 250.0), base.late(8.0, 250.0));
  EXPECT_DOUBLE_EQ(same.early(8.0, 250.0), base.early(8.0, 250.0));
  // k = 0 collapses the margin entirely: no variation penalty left.
  const DerateTable flat = base.scaled_margin(0.0);
  EXPECT_DOUBLE_EQ(flat.late(8.0, 250.0), 1.0);
  EXPECT_DOUBLE_EQ(flat.early(8.0, 250.0), 1.0);
  // A huge k keeps early factors clamped at the validity floor.
  const DerateTable wide = base.scaled_margin(50.0);
  EXPECT_GE(wide.early(2.0, 2000.0), 0.05);
  EXPECT_GT(wide.late(2.0, 2000.0), base.late(2.0, 2000.0));
}

// ---------------------------------------------------------------------------
// Single-corner regression: the corner-indexed engine with one identity
// corner must be bit-identical to the legacy configuration path.

TEST(McmmTimer, SingleCornerBitIdenticalToLegacy) {
  GeneratedStack legacy(small_options(), 3000.0);

  GeneratedStack mcmm(small_options(), 3000.0);
  const auto setups = default_corner_setups(mcmm.table);
  apply_corner_setups(*mcmm.timer, setups);
  mcmm.timer->update_timing();

  const Timer& a = *legacy.timer;
  const Timer& b = *mcmm.timer;
  ASSERT_EQ(b.num_corners(), 1u);
  for (NodeId u = 0; u < a.graph().num_nodes(); ++u) {
    for (const Mode mode : {Mode::Late, Mode::Early}) {
      EXPECT_EQ(a.arrival(u, mode), b.arrival(u, mode)) << u;
      EXPECT_EQ(a.slew(u, mode), b.slew(u, mode)) << u;
      EXPECT_EQ(a.required(u, mode), b.required(u, mode)) << u;
      EXPECT_EQ(a.slack(u, mode), b.slack(u, mode)) << u;
      // The merge of one corner is that corner.
      EXPECT_EQ(b.slack_merged(u, mode), b.slack(u, mode)) << u;
    }
  }
  EXPECT_EQ(a.wns(Mode::Late), b.wns_merged(Mode::Late));
  EXPECT_EQ(a.tns(Mode::Late), b.tns_merged(Mode::Late));
  EXPECT_EQ(a.num_violations(Mode::Late), b.num_violations_merged(Mode::Late));
}

// ---------------------------------------------------------------------------
// Two-corner merge semantics on a hand-built circuit with exactly known
// timing: slow scales every delay by 1.2, fast by 0.8.

struct TwoCornerFixture {
  FlopPairCircuit circuit{4};  // 4-stage data cloud, 100 ps unit delays
  DerateTable table = default_aocv_table();
  std::vector<CornerSetup> setups;
  std::unique_ptr<Timer> timer;

  TwoCornerFixture() {
    TimingConstraints constraints;  // clock_port defaults to "CLK"
    constraints.clock_period_ps = 700.0;
    constraints.input_slew_ps = 0.0;
    timer = std::make_unique<Timer>(*circuit.design, constraints);
    setups = corners_from_string(
        "corner slow delay 1.2\ncorner fast delay 0.8\n", table);
    apply_corner_setups(*timer, setups);
    timer->update_timing();
  }
};

TEST(McmmTimer, TwoCornerDelaysScalePerCorner) {
  TwoCornerFixture f;
  Timer& timer = *f.timer;
  ASSERT_EQ(timer.num_corners(), 2u);
  EXPECT_EQ(timer.corner(0).name, "slow");
  EXPECT_EQ(timer.corner(1).name, "fast");
  ASSERT_TRUE(timer.find_corner("fast").has_value());
  EXPECT_EQ(*timer.find_corner("fast"), 1u);
  EXPECT_FALSE(timer.find_corner("nope").has_value());

  // Every data endpoint's late arrival at the slow corner is 1.5x the fast
  // corner's (1.2 / 0.8), since all delays scale uniformly.
  std::size_t checked = 0;
  for (const NodeId e : timer.graph().endpoints()) {
    const double slow = timer.arrival(e, Mode::Late, 0);
    const double fast = timer.arrival(e, Mode::Late, 1);
    if (slow == kInfPs || slow == 0.0) continue;
    EXPECT_NEAR(slow / fast, 1.5, 1e-9) << timer.graph().node_name(e);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(McmmTimer, MergedSlackIsWorstAcrossCorners) {
  TwoCornerFixture f;
  Timer& timer = *f.timer;
  for (const NodeId e : timer.graph().endpoints()) {
    for (const Mode mode : {Mode::Late, Mode::Early}) {
      const double s0 = timer.slack(e, mode, 0);
      const double s1 = timer.slack(e, mode, 1);
      EXPECT_EQ(timer.slack_merged(e, mode), std::min(s0, s1));
      const CornerId worst = timer.worst_slack_corner(e, mode);
      EXPECT_EQ(timer.slack(e, mode, worst), std::min(s0, s1));
    }
  }
  // Setup is limited by the slow corner, hold by the fast corner on this
  // circuit (uniform scaling, data path much longer than clock skew).
  const NodeId d2 = timer.graph().node_of_pin(f.circuit.ff2, 0);
  EXPECT_LT(timer.slack(d2, Mode::Late, 0), timer.slack(d2, Mode::Late, 1));
  EXPECT_EQ(timer.worst_slack_corner(d2, Mode::Late), 0u);
  // Merged aggregates follow the per-endpoint minima.
  EXPECT_EQ(timer.wns_merged(Mode::Late), timer.wns(Mode::Late, 0));
  EXPECT_LE(timer.tns_merged(Mode::Late), timer.tns(Mode::Late, 0));
  EXPECT_GE(timer.num_violations_merged(Mode::Late),
            std::max(timer.num_violations(Mode::Late, 0),
                     timer.num_violations(Mode::Late, 1)));
}

TEST(McmmTimer, IncrementalUpdatePreservesAllCornerLanes) {
  GeneratedStack stack(small_options(), 3000.0);
  const auto setups = corners_from_string(
      "corner slow delay 1.15 derate_margin 1.2\n"
      "corner fast delay 0.85 derate_margin 0.8\n",
      stack.table);
  apply_corner_setups(*stack.timer, setups);
  stack.timer->update_timing();

  // Resize a handful of instances and update incrementally.
  const Design& d = stack.design();
  std::size_t resized = 0;
  for (InstanceId i = 0; i < d.num_instances() && resized < 8; ++i) {
    const LibCell& cell = d.library().cell(d.instance(i).cell);
    if (cell.kind != CellKind::Combinational) continue;
    const auto& family = d.library().footprint_family(cell.footprint);
    if (family.size() < 2) continue;
    const std::size_t swap =
        family[cell.name == d.library().cell(family[0]).name ? 1 : 0];
    stack.design().resize_instance(i, swap);
    stack.timer->invalidate_instance(i);
    ++resized;
  }
  ASSERT_GT(resized, 0u);
  stack.timer->update_timing();
  EXPECT_GE(stack.timer->incremental_updates(), 1u);

  // Reference: identical mutations, but with the incremental path disabled
  // so every update is a full re-propagation.
  GeneratedStack full(small_options(), 3000.0);
  apply_corner_setups(*full.timer, setups);
  full.timer->set_incremental_enabled(false);
  full.timer->update_timing();
  std::size_t resized2 = 0;
  for (InstanceId i = 0; i < full.design().num_instances() && resized2 < 8;
       ++i) {
    const LibCell& cell =
        full.design().library().cell(full.design().instance(i).cell);
    if (cell.kind != CellKind::Combinational) continue;
    const auto& family =
        full.design().library().footprint_family(cell.footprint);
    if (family.size() < 2) continue;
    const std::size_t swap =
        family[cell.name == full.design().library().cell(family[0]).name ? 1
                                                                         : 0];
    full.design().resize_instance(i, swap);
    full.timer->invalidate_instance(i);
    ++resized2;
  }
  ASSERT_EQ(resized2, resized);
  full.timer->update_timing();

  for (NodeId u = 0; u < stack.timer->graph().num_nodes(); ++u) {
    for (CornerId c = 0; c < 2; ++c) {
      for (const Mode mode : {Mode::Late, Mode::Early}) {
        EXPECT_EQ(stack.timer->arrival(u, mode, c),
                  full.timer->arrival(u, mode, c))
            << "node " << u << " corner " << c;
        EXPECT_EQ(stack.timer->slack(u, mode, c),
                  full.timer->slack(u, mode, c))
            << "node " << u << " corner " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-corner metrics, mGBA fits, and the optimizer closing on the merge.

TEST(McmmMetrics, PerCornerPassRatiosBracketMerged) {
  TwoCornerFixture f;
  const Timer& timer = *f.timer;
  const PassRatioResult slow = endpoint_pass_ratio(timer, Mode::Late, 0);
  const PassRatioResult fast = endpoint_pass_ratio(timer, Mode::Late, 1);
  const PassRatioResult merged = endpoint_pass_ratio_merged(timer, Mode::Late);
  EXPECT_EQ(slow.total, merged.total);
  EXPECT_EQ(fast.total, merged.total);
  // An endpoint passes merged only if it passes everywhere.
  EXPECT_LE(merged.good, std::min(slow.good, fast.good));
  EXPECT_GT(merged.total, 0u);
}

TEST(McmmFlow, FitsEveryCornerIndependently) {
  GeneratedStack stack(small_options(), 2600.0);
  const auto setups = corners_from_string(
      "corner slow delay 1.1 derate_margin 1.2\n"
      "corner fast delay 0.9 derate_margin 0.8\n",
      stack.table);
  apply_corner_setups(*stack.timer, setups);
  stack.timer->update_timing();

  MgbaFlowOptions options;
  options.paths_per_endpoint = 4;
  options.candidate_paths_per_endpoint = 4;
  const auto results =
      run_mgba_flow_all_corners(*stack.timer, setups, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].corner, 0u);
  EXPECT_EQ(results[1].corner, 1u);
  for (const MgbaFlowResult& r : results) {
    EXPECT_GT(r.candidate_paths, 0u);
    EXPECT_LE(r.mse_after, r.mse_before + 1e-12);
  }
  // Each corner holds its own fitted weight vector on the timer.
  EXPECT_EQ(stack.timer->instance_weights(0), results[0].instance_weights);
  EXPECT_EQ(stack.timer->instance_weights(1), results[1].instance_weights);
}

TEST(McmmOpt, MeasureQorMergedAndPerCorner) {
  TwoCornerFixture f;
  const QorMetrics merged = measure_qor(*f.timer);
  const auto per_corner = measure_qor_per_corner(*f.timer);
  ASSERT_EQ(per_corner.size(), 2u);
  EXPECT_EQ(merged.wns_ps, f.timer->wns_merged(Mode::Late));
  EXPECT_EQ(per_corner[0].wns_ps, f.timer->wns(Mode::Late, 0));
  EXPECT_EQ(per_corner[1].wns_ps, f.timer->wns(Mode::Late, 1));
  // Merged WNS is never better than any single corner's.
  EXPECT_LE(merged.wns_ps, per_corner[0].wns_ps);
  EXPECT_LE(merged.wns_ps, per_corner[1].wns_ps);
}

TEST(McmmOpt, OptimizerClosesAgainstMergedView) {
  GeneratedStack stack(small_options(7), 0.0);
  // Size the period so the default corner nearly passes; the slow corner
  // then still violates, forcing the optimizer to work against the merge.
  const double period =
      choose_clock_period(*stack.timer, stack.table, 1.02);
  GeneratedStack sized(small_options(7), period);
  const auto setups = corners_from_string(
      "corner slow delay 1.1 derate_margin 1.2\ncorner fast delay 0.9\n",
      sized.table);
  apply_corner_setups(*sized.timer, setups);
  sized.timer->update_timing();
  const QorMetrics before = measure_qor(*sized.timer);

  OptimizerOptions options;
  options.max_passes = 6;
  options.endpoints_per_pass = 12;
  options.enable_area_recovery = false;
  TimingCloser closer(sized.design(), *sized.timer, sized.table, options);
  closer.set_corner_setups(setups);
  const OptimizerReport report = closer.run();

  ASSERT_EQ(report.final_per_corner.size(), 2u);
  // The merged TNS must not get worse, and the report's merged view must
  // match the timer's.
  EXPECT_GE(report.final_qor.tns_ps, before.tns_ps);
  EXPECT_EQ(report.final_qor.wns_ps, sized.timer->wns_merged(Mode::Late));
  EXPECT_EQ(report.final_per_corner[0].wns_ps,
            sized.timer->wns(Mode::Late, 0));
  EXPECT_EQ(report.final_per_corner[1].wns_ps,
            sized.timer->wns(Mode::Late, 1));
  // Per-corner QoR brackets the merged WNS.
  EXPECT_LE(report.final_qor.wns_ps,
            std::max(report.final_per_corner[0].wns_ps,
                     report.final_per_corner[1].wns_ps));
}

TEST(McmmTimer, SetCornersPreservesGraphAndStorageGrows) {
  GeneratedStack stack(small_options(), 3000.0);
  const std::size_t bytes1 = stack.timer->timing_storage_bytes();
  std::vector<AnalysisCorner> corners(3);
  corners[0].name = "a";
  corners[1].name = "b";
  corners[1].scaling.delay = 1.1;
  corners[2].name = "c";
  corners[2].scaling.delay = 0.9;
  stack.timer->set_corners(corners);
  stack.timer->update_timing();
  EXPECT_EQ(stack.timer->num_corners(), 3u);
  // The arena grows with the corner count (roughly linearly).
  EXPECT_GT(stack.timer->timing_storage_bytes(), 2 * bytes1);
  // Corner "a" is identity and keeps corner 0's derates: it matches the
  // single-corner default exactly.
  GeneratedStack ref(small_options(), 3000.0);
  for (const NodeId e : stack.timer->graph().endpoints()) {
    EXPECT_EQ(stack.timer->slack(e, Mode::Late, 0),
              ref.timer->slack(e, Mode::Late));
  }
}

}  // namespace
}  // namespace mgba
