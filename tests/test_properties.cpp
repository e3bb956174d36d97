/// Cross-design property sweeps: the core invariants of the reproduction,
/// checked on every one of the ten benchmark configurations (scaled down
/// for test runtime). These are the properties DESIGN.md commits to.

#include <gtest/gtest.h>

#include <algorithm>

#include "aocv/aocv_model.hpp"
#include "aocv/depth_analysis.hpp"
#include "mgba/framework.hpp"
#include "mgba/metrics.hpp"
#include "mgba/problem.hpp"
#include "netlist/generator.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "test_helpers.hpp"

namespace mgba {
namespace {

/// One scaled benchmark stack per design index. With \p exceptions the
/// constraints add clock uncertainty, a multicycle endpoint and a
/// false-path endpoint, which GBA and golden PBA must honor alike.
struct SweepStack {
  Library library;
  GeneratedDesign generated;
  DerateTable table;
  TimingConstraints constraints;
  std::unique_ptr<Timer> timer;

  explicit SweepStack(int d, bool exceptions = false)
      : library(make_default_library()),
        generated([&] {
          GeneratorOptions opt = benchmark_design_options(d);
          opt.num_gates = std::min<std::size_t>(opt.num_gates, 900);
          opt.num_flops = std::min<std::size_t>(opt.num_flops, 72);
          return generate_design(library, opt);
        }()),
        table(default_aocv_table()) {
    constraints.clock_port = generated.clock_port;
    constraints.clock_period_ps = 2500.0;
    if (exceptions) {
      constraints.clock_uncertainty_ps = 40.0;
      constraints.multicycle_endpoints["ff_3/D"] = 2;
      constraints.false_path_endpoints.insert("ff_5/D");
    }
    timer = std::make_unique<Timer>(generated.design, constraints);
    timer->set_instance_derates(compute_gba_derates(timer->graph(), table));
    timer->update_timing();
  }
};

class DesignSweep : public ::testing::TestWithParam<int> {};

TEST_P(DesignSweep, GbaNeverOptimisticOnAnyPath) {
  for (const bool exceptions : {false, true}) {
    SCOPED_TRACE(exceptions ? "uncertainty + exceptions" : "plain clock");
    SweepStack stack(GetParam(), exceptions);
    const PathEnumerator enumerator(*stack.timer, 5);
    const PathEvaluator evaluator(*stack.timer, stack.table);
    std::size_t checked = 0;
    for (const TimingPath& path : enumerator.all_paths()) {
      const PathTiming pt = evaluator.evaluate(path);
      ASSERT_LE(pt.gba_slack_ps, pt.pba_slack_ps + 1e-6)
          << stack.timer->graph().node_name(path.endpoint());
      ++checked;
    }
    EXPECT_GT(checked, 100u);
  }
}

TEST_P(DesignSweep, HoldGbaNeverOptimisticOnAnyPath) {
  for (const bool exceptions : {false, true}) {
    SCOPED_TRACE(exceptions ? "uncertainty + exceptions" : "plain clock");
    SweepStack stack(GetParam(), exceptions);
    const PathEnumerator enumerator(*stack.timer, 4, Mode::Early);
    const PathEvaluator evaluator(*stack.timer, stack.table);
    for (const TimingPath& path : enumerator.all_paths()) {
      const PathTiming pt = evaluator.evaluate(path, Mode::Early);
      if (pt.pba_slack_ps == kInfPs) continue;
      ASSERT_LE(pt.gba_slack_ps, pt.pba_slack_ps + 1e-6)
          << stack.timer->graph().node_name(path.endpoint());
    }
  }
}

TEST_P(DesignSweep, WorstDepthBoundsEveryPathDepth) {
  SweepStack stack(GetParam());
  const DepthAnalysis analysis(stack.timer->graph());
  const PathEnumerator enumerator(*stack.timer, 4);
  for (const TimingPath& path : enumerator.all_paths()) {
    const std::size_t depth =
        DepthAnalysis::path_depth(stack.timer->graph(), path.nodes);
    for (const ArcId a : path.arcs) {
      const TimingArc& arc = stack.timer->graph().arc(a);
      if (!stack.timer->is_weighted(a)) continue;
      ASSERT_LE(analysis.info(arc.inst).depth,
                static_cast<double>(depth) + 1e-9);
    }
  }
}

TEST_P(DesignSweep, CrprCreditNonNegativeAndBounded) {
  SweepStack stack(GetParam());
  const Timer& timer = *stack.timer;
  const auto& checks = timer.graph().checks();
  for (std::size_t c = 0; c < checks.size(); ++c) {
    const double credit = timer.check_timing(c).crpr_credit_ps;
    ASSERT_GE(credit, 0.0);
    // The credit can never exceed the full late-early clock spread at the
    // capture pin.
    const double spread = timer.arrival(checks[c].clock_node, Mode::Late) -
                          timer.arrival(checks[c].clock_node, Mode::Early);
    ASSERT_LE(credit, spread + 1e-6);
    // Exact per-pair credit is at least the conservative endpoint credit
    // for the self pair.
    ASSERT_GE(timer.crpr_credit_exact(c, c), credit - 1e-9);
  }
}

TEST_P(DesignSweep, MgbaFitNeverDegradesAccuracy) {
  SweepStack stack(GetParam());
  MgbaFlowOptions options;
  options.candidate_paths_per_endpoint = 6;
  options.paths_per_endpoint = 6;
  options.only_violated = false;
  const MgbaFlowResult fit =
      run_mgba_flow(*stack.timer, stack.table, options);
  EXPECT_LE(fit.mse_after, fit.mse_before + 1e-12) << "design D" << GetParam();
  EXPECT_GE(fit.pass_ratio_after, fit.pass_ratio_before - 1e-12);
}

TEST_P(DesignSweep, TimerDeterministicAcrossRebuilds) {
  SweepStack a(GetParam());
  SweepStack b(GetParam());
  ASSERT_EQ(a.timer->graph().num_nodes(), b.timer->graph().num_nodes());
  EXPECT_DOUBLE_EQ(a.timer->wns(Mode::Late), b.timer->wns(Mode::Late));
  EXPECT_DOUBLE_EQ(a.timer->tns(Mode::Late), b.timer->tns(Mode::Late));
  EXPECT_DOUBLE_EQ(a.timer->wns(Mode::Early), b.timer->wns(Mode::Early));
}

TEST_P(DesignSweep, RequiredTimesConsistentWithSlack) {
  SweepStack stack(GetParam());
  const Timer& timer = *stack.timer;
  for (const NodeId e : timer.graph().endpoints()) {
    const double slack = timer.slack(e, Mode::Late);
    EXPECT_NEAR(slack,
                timer.required(e, Mode::Late) - timer.arrival(e, Mode::Late),
                1e-9);
  }
  // Check-site cached slacks agree with node-level queries.
  const auto& checks = timer.graph().checks();
  for (std::size_t c = 0; c < checks.size(); ++c) {
    EXPECT_NEAR(timer.check_timing(c).setup_slack_ps,
                timer.slack(checks[c].data_node, Mode::Late), 1e-9);
    EXPECT_NEAR(timer.check_timing(c).hold_slack_ps,
                timer.slack(checks[c].data_node, Mode::Early), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignSweep, ::testing::Range(1, 11));

}  // namespace
}  // namespace mgba
