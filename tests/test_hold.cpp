/// Tests for the hold-side extension (early-mode path enumeration, hold
/// PBA evaluation, the hold variant of the mGBA problem) and for the
/// constraint features added beyond the minimal setup model (clock
/// uncertainty, per-port external delays).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "mgba/framework.hpp"
#include "mgba/metrics.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "sta/sdc.hpp"
#include "test_helpers.hpp"

namespace mgba {
namespace {

using testing_helpers::FlopPairCircuit;
using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

TEST(Constraints, ClockUncertaintyTightensBothChecks) {
  const FlopPairCircuit circuit(3);
  TimingConstraints base;
  base.clock_period_ps = 1000.0;
  base.input_slew_ps = 0.0;
  TimingConstraints uncertain = base;
  uncertain.clock_uncertainty_ps = 50.0;

  Timer t0(*circuit.design, base);
  Timer t1(*circuit.design, uncertain);
  t0.update_timing();
  t1.update_timing();
  EXPECT_NEAR(t1.check_timing(1).setup_slack_ps,
              t0.check_timing(1).setup_slack_ps - 50.0, 1e-9);
  EXPECT_NEAR(t1.check_timing(1).hold_slack_ps,
              t0.check_timing(1).hold_slack_ps - 50.0, 1e-9);
}

TEST(Constraints, PerPortDelayOverrides) {
  const FlopPairCircuit circuit(2);
  TimingConstraints constraints;
  constraints.clock_period_ps = 1000.0;
  constraints.input_slew_ps = 0.0;
  constraints.input_delay_ps = 10.0;
  constraints.input_delay_overrides["din"] = 70.0;

  Timer timer(*circuit.design, constraints);
  timer.update_timing();
  const NodeId din =
      timer.graph().node_of_port(*circuit.design->find_port("din"));
  EXPECT_DOUBLE_EQ(timer.arrival(din, Mode::Late), 70.0);
}

TEST(Constraints, OutputDelayOverrideChangesRequired) {
  const FlopPairCircuit circuit(2);
  TimingConstraints constraints;
  constraints.clock_period_ps = 1000.0;
  constraints.input_slew_ps = 0.0;
  constraints.output_delay_overrides["q2out"] = 200.0;
  Timer timer(*circuit.design, constraints);
  timer.update_timing();
  const NodeId q2out =
      timer.graph().node_of_port(*circuit.design->find_port("q2out"));
  EXPECT_DOUBLE_EQ(timer.required(q2out, Mode::Late), 800.0);
}

TEST(Exceptions, FalsePathExcludesEndpoint) {
  const FlopPairCircuit circuit(6);
  TimingConstraints constraints;
  constraints.clock_period_ps = 500.0;  // 600ps data path: violated
  constraints.input_slew_ps = 0.0;
  Timer violated(*circuit.design, constraints);
  violated.update_timing();
  EXPECT_LT(violated.slack(violated.graph().node_of_pin(circuit.ff2, 0),
                           Mode::Late),
            0.0);

  constraints.false_path_endpoints.insert("ff2/D");
  Timer waived(*circuit.design, constraints);
  waived.update_timing();
  const NodeId d2 = waived.graph().node_of_pin(circuit.ff2, 0);
  EXPECT_EQ(waived.slack(d2, Mode::Late), kInfPs);
  EXPECT_LT(waived.num_violations(Mode::Late),
            violated.num_violations(Mode::Late));
}

TEST(Exceptions, MulticyclePathRelaxesSetupOnly) {
  const FlopPairCircuit circuit(6);
  TimingConstraints constraints;
  constraints.clock_period_ps = 500.0;
  constraints.input_slew_ps = 0.0;
  constraints.multicycle_endpoints["ff2/D"] = 2;
  Timer timer(*circuit.design, constraints);
  timer.update_timing();
  const NodeId d2 = timer.graph().node_of_pin(circuit.ff2, 0);
  // Data arrival 200 (clock) + 600; required = 2*500 + 200 capture clock.
  EXPECT_DOUBLE_EQ(timer.slack(d2, Mode::Late), 1200.0 - 800.0);
  // Hold unchanged by the -setup multicycle.
  const auto check = timer.graph().check_at(d2);
  ASSERT_TRUE(check.has_value());
  EXPECT_DOUBLE_EQ(timer.check_timing(*check).hold_slack_ps, 600.0);
}

TEST(Exceptions, SdcParsesExceptions) {
  const TimingConstraints c = sdc_from_string(
      "set_false_path -to [get_ports out_9]\n"
      "set_false_path -to [get_pins ff_3/D]\n"
      "set_multicycle_path 2 -to [get_pins ff_7/D]\n");
  EXPECT_TRUE(c.false_path_endpoints.count("out_9"));
  EXPECT_TRUE(c.false_path_endpoints.count("ff_3/D"));
  EXPECT_EQ(c.multicycle_endpoints.at("ff_7/D"), 2);
  // Round trip.
  const TimingConstraints r = sdc_from_string(sdc_to_string(c));
  EXPECT_EQ(r.false_path_endpoints, c.false_path_endpoints);
  EXPECT_EQ(r.multicycle_endpoints, c.multicycle_endpoints);
}

TEST(Timer, EarlyWeightsRaiseEarlyArrivalOnly) {
  const FlopPairCircuit circuit(2);
  TimingConstraints constraints;
  constraints.clock_period_ps = 1000.0;
  constraints.input_slew_ps = 0.0;
  Timer timer(*circuit.design, constraints);
  std::vector<double> weights(circuit.design->num_instances(), 0.0);
  weights[*circuit.design->find_instance("u0")] = 0.5;  // 50% slower early
  timer.set_instance_weights_early(weights);
  timer.update_timing();
  const NodeId d2 = timer.graph().node_of_pin(circuit.ff2, 0);
  // Early: clock 200 + u0 150 + u1 100; Late unchanged: 200 + 200.
  EXPECT_DOUBLE_EQ(timer.arrival(d2, Mode::Early), 450.0);
  EXPECT_DOUBLE_EQ(timer.arrival(d2, Mode::Late), 400.0);
}

/// Brute-force minimum early arrival into an endpoint.
double brute_force_min_arrival(const Timer& timer, NodeId endpoint) {
  const TimingGraph& graph = timer.graph();
  std::vector<bool> is_launch(graph.num_nodes(), false);
  for (const NodeId l : graph.launch_nodes()) is_launch[l] = true;
  double best = kInfPs;
  std::function<void(NodeId, double)> dfs = [&](NodeId node, double suffix) {
    if (is_launch[node]) {
      best = std::min(best, timer.arrival(node, Mode::Early) + suffix);
      return;
    }
    for (const ArcId a : graph.fanin(node)) {
      if (graph.node(graph.arc(a).from).is_clock_network) continue;
      dfs(graph.arc(a).from, suffix + timer.arc_delay(a, Mode::Early));
    }
  };
  dfs(endpoint, 0.0);
  return best;
}

TEST(HoldPaths, EarlyEnumerationFindsMinArrival) {
  GeneratorOptions opt = small_options(91);
  opt.num_gates = 60;
  opt.num_flops = 8;
  opt.target_depth = 8;
  GeneratedStack stack(opt);
  const Timer& timer = *stack.timer;
  const PathEnumerator enumerator(timer, 4, Mode::Early);
  for (const NodeId e : timer.graph().endpoints()) {
    const auto paths = enumerator.paths_to(e);
    if (paths.empty()) continue;
    EXPECT_NEAR(paths[0].gba_arrival_ps, brute_force_min_arrival(timer, e),
                1e-6);
    // Sorted ascending (worst hold first).
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_GE(paths[i].gba_arrival_ps, paths[i - 1].gba_arrival_ps - 1e-9);
    }
  }
}

TEST(HoldPaths, PbaHoldNeverMorePessimistic) {
  GeneratedStack stack(small_options(92), 2500.0);
  const Timer& timer = *stack.timer;
  const PathEnumerator enumerator(timer, 4, Mode::Early);
  const PathEvaluator evaluator(timer, stack.table);
  std::size_t checked = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const PathTiming pt = evaluator.evaluate(path, Mode::Early);
    if (pt.pba_slack_ps == kInfPs) continue;  // port endpoint
    // PBA early arrival >= GBA early arrival (early derate closer to 1,
    // path slews less pessimistic), hence hold slack at least as large.
    EXPECT_GE(pt.pba_arrival_ps, pt.gba_arrival_ps - 1e-6);
    EXPECT_GE(pt.pba_slack_ps, pt.gba_slack_ps - 1e-6);
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

class HoldProblemTest : public ::testing::Test {
 protected:
  HoldProblemTest()
      : stack_(small_options(93), 2500.0),
        evaluator_(*stack_.timer, stack_.table) {
    const PathEnumerator enumerator(*stack_.timer, 6, Mode::Early);
    paths_ = enumerator.all_paths();
    // Keep only hold-checked endpoints so rows align with paths.
    std::erase_if(paths_, [&](const TimingPath& p) {
      return !stack_.timer->graph().check_at(p.endpoint()).has_value();
    });
    problem_ = std::make_unique<MgbaProblem>(*stack_.timer, evaluator_,
                                             paths_, 0.02, CheckKind::Hold);
  }
  GeneratedStack stack_;
  PathEvaluator evaluator_;
  std::vector<TimingPath> paths_;
  std::unique_ptr<MgbaProblem> problem_;
};

TEST_F(HoldProblemTest, TargetsAreNonNegative) {
  ASSERT_EQ(problem_->num_rows(), paths_.size());
  for (std::size_t i = 0; i < problem_->num_rows(); ++i) {
    EXPECT_GE(problem_->rhs()[i], -1e-6);          // b = s_pba - s_gba >= 0
    EXPECT_GE(problem_->lower_bounds()[i],
              problem_->rhs()[i] - 1e-12);         // upper bound above b
  }
}

TEST_F(HoldProblemTest, ModelSlackMovesUpWithWeights) {
  const std::vector<double> x0(problem_->num_cols(), 0.0);
  const std::vector<double> x1(problem_->num_cols(), 0.1);
  for (std::size_t i = 0; i < std::min<std::size_t>(50, problem_->num_rows());
       ++i) {
    EXPECT_DOUBLE_EQ(problem_->model_slack(i, x0), problem_->gba_slack()[i]);
    EXPECT_GE(problem_->model_slack(i, x1), problem_->model_slack(i, x0));
  }
}

TEST_F(HoldProblemTest, SolverImprovesHoldAccuracy) {
  SolverOptions options;
  const SolveResult solved = solve_scg(*problem_, {}, options);
  const std::vector<double> x0(problem_->num_cols(), 0.0);
  EXPECT_LT(modeling_mse(*problem_, solved.x), modeling_mse(*problem_, x0));
  EXPECT_GE(pass_ratio(*problem_, solved.x).ratio(),
            pass_ratio(*problem_, x0).ratio());
}

TEST_F(HoldProblemTest, GradientMatchesFiniteDifference) {
  std::vector<double> x(problem_->num_cols(), 0.02);
  std::vector<double> g(problem_->num_cols());
  problem_->gradient(x, 10.0, g);
  const double h = 1e-6;
  for (const std::size_t c : {std::size_t{0}, problem_->num_cols() / 2}) {
    std::vector<double> xp = x, xm = x;
    xp[c] += h;
    xm[c] -= h;
    const double fd =
        (problem_->objective(xp, 10.0) - problem_->objective(xm, 10.0)) /
        (2 * h);
    EXPECT_NEAR(g[c], fd, 1e-3 * std::max(1.0, std::abs(fd)));
  }
}

TEST(HoldFramework, EndToEndHoldFit) {
  // Tight hold regime: zero uncertainty keeps holds mostly met, so force
  // pessimism to matter by adding clock uncertainty.
  GeneratorOptions opt = small_options(94);
  const Library library = make_default_library();
  GeneratedDesign generated = generate_design(library, opt);
  const DerateTable table = default_aocv_table();
  TimingConstraints constraints;
  constraints.clock_port = generated.clock_port;
  constraints.clock_period_ps = 4000.0;
  constraints.clock_uncertainty_ps = 60.0;
  Timer timer(generated.design, constraints);
  timer.set_instance_derates(compute_gba_derates(timer.graph(), table));
  timer.update_timing();

  MgbaFlowOptions options;
  options.check_kind = CheckKind::Hold;
  options.only_violated = false;
  options.candidate_paths_per_endpoint = 6;
  options.paths_per_endpoint = 6;
  const MgbaFlowResult fit = run_mgba_flow(timer, table, options);
  EXPECT_GT(fit.candidate_paths, 0u);
  EXPECT_LE(fit.mse_after, fit.mse_before);
  EXPECT_GE(fit.pass_ratio_after, fit.pass_ratio_before);
  // Early weights were applied; late weights untouched.
  EXPECT_FALSE(timer.instance_weights_early().empty());
  EXPECT_TRUE(timer.instance_weights().empty());
}

}  // namespace
}  // namespace mgba
