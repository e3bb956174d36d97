#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "util/rng.hpp"

#include "mgba/framework.hpp"
#include "mgba/metrics.hpp"
#include "mgba/path_selection.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path_engine.hpp"
#include "pba/path_enum.hpp"
#include "test_helpers.hpp"
#include "util/float_bits.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

/// Shared fixture: a small violated design with its full mGBA problem.
class MgbaProblemTest : public ::testing::Test {
 protected:
  MgbaProblemTest()
      : stack_(small_options(71), /*clock_period_ps=*/1800.0),
        evaluator_(*stack_.timer, stack_.table) {
    const PathEnumerator enumerator(*stack_.timer, 10);
    paths_ = enumerator.all_paths();
    problem_ = std::make_unique<MgbaProblem>(*stack_.timer, evaluator_,
                                             paths_, 0.02);
  }

  GeneratedStack stack_;
  PathEvaluator evaluator_;
  std::vector<TimingPath> paths_;
  std::unique_ptr<MgbaProblem> problem_;
};

TEST_F(MgbaProblemTest, ShapeAndTargets) {
  EXPECT_EQ(problem_->num_rows(), paths_.size());
  EXPECT_GT(problem_->num_cols(), 50u);
  // b = s_gba(0) - s_pba <= 0 for every row (GBA pessimistic).
  for (std::size_t i = 0; i < problem_->num_rows(); ++i) {
    EXPECT_LE(problem_->rhs()[i], 1e-6);
    EXPECT_LE(problem_->lower_bounds()[i], problem_->rhs()[i] + 1e-12);
  }
}

TEST_F(MgbaProblemTest, ModelSlackAtZeroIsGba) {
  const std::vector<double> x0(problem_->num_cols(), 0.0);
  for (std::size_t i = 0; i < problem_->num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(problem_->model_slack(i, x0), problem_->gba_slack()[i]);
  }
}

TEST_F(MgbaProblemTest, ColumnMappingRoundTrips) {
  for (std::size_t c = 0; c < problem_->num_cols(); ++c) {
    const InstanceId inst = problem_->column_instance(c);
    EXPECT_EQ(problem_->instance_column(inst),
              static_cast<std::int32_t>(c));
  }
  const auto weights = problem_->to_instance_weights(
      std::vector<double>(problem_->num_cols(), 0.5));
  EXPECT_EQ(weights.size(), stack_.design().num_instances());
  EXPECT_DOUBLE_EQ(weights[problem_->column_instance(0)], 0.5);
}

TEST_F(MgbaProblemTest, MatrixEntriesAreDeratedDelays) {
  // Each row's entry sum equals the weighted-gate portion of the path's
  // GBA delay: a_ij = d_j * lambda_j (Eq. 9).
  const Timer& timer = *stack_.timer;
  for (std::size_t i = 0; i < std::min<std::size_t>(50, paths_.size());
       ++i) {
    double expected = 0.0;
    for (const ArcId a : paths_[i].arcs) {
      if (!timer.is_weighted(a)) continue;
      expected += timer.arc_delay_base(a, Mode::Late) *
                  timer.instance_derate(timer.graph().arc(a).inst).late;
    }
    const std::vector<double> ones(problem_->num_cols(), 1.0);
    EXPECT_NEAR(problem_->matrix().row_dot(i, ones), expected, 1e-6);
  }
}

TEST_F(MgbaProblemTest, GradientMatchesFiniteDifference) {
  Rng rng(5);
  std::vector<double> x(problem_->num_cols());
  for (double& v : x) v = rng.uniform(-0.05, 0.05);
  std::vector<double> g(problem_->num_cols());
  const double w = 10.0;
  problem_->gradient(x, w, g);

  const double h = 1e-6;
  for (const std::size_t c : {std::size_t{0}, problem_->num_cols() / 2,
                              problem_->num_cols() - 1}) {
    std::vector<double> xp = x, xm = x;
    xp[c] += h;
    xm[c] -= h;
    const double fd =
        (problem_->objective(xp, w) - problem_->objective(xm, w)) / (2 * h);
    EXPECT_NEAR(g[c], fd, 1e-3 * std::max(1.0, std::abs(fd)));
  }
}

TEST_F(MgbaProblemTest, GradientRowsSubsetConsistent) {
  std::vector<std::size_t> all(problem_->num_rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<double> x(problem_->num_cols(), 0.01);
  std::vector<double> g_full(problem_->num_cols());
  std::vector<double> g_rows(problem_->num_cols());
  problem_->gradient(x, 10.0, g_full);
  problem_->gradient_rows(all, x, 10.0, g_rows);
  for (std::size_t c = 0; c < g_full.size(); ++c) {
    EXPECT_NEAR(g_full[c], g_rows[c], 1e-9);
  }
}

TEST_F(MgbaProblemTest, SolversReduceObjective) {
  const std::vector<double> x0(problem_->num_cols(), 0.0);
  SolverOptions options;
  options.max_iterations = 400;
  const double f0 = problem_->objective(x0, options.penalty_weight);

  const SolveResult gd = solve_gradient_descent(*problem_, {}, options);
  const SolveResult scg = solve_scg(*problem_, {}, options);
  SamplingOptions sampling;
  const SolveResult rs =
      solve_scg_with_row_sampling(*problem_, {}, options, sampling);

  EXPECT_LT(gd.final_objective, 0.25 * f0);
  EXPECT_LT(scg.final_objective, 0.25 * f0);
  // The row-sampled solve trades accuracy for speed (Algorithm 1 stops at
  // the eps_u movement criterion); it must still remove most of the error.
  EXPECT_LT(rs.final_objective, 0.5 * f0);
  EXPECT_GT(gd.iterations, 0u);
  EXPECT_GT(scg.iterations, 0u);
  EXPECT_GE(rs.outer_rounds, 1u);
}

TEST_F(MgbaProblemTest, SolutionImprovesPassRatioAndMse) {
  SolverOptions options;
  const SolveResult scg = solve_scg(*problem_, {}, options);
  const std::vector<double> x0(problem_->num_cols(), 0.0);
  EXPECT_LT(modeling_mse(*problem_, scg.x), modeling_mse(*problem_, x0));
  EXPECT_GE(pass_ratio(*problem_, scg.x).ratio(),
            pass_ratio(*problem_, x0).ratio());
  EXPECT_LT(relative_error(*problem_, scg.x), relative_error(*problem_, x0));
}

TEST_F(MgbaProblemTest, SolutionIsSparseDeviation) {
  // Fig. 3 property: the optimal deviation concentrates near zero. This
  // fixture's clock is deliberately tight (most paths violated), which is
  // far harsher than the paper's regime where ~96% of gates need no
  // correction; the concentration bound here is correspondingly looser.
  // bench_fig3_sparsity reproduces the paper-regime histogram.
  SolverOptions options;
  const SolveResult scg = solve_scg(*problem_, {}, options);
  std::size_t near_zero = 0, far = 0;
  for (const double v : scg.x) {
    near_zero += std::abs(v) < 0.05;
    far += std::abs(v) > 0.25;
  }
  const auto n = static_cast<double>(scg.x.size());
  EXPECT_GT(static_cast<double>(near_zero) / n, 0.3);
  EXPECT_LT(static_cast<double>(far) / n, 0.1);
}

TEST_F(MgbaProblemTest, SolversAreDeterministic) {
  SolverOptions options;
  options.max_iterations = 200;
  const SolveResult a = solve_scg(*problem_, {}, options);
  const SolveResult b = solve_scg(*problem_, {}, options);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
  }
}

TEST_F(MgbaProblemTest, WarmStartRespected) {
  SolverOptions options;
  options.max_iterations = 1;
  options.step_size = 0.0;  // zero step: solver must return x0 unchanged
  std::vector<double> x0(problem_->num_cols(), 0.123);
  const SolveResult r = solve_scg(*problem_, {}, options, x0);
  for (const double v : r.x) EXPECT_DOUBLE_EQ(v, 0.123);
}

TEST_F(MgbaProblemTest, PenaltyDiscouragesOptimism) {
  // With a huge penalty, the solution must respect the no-optimism bound
  // everywhere (within solver tolerance).
  SolverOptions options;
  options.penalty_weight = 1e4;
  options.max_iterations = 2000;
  const SolveResult r = solve_gradient_descent(*problem_, {}, options);
  EXPECT_LT(max_optimism_violation(*problem_, r.x), 1.0);  // < 1 ps
}

TEST_F(MgbaProblemTest, SelectionViolatedRows) {
  const auto violated = violated_rows(problem_->gba_slack());
  for (const std::size_t r : violated) {
    EXPECT_LT(problem_->gba_slack()[r], 0.0);
  }
}

TEST_F(MgbaProblemTest, GlobalSelectionKeepsWorst) {
  std::vector<std::size_t> all(problem_->num_rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto rows = select_global_worst(problem_->gba_slack(), all, 30);
  ASSERT_EQ(rows.size(), 30u);
  // Every selected row is at least as critical as every unselected row.
  double worst_selected = -kInfPs;
  for (const std::size_t r : rows) {
    worst_selected = std::max(worst_selected, problem_->gba_slack()[r]);
  }
  std::size_t more_critical_unselected = 0;
  for (std::size_t i = 0; i < problem_->num_rows(); ++i) {
    if (std::find(rows.begin(), rows.end(), i) != rows.end()) continue;
    if (problem_->gba_slack()[i] < worst_selected - 1e-9) {
      ++more_critical_unselected;
    }
  }
  EXPECT_EQ(more_critical_unselected, 0u);
}

TEST_F(MgbaProblemTest, PerEndpointSelectionCapsPerEndpoint) {
  std::vector<std::size_t> all(problem_->num_rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::size_t k = 3;
  const auto rows = select_per_endpoint(paths_, problem_->gba_slack(), all, k,
                                        1'000'000);
  std::map<NodeId, std::size_t> per_endpoint;
  for (const std::size_t r : rows) ++per_endpoint[paths_[r].endpoint()];
  for (const auto& [endpoint, count] : per_endpoint) {
    EXPECT_LE(count, k);
  }
}

TEST_F(MgbaProblemTest, PerEndpointCoverageBeatsGlobal) {
  // The Sec. 3.2 observation: at equal budget, per-endpoint selection
  // covers at least as many gates as global top-m'.
  std::vector<std::size_t> all(problem_->num_rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::size_t budget = problem_->num_rows() / 10;
  const auto global = select_global_worst(problem_->gba_slack(), all, budget);
  const auto per_ep = select_per_endpoint(paths_, problem_->gba_slack(), all,
                                          2, budget);
  EXPECT_GE(gate_coverage(*problem_, per_ep),
            gate_coverage(*problem_, global));
}

TEST_F(MgbaProblemTest, GdWarmStartConverges) {
  SolverOptions options;
  options.max_iterations = 50;
  const SolveResult first = solve_gradient_descent(*problem_, {}, options);
  const SolveResult resumed =
      solve_gradient_descent(*problem_, {}, options, first.x);
  EXPECT_LE(resumed.final_objective, first.final_objective + 1e-9);
}

TEST_F(MgbaProblemTest, MetricsEdgeCases) {
  // Empty row selection covers no gates.
  EXPECT_DOUBLE_EQ(gate_coverage(*problem_, {}), 0.0);
  // Full selection covers every column (columns are built from the paths).
  std::vector<std::size_t> all(problem_->num_rows());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  EXPECT_DOUBLE_EQ(gate_coverage(*problem_, all), 1.0);
  // Pass ratio of an empty problem is vacuously 1.
  PassRatioResult empty;
  EXPECT_DOUBLE_EQ(empty.ratio(), 1.0);
}

TEST(MgbaFramework, MaxPathsCapRespected) {
  GeneratedStack stack(small_options(75), 1800.0);
  MgbaFlowOptions options;
  options.only_violated = false;
  options.max_paths = 40;
  const MgbaFlowResult fit =
      run_mgba_flow(*stack.timer, stack.table, options);
  EXPECT_LE(fit.fitted_paths, 40u);
  EXPECT_GT(fit.fitted_paths, 0u);
}

TEST(MgbaFramework, EndToEndImprovesAccuracy) {
  GeneratedStack stack(small_options(72), 1800.0);
  MgbaFlowOptions options;
  options.candidate_paths_per_endpoint = 10;
  options.paths_per_endpoint = 10;
  const MgbaFlowResult result = run_mgba_flow(*stack.timer, stack.table,
                                              options);
  EXPECT_GT(result.candidate_paths, 0u);
  EXPECT_GT(result.variables, 0u);
  EXPECT_LE(result.mse_after, result.mse_before);
  EXPECT_GE(result.pass_ratio_after, result.pass_ratio_before);
  // Weights were applied to the timer.
  EXPECT_EQ(stack.timer->instance_weights().size(),
            stack.design().num_instances());
}

TEST(MgbaFramework, FalsePathMakesNoRowAndFitStaysFinite) {
  // A false-path endpoint has no requirement in GBA or golden PBA, so its
  // paths make no row, and an all-paths fit keeps finite targets, MSE and
  // weights in both checks.
  TimingConstraints constraints;
  constraints.false_path_endpoints.insert("ff_2/D");
  for (const CheckKind kind : {CheckKind::Setup, CheckKind::Hold}) {
    SCOPED_TRACE(kind == CheckKind::Hold ? "hold" : "setup");
    GeneratedStack stack(small_options(76), 1800.0, constraints);
    const TimingGraph& graph = stack.timer->graph();
    const auto waived = [&](const TimingPath& path) {
      return graph.node_name(path.endpoint()) == "ff_2/D";
    };
    const Mode mode = kind == CheckKind::Hold ? Mode::Early : Mode::Late;
    const std::vector<TimingPath> paths =
        PathEnumerator(*stack.timer, 4, mode).all_paths();
    ASSERT_TRUE(std::any_of(paths.begin(), paths.end(), waived));
    {
      const PathEvaluator evaluator(*stack.timer, stack.table);
      const MgbaProblem problem(*stack.timer, evaluator, paths, 0.02, kind);
      ASSERT_GT(problem.num_rows(), 0u);
      for (std::size_t r = 0; r < problem.num_rows(); ++r) {
        EXPECT_FALSE(waived(paths[problem.row_path(r)]));
        EXPECT_TRUE(std::isfinite(problem.rhs()[r]));
      }
    }
    MgbaFlowOptions options;
    options.check_kind = kind;
    options.only_violated = false;
    const MgbaFlowResult fit =
        run_mgba_flow(*stack.timer, stack.table, options);
    EXPECT_GT(fit.fitted_paths, 0u);
    EXPECT_TRUE(std::isfinite(fit.mse_before));
    EXPECT_TRUE(std::isfinite(fit.mse_after));
    for (const double w : fit.instance_weights) ASSERT_TRUE(std::isfinite(w));
  }
}

TEST(MgbaFramework, MgbaPathSlacksBoundedByPba) {
  // The Eq. (5) no-optimism property, checked per path: after a fit over
  // all candidate paths with a strong penalty, the mGBA slack of every
  // re-enumerated path stays within tolerance of its golden PBA slack.
  GeneratedStack stack(small_options(73), 1800.0);
  MgbaFlowOptions options;
  options.epsilon = 0.02;
  options.only_violated = false;  // constrain positive-slack paths too
  options.solver_options.penalty_weight = 100.0;
  run_mgba_flow(*stack.timer, stack.table, options);
  Timer& timer = *stack.timer;

  const PathEnumerator enumerator(timer, 6);
  const PathEvaluator evaluator(timer, stack.table);
  std::size_t checked = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const PathTiming pt = evaluator.evaluate(path);
    // gba_slack_ps under active weights IS the mGBA path slack.
    const double budget = 0.05 * std::abs(pt.pba_slack_ps) + 20.0;
    EXPECT_LE(pt.gba_slack_ps, pt.pba_slack_ps + budget)
        << "endpoint " << timer.graph().node_name(path.endpoint());
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST(MgbaFramework, ThrowawayEngineFitMatchesHubFit) {
  // A fit without a hub cold-builds a throwaway PathEngine; one with a hub
  // syncs the hub's persistent engine, which the second round finds holding
  // the first round's tables. Twin stacks under the same resizes must fit
  // bit for bit alike.
  for (const CheckKind check : {CheckKind::Setup, CheckKind::Hold}) {
    GeneratedStack plain(small_options(76), 1800.0);
    GeneratedStack served(small_options(76), 1800.0);
    PathEngineHub hub(*served.timer);
    MgbaFlowOptions options;
    options.check_kind = check;
    const auto plan = testing_helpers::resize_plan(
        plain.library, plain.design(), 4, 7601);
    for (int round = 0; round < 2; ++round) {
      const std::string what = std::string(check == CheckKind::Hold
                                               ? "hold"
                                               : "setup") +
                               " round " + std::to_string(round);
      if (round == 1) {
        for (const auto& [inst, cell] : plan) {
          for (GeneratedStack* stack : {&plain, &served}) {
            stack->design().resize_instance(inst, cell);
            stack->timer->invalidate_instance(inst);
          }
        }
      }
      const MgbaFlowResult a =
          run_mgba_flow(*plain.timer, plain.table, options);
      const MgbaFlowResult b =
          run_mgba_flow(*served.timer, served.table, options, &hub);
      EXPECT_GT(a.fitted_paths, 0u) << what;
      EXPECT_EQ(a.candidate_paths, b.candidate_paths) << what;
      EXPECT_EQ(a.violated_paths, b.violated_paths) << what;
      EXPECT_EQ(a.fitted_paths, b.fitted_paths) << what;
      EXPECT_EQ(a.solver_iterations, b.solver_iterations) << what;
      ASSERT_EQ(a.instance_weights.size(), b.instance_weights.size()) << what;
      for (std::size_t i = 0; i < a.instance_weights.size(); ++i) {
        ASSERT_EQ(float_bits(a.instance_weights[i]),
                  float_bits(b.instance_weights[i]))
            << what << " instance " << i;
      }
    }
    EXPECT_EQ(hub.num_engines(), 1u);
  }
}

TEST(MgbaFramework, SolverKindsAllRun) {
  GeneratedStack stack(small_options(74), 1800.0);
  for (const MgbaSolverKind kind :
       {MgbaSolverKind::GradientDescent, MgbaSolverKind::Scg,
        MgbaSolverKind::ScgWithRowSampling}) {
    MgbaFlowOptions options;
    options.solver = kind;
    options.solver_options.max_iterations = 200;
    const MgbaFlowResult r = run_mgba_flow(*stack.timer, stack.table,
                                           options);
    EXPECT_LE(r.mse_after, r.mse_before * 1.5)
        << "solver kind " << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace mgba
