#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "linalg/sparse_accumulator.hpp"
#include "mgba/framework.hpp"
#include "mgba/metrics.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path_enum.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

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

/// The sibling an ECO may resize \p inst to, or nullopt. Clock-tree
/// buffers are skipped: resizing one escalates to a clock-network
/// invalidation, which poisons the ECO log and forces a cold rebuild.
std::optional<std::size_t> eco_sibling(GeneratedStack& stack,
                                       InstanceId inst) {
  const auto sibling = sizable_sibling(stack.library, stack.design(), inst);
  if (!sibling.has_value()) return std::nullopt;
  const LibCell& cell = stack.design().cell_of(inst);
  const NodeId out = stack.timer->graph().node_of_pin(
      inst, static_cast<std::uint32_t>(cell.output_pin()));
  if (out == kInvalidNode ||
      stack.timer->graph().node(out).is_clock_network) {
    return std::nullopt;
  }
  return sibling;
}

/// Applies a small deterministic ECO: resizes \p count gates picked by a
/// seeded RNG, invalidating each in the timer (value-only — no rebuild, so
/// the ECO log stays clean). Returns the touched instances.
std::vector<InstanceId> apply_small_eco(GeneratedStack& stack,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<InstanceId> touched;
  Rng rng(seed);
  while (touched.size() < count) {
    const auto inst = static_cast<InstanceId>(
        rng.uniform_index(stack.design().num_instances()));
    const auto sibling = eco_sibling(stack, inst);
    if (!sibling.has_value()) continue;
    stack.design().resize_instance(inst, *sibling);
    stack.timer->invalidate_instance(inst);
    touched.push_back(inst);
  }
  return touched;
}

/// Every gate an ECO may resize.
std::vector<InstanceId> sizable_instances(GeneratedStack& stack) {
  std::vector<InstanceId> out;
  for (std::size_t i = 0; i < stack.design().num_instances(); ++i) {
    const auto inst = static_cast<InstanceId>(i);
    if (eco_sibling(stack, inst).has_value()) out.push_back(inst);
  }
  return out;
}

/// Resizes \p count distinct sizable gates, drawn by a seeded RNG; value
/// only, like apply_small_eco.
void apply_large_eco(GeneratedStack& stack, std::size_t count,
                     std::uint64_t seed) {
  const std::vector<InstanceId> sizable = sizable_instances(stack);
  Rng rng(seed);
  for (const std::size_t k :
       rng.sample_without_replacement(sizable.size(), count)) {
    const InstanceId inst = sizable[k];
    stack.design().resize_instance(inst, *eco_sibling(stack, inst));
    stack.timer->invalidate_instance(inst);
  }
}

/// The no-optimism measure. Clears \p stack's weights and judges both
/// weight vectors on one fresh problem (fresh enumeration, fresh golden
/// PBA, no cached session state): a row is optimistic when its model slack
/// exceeds the Eq. (5) bound s_pba + eps|s_pba| by more than 1 ps of
/// penalty softness. The warm weights may leave at most the cold fit's
/// optimistic rows plus 2 % of the rows plus one.
void expect_optimism_within_cold(GeneratedStack& stack,
                                 std::span<const double> warm_weights,
                                 std::span<const double> cold_weights,
                                 std::size_t paths_per_endpoint,
                                 double epsilon) {
  stack.timer->set_instance_weights(kDefaultCorner, {});
  stack.timer->update_timing();
  const PathEnumerator enumerator(*stack.timer, paths_per_endpoint);
  const std::vector<TimingPath> paths = enumerator.all_paths();
  const PathEvaluator evaluator(*stack.timer, stack.table);
  const MgbaProblem fresh(*stack.timer, evaluator, paths, epsilon);

  const auto optimism_count = [&](std::span<const double> weights) {
    std::vector<double> x(fresh.num_cols(), 0.0);
    for (std::size_t c = 0; c < fresh.num_cols(); ++c) {
      x[c] = weights[fresh.column_instance(c)];
    }
    std::size_t optimistic = 0;
    for (std::size_t i = 0; i < fresh.num_rows(); ++i) {
      const double slack = fresh.model_slack(i, x);
      const double pba = fresh.pba_slack()[i];
      const double bound = pba + epsilon * std::abs(pba);
      if (slack > bound + 1.0) ++optimistic;
    }
    return optimistic;
  };
  const std::size_t warm_optimistic = optimism_count(warm_weights);
  const std::size_t cold_optimistic = optimism_count(cold_weights);
  EXPECT_LE(static_cast<double>(warm_optimistic),
            static_cast<double>(cold_optimistic) +
                0.02 * static_cast<double>(fresh.num_rows()) + 1.0)
      << warm_optimistic << " warm vs " << cold_optimistic
      << " cold optimistic rows of " << fresh.num_rows();
}

/// Shared fixture: a violated design with its full mGBA problem.
class SolverFastpathTest : public ::testing::Test {
 protected:
  SolverFastpathTest()
      : stack_(small_options(91), /*clock_period_ps=*/1800.0),
        evaluator_(*stack_.timer, stack_.table) {
    const PathEnumerator enumerator(*stack_.timer, 10);
    paths_ = enumerator.all_paths();
    problem_ = std::make_unique<MgbaProblem>(*stack_.timer, evaluator_,
                                             paths_, 0.02);
  }

  static SolverOptions solver_options() {
    SolverOptions options;
    options.max_iterations = 600;
    options.seed = 12345;
    return options;
  }

  GeneratedStack stack_;
  PathEvaluator evaluator_;
  std::vector<TimingPath> paths_;
  std::unique_ptr<MgbaProblem> problem_;
};

// --- sparse gradient kernel ------------------------------------------------

TEST_F(SolverFastpathTest, SparseGradientMatchesDenseBitwise) {
  ASSERT_GE(problem_->num_rows(), 200u);  // enough to hit the parallel path
  std::vector<std::size_t> rows(problem_->num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;

  // A non-trivial x so every row contributes through both terms.
  std::vector<double> x(problem_->num_cols(), 0.0);
  Rng rng(7);
  for (double& v : x) v = 0.1 * (rng.uniform() - 0.5);

  std::vector<double> dense(problem_->num_cols(), 0.0);
  problem_->gradient_rows(rows, x, 10.0, dense);

  SparseAccumulator sparse;
  std::vector<SparseAccumulator> scratch;
  problem_->gradient_rows_sparse(rows, x, 10.0, sparse, scratch);

  for (std::size_t j = 0; j < problem_->num_cols(); ++j) {
    EXPECT_EQ(dense[j], sparse[j]) << "column " << j;
  }
}

TEST_F(SolverFastpathTest, SparseGradientBitwiseAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::size_t> rows(problem_->num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<double> x(problem_->num_cols(), 0.0);
  Rng rng(8);
  for (double& v : x) v = 0.1 * (rng.uniform() - 0.5);

  set_num_threads(1);
  SparseAccumulator g1;
  std::vector<SparseAccumulator> s1;
  problem_->gradient_rows_sparse(rows, x, 10.0, g1, s1);

  set_num_threads(4);
  SparseAccumulator g4;
  std::vector<SparseAccumulator> s4;
  problem_->gradient_rows_sparse(rows, x, 10.0, g4, s4);

  for (std::size_t j = 0; j < problem_->num_cols(); ++j) {
    EXPECT_EQ(g1[j], g4[j]) << "column " << j;
  }
}

// --- sparse SCG vs. the dense reference ------------------------------------

TEST_F(SolverFastpathTest, SparseScgBitIdenticalToDense) {
  const SolverOptions options = solver_options();
  const SolveResult dense = solve_scg_dense_reference(*problem_, {}, options);
  const SolveResult sparse = solve_scg(*problem_, {}, options);

  EXPECT_EQ(dense.iterations, sparse.iterations);
  EXPECT_EQ(dense.final_objective, sparse.final_objective);
  ASSERT_EQ(dense.x.size(), sparse.x.size());
  for (std::size_t j = 0; j < dense.x.size(); ++j) {
    EXPECT_EQ(dense.x[j], sparse.x[j]) << "column " << j;
  }
}

TEST_F(SolverFastpathTest, SparseScgBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  const SolverOptions options = solver_options();

  set_num_threads(1);
  const SolveResult one = solve_scg(*problem_, {}, options);
  set_num_threads(4);
  const SolveResult four = solve_scg(*problem_, {}, options);

  EXPECT_EQ(one.iterations, four.iterations);
  ASSERT_EQ(one.x.size(), four.x.size());
  for (std::size_t j = 0; j < one.x.size(); ++j) {
    EXPECT_EQ(one.x[j], four.x[j]) << "column " << j;
  }
}

TEST_F(SolverFastpathTest, WarmStartConvergesToSameQuality) {
  SolverOptions options = solver_options();
  const SolveResult cold = solve_scg(*problem_, {}, options);
  // Warm-starting from the cold solution must not regress the objective.
  SolverScratch scratch;
  const SolveResult warm =
      solve_scg(*problem_, {}, options, cold.x, &scratch);
  EXPECT_LE(warm.final_objective, cold.final_objective * (1.0 + 1e-9));
}

// --- incremental refit session ---------------------------------------------

MgbaFlowOptions refit_flow_options() {
  MgbaFlowOptions options;
  options.paths_per_endpoint = 8;
  options.candidate_paths_per_endpoint = 8;
  options.solver = MgbaSolverKind::Scg;
  options.solver_options.max_iterations = 600;
  options.solver_options.seed = 4242;
  return options;
}

/// A blocked design: taps never cross blocks, so an ECO's cone — and hence
/// the stale row set — is confined to the touched blocks. This is the
/// SoC-like shape the incremental refit is built for; on a tiny
/// single-cone design most paths genuinely overlap any ECO.
GeneratorOptions blocked_options(std::uint64_t seed) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.num_gates = 3200;
  opt.num_flops = 320;
  opt.num_inputs = 32;
  opt.num_outputs = 32;
  opt.target_depth = 24;
  opt.num_blocks = 32;
  return opt;
}

TEST(SolverFastpathRefit, WarmRefitReevaluatesOnlyTouchedRows) {
  GeneratedStack stack(blocked_options(92), 1800.0);
  MgbaRefitSession session(*stack.timer, stack.table, refit_flow_options());
  const MgbaFlowResult cold = session.fit();
  ASSERT_TRUE(session.has_fit());
  ASSERT_GT(cold.fitted_paths, 0u);

  // <0.1% ECO: resize two gates out of 3200.
  apply_small_eco(stack, 2, 17);
  const MgbaFlowResult warm = session.refit();

  const RefitStats& stats = session.stats();
  EXPECT_EQ(stats.warm_refits, 1u);
  EXPECT_EQ(stats.cold_rebuilds, 0u);
  EXPECT_EQ(stats.eco_instances, 2u);
  ASSERT_GT(stats.rows_total, 0u);
  // The stats counter is the proof that the refit is O(touched): a <1% ECO
  // must re-measure well under 10% of the rows.
  EXPECT_LT(static_cast<double>(stats.rows_reevaluated),
            0.10 * static_cast<double>(stats.rows_total))
      << stats.rows_reevaluated << " of " << stats.rows_total
      << " rows re-evaluated";
  // And the refit still improves the model like a fit does.
  EXPECT_LE(warm.mse_after, warm.mse_before);
}

TEST(SolverFastpathRefit, RefitMatchesColdRebuildWithinTolerance) {
  // Two identical stacks receive the same ECO; one refits incrementally,
  // the other fits from scratch. The refreshed model must agree with the
  // cold rebuild on its quality metrics (the path set is frozen at the
  // first fit, so exact equality is not expected).
  GeneratedStack warm_stack(small_options(93), 1800.0);
  GeneratedStack cold_stack(small_options(93), 1800.0);
  const MgbaFlowOptions options = refit_flow_options();

  MgbaRefitSession warm_session(*warm_stack.timer, warm_stack.table, options);
  warm_session.fit();
  ASSERT_TRUE(warm_session.has_fit());

  apply_small_eco(warm_stack, 2, 23);
  apply_small_eco(cold_stack, 2, 23);

  const MgbaFlowResult warm = warm_session.refit();
  const MgbaFlowResult cold =
      run_mgba_flow(*cold_stack.timer, cold_stack.table, options);

  EXPECT_NEAR(warm.mse_after, cold.mse_after, 0.05);
  EXPECT_NEAR(warm.pass_ratio_after, cold.pass_ratio_after, 0.05);
  // Both leave their timers in a consistent, fitted state: mGBA slacks at
  // every endpoint are no more pessimistic than before the fit.
  EXPECT_GE(warm.pass_ratio_after, warm.pass_ratio_before - 1e-12);
}

TEST(SolverFastpathRefit, NoOptimismBoundHonoredOnRefit) {
  // Two identical stacks receive the same ECO; one refits incrementally,
  // one fits cold. Both solutions are then judged on the SAME fresh
  // problem (fresh enumeration, fresh golden PBA — no cached session
  // state): the warm refit must honor the Eq. (5) no-optimism bound at
  // least as well as the cold rebuild does, up to the penalty softness
  // both share.
  GeneratedStack warm_stack(small_options(94), 1800.0);
  GeneratedStack cold_stack(small_options(94), 1800.0);
  const MgbaFlowOptions options = refit_flow_options();

  MgbaRefitSession session(*warm_stack.timer, warm_stack.table, options);
  session.fit();
  ASSERT_TRUE(session.has_fit());

  apply_small_eco(warm_stack, 3, 31);
  apply_small_eco(cold_stack, 3, 31);
  const MgbaFlowResult warm = session.refit();
  const MgbaFlowResult cold =
      run_mgba_flow(*cold_stack.timer, cold_stack.table, options);

  expect_optimism_within_cold(warm_stack, warm.instance_weights,
                              cold.instance_weights, 8, 0.02);
}

TEST(SolverFastpathRefit, PoisonedLogFallsBackToCold) {
  GeneratedStack stack(small_options(95), 1800.0);
  MgbaRefitSession session(*stack.timer, stack.table, refit_flow_options());
  session.fit();
  ASSERT_TRUE(session.has_fit());

  // A derate reload is structural for the fit: every matrix entry moves.
  const Timer::EcoMark mark = stack.timer->eco_mark();
  stack.timer->set_instance_derates(
      compute_gba_derates(stack.timer->graph(), stack.table));
  EXPECT_TRUE(stack.timer->eco_poisoned_since(mark));

  const MgbaFlowResult result = session.refit();
  EXPECT_EQ(session.stats().cold_rebuilds, 1u);
  EXPECT_EQ(session.stats().warm_refits, 0u);
  EXPECT_GT(result.fitted_paths, 0u);
  // The cold fallback takes a fresh mark: a value-only ECO now refits warm.
  apply_small_eco(stack, 1, 41);
  session.refit();
  EXPECT_EQ(session.stats().warm_refits, 1u);
}

TEST(SolverFastpathRefit, WarmRefitBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::vector<double>> weights;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(96), 1800.0);
    MgbaRefitSession session(*stack.timer, stack.table, refit_flow_options());
    session.fit();
    apply_small_eco(stack, 2, 53);
    const MgbaFlowResult warm = session.refit();
    weights.push_back(warm.instance_weights);
  }
  ASSERT_EQ(weights[0].size(), weights[1].size());
  for (std::size_t i = 0; i < weights[0].size(); ++i) {
    EXPECT_EQ(weights[0][i], weights[1][i]) << "instance " << i;
  }
}

TEST(SolverFastpathRefit, StaleRowRuleIsComplete) {
  // Completeness oracle for the stale-row rule — a row is stale iff its
  // endpoint lies in the forward cone of the touched instances. Twin B
  // receives twin A's ECOs and also invalidates every sizable gate without
  // resizing it, so all of B's rows go stale and B re-measures every one.
  // A row the rule left out of A's refresh that would have re-measured to
  // other bits would make the twins' weights differ.
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " thread(s)");
    set_num_threads(threads);
    GeneratedStack a(small_options(99), 1800.0);
    GeneratedStack b(small_options(99), 1800.0);
    const std::vector<InstanceId> sizable = sizable_instances(b);
    MgbaRefitSession session_a(*a.timer, a.table, refit_flow_options());
    MgbaRefitSession session_b(*b.timer, b.table, refit_flow_options());
    session_a.fit();
    session_b.fit();
    ASSERT_TRUE(session_a.has_fit());
    ASSERT_TRUE(session_b.has_fit());

    // The oracle says something only where A leaves rows out.
    std::size_t rows_left_out = 0;
    for (std::uint64_t round = 0; round < 20; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      apply_small_eco(a, 2, 3000 + round);
      apply_small_eco(b, 2, 3000 + round);
      for (const InstanceId inst : sizable) b.timer->invalidate_instance(inst);
      const MgbaFlowResult warm_a = session_a.refit();
      const MgbaFlowResult warm_b = session_b.refit();
      const RefitStats& stats_a = session_a.stats();
      const RefitStats& stats_b = session_b.stats();
      ASSERT_EQ(stats_a.warm_refits, round + 1);
      ASSERT_EQ(stats_b.warm_refits, round + 1);
      EXPECT_EQ(stats_b.rows_reevaluated, stats_b.rows_total);
      EXPECT_GE(stats_b.rows_reevaluated, stats_a.rows_reevaluated);
      rows_left_out += stats_a.rows_total - stats_a.rows_reevaluated;
      ASSERT_EQ(warm_a.instance_weights.size(), warm_b.instance_weights.size());
      ASSERT_EQ(std::memcmp(warm_a.instance_weights.data(),
                            warm_b.instance_weights.data(),
                            warm_a.instance_weights.size() * sizeof(double)),
                0);
    }
    EXPECT_GT(rows_left_out, 0u);
  }
}

// --- the warm budget under default options ---------------------------------
//
// The tests above cap every solve at 600 iterations, so none of them
// reaches the default max_iterations. These run the default flow options:
// a cold Algorithm-1 fit, then warm refits that take one round's budget
// (sampling_options.inner_iterations), judged against a twin stack that
// receives the same ECOs and fits cold once. The fit-quality tests use the
// blocked 3200-gate design, where the ECOs stay a small share of the gates,
// as in an ECO loop: a refit keeps the path set of its cold fit, so once
// the ECOs rewrite a large share of a design (80 resizes of a 300-gate
// one) that set is stale at any budget.

TEST(SolverFastpathRefit, DefaultBudgetRefitsTrackColdFitOverFortyRounds) {
  // 80 resizes, 2.5 % of the gates.
  const MgbaFlowOptions options;
  GeneratedStack warm_stack(blocked_options(97), 1800.0);
  GeneratedStack cold_stack(blocked_options(97), 1800.0);
  MgbaRefitSession session(*warm_stack.timer, warm_stack.table, options);
  session.fit();
  ASSERT_TRUE(session.has_fit());

  MgbaFlowResult warm;
  for (std::uint64_t round = 0; round < 40; ++round) {
    apply_small_eco(warm_stack, 2, 1000 + round);
    apply_small_eco(cold_stack, 2, 1000 + round);
    warm = session.refit();
    EXPECT_LE(warm.solver_iterations,
              options.sampling_options.inner_iterations)
        << "round " << round;
  }
  EXPECT_EQ(session.stats().warm_refits, 40u);
  EXPECT_EQ(session.stats().cold_rebuilds, 0u);

  const MgbaFlowResult cold =
      run_mgba_flow(*cold_stack.timer, cold_stack.table, options);
  EXPECT_NEAR(warm.pass_ratio_after, cold.pass_ratio_after, 0.05);
  expect_optimism_within_cold(warm_stack, warm.instance_weights,
                              cold.instance_weights,
                              options.candidate_paths_per_endpoint,
                              options.epsilon);
}

TEST(SolverFastpathRefit, DefaultBudgetRefitAfterLargeEcoTracksColdFit) {
  // One ECO over 5 % of the sizable gates: far more rows go stale than in
  // the loop above, and the one warm round still fits as well as a cold
  // Algorithm-1 fit.
  const MgbaFlowOptions options;
  GeneratedStack warm_stack(blocked_options(98), 1800.0);
  GeneratedStack cold_stack(blocked_options(98), 1800.0);
  MgbaRefitSession session(*warm_stack.timer, warm_stack.table, options);
  session.fit();
  ASSERT_TRUE(session.has_fit());

  const std::size_t count =
      (sizable_instances(warm_stack).size() * 5 + 99) / 100;
  apply_large_eco(warm_stack, count, 61);
  apply_large_eco(cold_stack, count, 61);
  const MgbaFlowResult warm = session.refit();
  EXPECT_EQ(session.stats().eco_instances, count);
  EXPECT_EQ(session.stats().warm_refits, 1u);
  EXPECT_LE(warm.solver_iterations,
            options.sampling_options.inner_iterations);

  const MgbaFlowResult cold =
      run_mgba_flow(*cold_stack.timer, cold_stack.table, options);
  EXPECT_NEAR(warm.pass_ratio_after, cold.pass_ratio_after, 0.05);
  expect_optimism_within_cold(warm_stack, warm.instance_weights,
                              cold.instance_weights,
                              options.candidate_paths_per_endpoint,
                              options.epsilon);
}

TEST(SolverFastpathRefit, DefaultBudgetRefitBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::vector<double>> weights;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(96), 1800.0);
    MgbaRefitSession session(*stack.timer, stack.table, MgbaFlowOptions{});
    session.fit();
    MgbaFlowResult warm;
    for (std::uint64_t round = 0; round < 3; ++round) {
      apply_small_eco(stack, 2, 53 + round);
      warm = session.refit();
    }
    weights.push_back(warm.instance_weights);
  }
  ASSERT_EQ(weights[0].size(), weights[1].size());
  for (std::size_t i = 0; i < weights[0].size(); ++i) {
    EXPECT_EQ(weights[0][i], weights[1][i]) << "instance " << i;
  }
}

}  // namespace
}  // namespace mgba
