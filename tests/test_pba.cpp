#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "pba/path_report.hpp"
#include "test_helpers.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

GeneratorOptions tiny_options(std::uint64_t seed) {
  GeneratorOptions opt;
  opt.seed = seed;
  opt.num_gates = 40;
  opt.num_flops = 6;
  opt.num_inputs = 4;
  opt.num_outputs = 4;
  opt.target_depth = 8;
  return opt;
}

/// Brute-force enumeration of every data path arrival into an endpoint.
std::vector<double> brute_force_arrivals(const Timer& timer, NodeId endpoint) {
  const TimingGraph& graph = timer.graph();
  std::vector<bool> is_launch(graph.num_nodes(), false);
  for (const NodeId l : graph.launch_nodes()) is_launch[l] = true;

  std::vector<double> arrivals;
  std::function<void(NodeId, double)> dfs = [&](NodeId node, double suffix) {
    if (is_launch[node]) {
      arrivals.push_back(timer.arrival(node, Mode::Late) + suffix);
      return;
    }
    for (const ArcId a : graph.fanin(node)) {
      const TimingArc& arc = graph.arc(a);
      if (graph.node(arc.from).is_clock_network) continue;
      dfs(arc.from, suffix + timer.arc_delay(a, Mode::Late));
    }
  };
  dfs(endpoint, 0.0);
  std::sort(arrivals.rbegin(), arrivals.rend());
  return arrivals;
}

class PathEnumBruteForceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PathEnumBruteForceTest, KBestMatchesBruteForce) {
  GeneratedStack stack(tiny_options(GetParam()));
  const Timer& timer = *stack.timer;
  constexpr std::size_t kK = 12;
  const PathEnumerator enumerator(timer, kK);

  for (const NodeId endpoint : timer.graph().endpoints()) {
    const auto exact = brute_force_arrivals(timer, endpoint);
    const auto paths = enumerator.paths_to(endpoint);
    const std::size_t expect = std::min(kK, exact.size());
    ASSERT_EQ(paths.size(), expect);
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_NEAR(paths[i].gba_arrival_ps, exact[i], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathEnumBruteForceTest,
                         ::testing::Values(101, 202, 303));

TEST(PathEnum, PathsAreStructurallyValid) {
  GeneratedStack stack(small_options(55));
  const Timer& timer = *stack.timer;
  const TimingGraph& graph = timer.graph();
  const PathEnumerator enumerator(timer, 5);
  std::size_t checked = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    ASSERT_EQ(path.arcs.size() + 1, path.nodes.size());
    // Arcs connect consecutive nodes.
    for (std::size_t i = 0; i < path.arcs.size(); ++i) {
      EXPECT_EQ(graph.arc(path.arcs[i]).from, path.nodes[i]);
      EXPECT_EQ(graph.arc(path.arcs[i]).to, path.nodes[i + 1]);
    }
    // Starts at a launch node, ends at an endpoint.
    const auto& launches = graph.launch_nodes();
    EXPECT_NE(std::find(launches.begin(), launches.end(), path.launch()),
              launches.end());
    const auto& endpoints = graph.endpoints();
    EXPECT_NE(std::find(endpoints.begin(), endpoints.end(), path.endpoint()),
              endpoints.end());
    // Recorded arrival equals the arc-delay sum from the launch arrival.
    double arrival = timer.arrival(path.launch(), Mode::Late);
    for (const ArcId a : path.arcs) arrival += timer.arc_delay(a, Mode::Late);
    EXPECT_NEAR(arrival, path.gba_arrival_ps, 1e-6);
    ++checked;
  }
  EXPECT_GT(checked, 200u);
}

TEST(PathEnum, WorstPathMatchesGbaArrival) {
  // The #1 path per endpoint must reproduce the timer's merged arrival.
  GeneratedStack stack(small_options(56));
  const Timer& timer = *stack.timer;
  const PathEnumerator enumerator(timer, 3);
  for (const NodeId e : timer.graph().endpoints()) {
    const auto paths = enumerator.paths_to(e);
    if (paths.empty()) continue;
    EXPECT_NEAR(paths[0].gba_arrival_ps, timer.arrival(e, Mode::Late), 1e-6);
    // Sorted descending by arrival.
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_LE(paths[i].gba_arrival_ps, paths[i - 1].gba_arrival_ps + 1e-9);
    }
  }
}

TEST(PathEnum, LaunchCheckIdentifiesFlop) {
  GeneratedStack stack(small_options(57));
  const Timer& timer = *stack.timer;
  const TimingGraph& graph = timer.graph();
  const PathEnumerator enumerator(timer, 4);
  std::size_t ff_launches = 0, port_launches = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const TimingNode& launch = graph.node(path.launch());
    if (launch.terminal.kind == Terminal::Kind::Port) {
      EXPECT_FALSE(path.launch_check.has_value());
      ++port_launches;
    } else {
      ASSERT_TRUE(path.launch_check.has_value());
      EXPECT_EQ(graph.checks()[*path.launch_check].inst, launch.terminal.id);
      ++ff_launches;
    }
  }
  EXPECT_GT(ff_launches, 0u);
  EXPECT_GT(port_launches, 0u);
}

TEST(PathEval, PbaNeverMorePessimisticThanGba) {
  GeneratedStack stack(small_options(58), 2500.0);
  const Timer& timer = *stack.timer;
  const PathEvaluator evaluator(timer, stack.table);
  const PathEnumerator enumerator(timer, 6);
  for (const TimingPath& path : enumerator.all_paths()) {
    const PathTiming pt = evaluator.evaluate(path);
    EXPECT_GE(pt.pba_slack_ps, pt.gba_slack_ps - 1e-6);
    EXPECT_LE(pt.pba_arrival_ps, pt.gba_arrival_ps + 1e-6);
  }
}

TEST(PathEval, EachPessimismSourceContributes) {
  // Disabling a PBA feature can only make PBA more pessimistic (closer to
  // GBA): slews-off <= slews-on, crpr-off <= crpr-on, per path.
  GeneratedStack stack(small_options(59), 2500.0);
  const Timer& timer = *stack.timer;
  const PathEnumerator enumerator(timer, 4);

  PathEvalOptions full;
  PathEvalOptions no_slew = full;
  no_slew.recompute_path_slews = false;
  PathEvalOptions no_crpr = full;
  no_crpr.exact_crpr = false;
  const PathEvaluator eval_full(timer, stack.table, full);
  const PathEvaluator eval_no_slew(timer, stack.table, no_slew);
  const PathEvaluator eval_no_crpr(timer, stack.table, no_crpr);

  double slew_gain = 0.0, crpr_gain = 0.0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const double s_full = eval_full.evaluate(path).pba_slack_ps;
    const double s_no_slew = eval_no_slew.evaluate(path).pba_slack_ps;
    const double s_no_crpr = eval_no_crpr.evaluate(path).pba_slack_ps;
    EXPECT_LE(s_no_slew, s_full + 1e-6);
    EXPECT_LE(s_no_crpr, s_full + 1e-6);
    slew_gain += s_full - s_no_slew;
    crpr_gain += s_full - s_no_crpr;
  }
  EXPECT_GT(slew_gain, 0.0);
  EXPECT_GT(crpr_gain, 0.0);
}

TEST(PathEval, GbaPathSlackConsistentWithTimer) {
  GeneratedStack stack(small_options(60), 2500.0);
  const Timer& timer = *stack.timer;
  const PathEvaluator evaluator(timer, stack.table);
  const PathEnumerator enumerator(timer, 1);
  for (const NodeId e : timer.graph().endpoints()) {
    const auto paths = enumerator.paths_to(e);
    if (paths.empty()) continue;
    // The worst path's GBA slack equals the endpoint slack.
    EXPECT_NEAR(evaluator.gba_path_slack(paths[0]),
                timer.slack(e, Mode::Late), 1e-6);
  }
}

TEST(PathEval, UncertaintyMovesGbaAndPbaAlike) {
  // Clock uncertainty tightens GBA's and golden PBA's setup requirement by
  // the same amount at flip-flop checks and output ports alike, so no
  // path's PBA-GBA gap moves.
  TimingConstraints uncertain;
  uncertain.clock_uncertainty_ps = 50.0;
  GeneratedStack plain(small_options(63), 2500.0);
  GeneratedStack tight(small_options(63), 2500.0, uncertain);
  const PathEvaluator eval_plain(*plain.timer, plain.table);
  const PathEvaluator eval_tight(*tight.timer, tight.table);
  const auto paths_plain = PathEnumerator(*plain.timer, 4).all_paths();
  const auto paths_tight = PathEnumerator(*tight.timer, 4).all_paths();
  ASSERT_EQ(paths_plain.size(), paths_tight.size());
  const TimingGraph& graph = plain.timer->graph();
  std::size_t check_paths = 0;
  std::size_t port_paths = 0;
  for (std::size_t i = 0; i < paths_plain.size(); ++i) {
    ASSERT_EQ(paths_plain[i].nodes, paths_tight[i].nodes);
    const PathTiming a = eval_plain.evaluate(paths_plain[i]);
    const PathTiming b = eval_tight.evaluate(paths_tight[i]);
    EXPECT_NEAR(b.pba_slack_ps - b.gba_slack_ps,
                a.pba_slack_ps - a.gba_slack_ps, 1e-6);
    EXPECT_NEAR(b.pba_slack_ps, a.pba_slack_ps - 50.0, 1e-6);
    const NodeId endpoint = paths_plain[i].endpoint();
    if (graph.check_at(endpoint)) {
      ++check_paths;
    } else if (graph.node(endpoint).terminal.kind == Terminal::Kind::Port) {
      ++port_paths;
    }
  }
  EXPECT_GT(check_paths, 20u);
  EXPECT_GT(port_paths, 0u);
}

TEST(PathEval, FalsePathReadsInfiniteSlackInBothModes) {
  TimingConstraints constraints;
  constraints.false_path_endpoints.insert("ff_2/D");
  GeneratedStack stack(small_options(64), 2500.0, constraints);
  const Timer& timer = *stack.timer;
  NodeId endpoint = kInvalidNode;
  for (const NodeId e : timer.graph().endpoints()) {
    if (timer.graph().node_name(e) == "ff_2/D") endpoint = e;
  }
  ASSERT_NE(endpoint, kInvalidNode);
  const PathEvaluator evaluator(timer, stack.table);
  for (const Mode mode : {Mode::Late, Mode::Early}) {
    const auto paths = PathEnumerator(timer, 3, mode).paths_to(endpoint);
    ASSERT_FALSE(paths.empty());
    for (const TimingPath& path : paths) {
      const PathTiming pt = evaluator.evaluate(path, mode);
      EXPECT_EQ(pt.gba_slack_ps, kInfPs);
      EXPECT_EQ(pt.pba_slack_ps, kInfPs);
    }
  }
}

TEST(PathReport, ComparisonRendersAndIsConsistent) {
  GeneratedStack stack(small_options(62), 2000.0);
  const Timer& timer = *stack.timer;
  const PathEnumerator enumerator(timer, 1);
  // Take the worst path of the worst endpoint.
  NodeId worst = timer.graph().endpoints().front();
  for (const NodeId e : timer.graph().endpoints()) {
    if (timer.slack(e, Mode::Late) < timer.slack(worst, Mode::Late)) {
      worst = e;
    }
  }
  const auto paths = enumerator.paths_to(worst);
  ASSERT_FALSE(paths.empty());
  const std::string text =
      report_path_comparison(timer, stack.table, paths[0]);
  EXPECT_NE(text.find("pba_derate"), std::string::npos);
  EXPECT_NE(text.find("pessimism recovered="), std::string::npos);
  // One line per path node plus headers/summary.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  EXPECT_GE(lines, paths[0].nodes.size());
}

TEST(PathReport, PbaColumnIsTheEvaluatorsAtAScaledCorner) {
  GeneratedStack stack(small_options(62), 2000.0);
  Timer& timer = *stack.timer;
  AnalysisCorner slow;
  slow.name = "slow";
  slow.scaling.delay = 1.15;
  slow.scaling.slew = 1.08;
  timer.set_corners({slow});
  timer.update_timing();
  const NodeId worst = timer.worst_endpoint_merged(Mode::Late);
  const auto paths = PathEnumerator(timer, 1).paths_to(worst);
  ASSERT_FALSE(paths.empty());
  const std::string text =
      report_path_comparison(timer, stack.table, paths[0]);
  // The stage line just above the slack summary ends with the running PBA
  // arrival at the endpoint.
  const std::size_t summary = text.find("\nslack:");
  ASSERT_NE(summary, std::string::npos);
  const std::size_t last_column = text.rfind(' ', summary);
  const double report_arrival =
      std::stod(text.substr(last_column, summary - last_column));
  const PathEvaluator evaluator(timer, stack.table);
  EXPECT_NEAR(report_arrival, evaluator.evaluate(paths[0]).pba_arrival_ps,
              0.005);
}

TEST(PathEval, DepthAndDistanceReported) {
  GeneratedStack stack(small_options(61));
  const Timer& timer = *stack.timer;
  const PathEvaluator evaluator(timer, stack.table);
  const PathEnumerator enumerator(timer, 2);
  for (const TimingPath& path : enumerator.all_paths()) {
    const PathTiming pt = evaluator.evaluate(path);
    EXPECT_GE(pt.depth, 0u);
    EXPECT_GE(pt.distance_um, 0.0);
    EXPECT_GE(pt.derate_pba, 1.0);
  }
}

}  // namespace
}  // namespace mgba
