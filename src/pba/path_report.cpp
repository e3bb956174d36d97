#include "pba/path_report.hpp"

#include <vector>

#include "pba/path_eval.hpp"
#include "util/strings.hpp"

namespace mgba {

std::string report_path_comparison(const Timer& timer,
                                   const DerateTable& table,
                                   const TimingPath& path) {
  const TimingGraph& graph = timer.graph();
  // The PBA column is the evaluator's own walk, at corner 0's scaling.
  const PathEvaluator evaluator(timer, table);
  std::vector<double> pba_delays;
  const PathTiming pt = evaluator.evaluate(path, Mode::Late, &pba_delays);

  std::string out = str_format(
      "path %s -> %s: depth=%zu distance=%.1fum pba_derate=%.4f\n",
      graph.node_name(path.launch()).c_str(),
      graph.node_name(path.endpoint()).c_str(), pt.depth, pt.distance_um,
      pt.derate_pba);
  out += str_format("%-28s %9s %9s %9s %11s %11s\n", "stage", "base(ps)",
                    "gba(ps)", "pba(ps)", "gba arr", "pba arr");

  double gba_arrival = timer.arrival(path.nodes.front(), Mode::Late);
  double pba_arrival = gba_arrival;
  out += str_format("%-28s %9s %9s %9s %11.2f %11.2f\n",
                    graph.node_name(path.launch()).c_str(), "-", "-", "-",
                    gba_arrival, pba_arrival);

  for (std::size_t i = 0; i < path.arcs.size(); ++i) {
    const ArcId a = path.arcs[i];
    const double gba_delay = timer.arc_delay(a, Mode::Late);
    gba_arrival += gba_delay;
    pba_arrival += pba_delays[i];
    out += str_format("%-28s %9.2f %9.2f %9.2f %11.2f %11.2f\n",
                      graph.node_name(graph.arc(a).to).c_str(),
                      timer.arc_delay_base(a, Mode::Late), gba_delay,
                      pba_delays[i], gba_arrival, pba_arrival);
  }

  out += str_format(
      "slack: gba=%.2fps pba=%.2fps  pessimism recovered=%.2fps\n",
      pt.gba_slack_ps, pt.pba_slack_ps, pt.pba_slack_ps - pt.gba_slack_ps);
  const auto check = graph.check_at(path.endpoint());
  if (check.has_value()) {
    out += str_format("crpr: gba credit=%.2fps exact credit=%.2fps\n",
                      timer.check_timing(*check).crpr_credit_ps,
                      timer.crpr_credit_exact(path.launch_check, *check));
  }
  return out;
}

}  // namespace mgba
