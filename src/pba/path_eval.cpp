#include "pba/path_eval.hpp"

#include "aocv/depth_analysis.hpp"
#include "util/check.hpp"

namespace mgba {

PathEvaluator::PathEvaluator(std::shared_ptr<const TimingSnapshot> view,
                             const DerateTable& table, PathEvalOptions options,
                             CornerId corner)
    : view_(std::move(view)), table_(&table), options_(options),
      corner_(corner) {}

double PathEvaluator::gba_path_slack(const TimingPath& path,
                                     Mode mode) const {
  const double required = view_->required(path.endpoint(), mode, corner_);
  return mode == Mode::Late ? required - path.gba_arrival_ps
                            : path.gba_arrival_ps - required;
}

double PathEvaluator::plain_gba_arrival(const TimingPath& path,
                                        Mode mode) const {
  const TimingSnapshot& timer = *view_;
  const TimingGraph& graph = timer.graph();
  double arrival = timer.arrival(path.nodes.front(), mode, corner_);
  for (const ArcId a : path.arcs) {
    const TimingArc& arc = graph.arc(a);
    double factor = 1.0;
    if (arc.kind == TimingArc::Kind::Cell) {
      const DeratePair derate = timer.instance_derate(arc.inst, corner_);
      factor = mode == Mode::Early ? derate.early : derate.late;
    }
    arrival += timer.arc_delay_base(a, mode, corner_) * factor;
  }
  return arrival;
}

PathTiming PathEvaluator::evaluate(const TimingPath& path, Mode mode,
                                   std::vector<double>* stage_delays) const {
  const TimingSnapshot& timer = *view_;
  const TimingGraph& graph = timer.graph();
  const bool late = mode == Mode::Late;

  PathTiming out;
  out.gba_arrival_ps = path.gba_arrival_ps;
  out.gba_slack_ps = gba_path_slack(path, mode);
  out.depth = DepthAnalysis::path_depth(graph, path.nodes);
  out.distance_um = DepthAnalysis::path_distance_um(graph, path.nodes);
  const double depth = static_cast<double>(out.depth);
  out.derate_pba = late ? table_->late(depth, out.distance_um)
                        : table_->early(depth, out.distance_um);

  // --- PBA arrival: walk the path, re-derating (and optionally re-slewing)
  // every stage. The launch value (clock insertion + CK->Q, or the input
  // delay) is taken from the timer.
  const LibraryScaling& scaling = timer.corner_scaling(corner_);
  double arrival = timer.arrival(path.nodes.front(), mode, corner_);
  double slew = timer.slew(path.nodes.front(), mode, corner_);
  if (stage_delays != nullptr) stage_delays->clear();
  for (const ArcId a : path.arcs) {
    const TimingArc& arc = graph.arc(a);
    double base;
    if (options_.recompute_path_slews) {
      const ArcTiming t = timer.delay_calc().evaluate(graph, a, slew, scaling);
      base = t.delay_ps;
      slew = t.slew_ps;
    } else {
      base = timer.arc_delay_base(a, mode, corner_);
      slew = timer.slew(arc.to, mode, corner_);
    }
    double factor = 1.0;
    if (arc.kind == TimingArc::Kind::Cell) {
      // Combinational data cells take the path derate; any other cell arc
      // (e.g. a flip-flop CK->Q inside the launch) keeps its GBA factor.
      const DeratePair gba = timer.instance_derate(arc.inst, corner_);
      factor = timer.is_weighted(a) ? out.derate_pba
                                    : (late ? gba.late : gba.early);
    }
    const double delay = base * factor;
    arrival += delay;
    if (stage_delays != nullptr) stage_delays->push_back(delay);
  }
  out.pba_arrival_ps = arrival;

  // --- PBA required time at the endpoint: a check's comes from the rule
  // GBA's sweeps apply, with the path's own check time and credit; an
  // output port reads GBA's (-inf for hold, so the hold slack is +inf).
  const NodeId endpoint = path.endpoint();
  double required;
  if (const auto check_idx = graph.check_at(endpoint)) {
    const TimingCheck& check = graph.checks()[*check_idx];
    const Mode capture = late ? Mode::Early : Mode::Late;
    const double clk_slew = timer.slew(check.clock_node, capture, corner_);
    const double data_slew = options_.recompute_path_slews
                                 ? slew
                                 : timer.slew(endpoint, mode, corner_);
    const DelayCalculator& dc = timer.delay_calc();
    const double check_ps =
        late ? dc.setup_time(check, clk_slew, data_slew, scaling)
             : dc.hold_time(check, clk_slew, data_slew, scaling);
    const double credit =
        options_.exact_crpr
            ? timer.crpr_credit_exact(path.launch_check, *check_idx, corner_)
            : timer.check_timing(*check_idx, corner_).crpr_credit_ps;
    required = check_required(
        mode, timer.constraints(), timer.check_exception(*check_idx),
        timer.arrival(check.clock_node, capture, corner_), check_ps, credit);
  } else {
    required = timer.required(endpoint, mode, corner_);
  }
  out.pba_slack_ps =
      late ? required - out.pba_arrival_ps : out.pba_arrival_ps - required;
  return out;
}

}  // namespace mgba
