#include "opt/qor.hpp"

#include <algorithm>

#include "pba/path_engine.hpp"
#include "pba/path_eval.hpp"
#include "util/strings.hpp"

namespace mgba {

std::string QorMetrics::to_string() const {
  return str_format(
      "WNS=%.1fps TNS=%.1fps viol=%zu area=%.1fum2 leakage=%.1fnW buffers=%zu",
      wns_ps, tns_ps, violations, area_um2, leakage_nw, buffer_count);
}

std::size_t count_buffers(const Design& design) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const InstanceId id = static_cast<InstanceId>(i);
    if (design.is_disconnected(id)) continue;
    if (design.cell_of(id).kind == CellKind::Buffer) ++count;
  }
  return count;
}

namespace {

void fill_design_metrics(const Timer& timer, QorMetrics& qor) {
  const Design& design = timer.graph().design();
  qor.area_um2 = design.total_area();
  qor.leakage_nw = design.total_leakage();
  qor.buffer_count = count_buffers(design);
}

}  // namespace

QorMetrics measure_qor(const Timer& timer) {
  QorMetrics qor;
  qor.wns_ps = timer.wns_merged(Mode::Late);
  qor.tns_ps = timer.tns_merged(Mode::Late);
  qor.violations = timer.num_violations_merged(Mode::Late);
  fill_design_metrics(timer, qor);
  return qor;
}

QorMetrics measure_qor(const Timer& timer, CornerId corner) {
  QorMetrics qor;
  qor.wns_ps = timer.wns(Mode::Late, corner);
  qor.tns_ps = timer.tns(Mode::Late, corner);
  qor.violations = timer.num_violations(Mode::Late, corner);
  fill_design_metrics(timer, qor);
  return qor;
}

std::vector<QorMetrics> measure_qor_per_corner(const Timer& timer) {
  std::vector<QorMetrics> per_corner;
  per_corner.reserve(timer.num_corners());
  for (CornerId c = 0; c < timer.num_corners(); ++c) {
    per_corner.push_back(measure_qor(timer, c));
  }
  return per_corner;
}

QorMetrics measure_golden_qor(Timer& timer, const DerateTable& table,
                              PathEngineHub& path_hub,
                              std::size_t paths_per_endpoint) {
  PathEngine& engine = path_hub.engine(paths_per_endpoint);
  engine.sync();
  const PathEvaluator evaluator(engine.view(), table);
  QorMetrics qor;
  fill_design_metrics(timer, qor);
  for (const NodeId endpoint : timer.graph().endpoints()) {
    double slack = kInfPs;
    for (const TimingPath& path : engine.paths_to(endpoint)) {
      slack = std::min(slack, evaluator.evaluate(path).pba_slack_ps);
    }
    if (slack == kInfPs) continue;  // unreachable endpoint
    qor.wns_ps = std::min(qor.wns_ps, slack);
    if (slack < 0.0) {
      qor.tns_ps += slack;
      ++qor.violations;
    }
  }
  return qor;
}

}  // namespace mgba
