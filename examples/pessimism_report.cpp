/// \file pessimism_report.cpp
/// Pessimism diagnosis on a generated benchmark design: where does GBA
/// lose accuracy against golden PBA, and how much of it does each GBA
/// feature (worst depth/distance, worst slew, conservative CRPR) cost?
/// This is the analysis a timing engineer runs before deciding whether
/// the mGBA fit is worth enabling on a design.
///
/// Usage: pessimism_report [design 1..10] [utilization]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "bench/bench_common.hpp"
#include "linalg/histogram.hpp"
#include "mgba/framework.hpp"
#include "pba/path_engine.hpp"
#include "pba/path_eval.hpp"

int main(int argc, char** argv) {
  using namespace mgba;
  using namespace mgba::bench;

  const int d = argc > 1 ? std::atoi(argv[1]) : 3;
  const double util = argc > 2 ? std::atof(argv[2]) : 1.10;
  auto stack = make_stack(d, util);
  Timer& timer = *stack->timer;
  std::printf("design %s: %zu instances, clock %.0f ps, %zu endpoints\n\n",
              stack->name.c_str(), stack->design().num_instances(),
              stack->constraints.clock_period_ps,
              timer.graph().endpoints().size());

  // Per-path pessimism (PBA slack - GBA slack) on the worst paths, and the
  // contribution of each PBA refinement.
  PathEngine engine(timer, 8);
  engine.sync();
  const std::vector<TimingPath> paths = engine.all_paths();

  PathEvalOptions full_opts;
  PathEvalOptions derate_only;
  derate_only.recompute_path_slews = false;
  derate_only.exact_crpr = false;
  PathEvalOptions derate_slew = derate_only;
  derate_slew.recompute_path_slews = true;

  const PathEvaluator eval_full(timer, stack->table, full_opts);
  const PathEvaluator eval_derate(timer, stack->table, derate_only);
  const PathEvaluator eval_slew(timer, stack->table, derate_slew);

  Histogram pessimism(0.0, 1500.0, 15);
  double total = 0.0, from_derate = 0.0, from_slew = 0.0, from_crpr = 0.0;
  for (const TimingPath& path : paths) {
    const PathTiming full = eval_full.evaluate(path);
    const double gap = full.pba_slack_ps - full.gba_slack_ps;
    pessimism.add(gap);
    total += gap;
    const double derate_gap =
        eval_derate.evaluate(path).pba_slack_ps - full.gba_slack_ps;
    const double slew_gap =
        eval_slew.evaluate(path).pba_slack_ps - full.gba_slack_ps;
    from_derate += derate_gap;
    from_slew += slew_gap - derate_gap;
    from_crpr += gap - slew_gap;
  }
  std::printf("GBA pessimism over %zu paths (PBA slack - GBA slack, ps):\n%s\n",
              paths.size(), pessimism.to_text(48).c_str());
  if (total > 0.0) {
    std::printf("breakdown: AOCV worst depth/distance %.1f%%, worst slew "
                "%.1f%%, conservative CRPR %.1f%%\n\n",
                100.0 * from_derate / total, 100.0 * from_slew / total,
                100.0 * from_crpr / total);
  }

  // What mGBA recovers.
  MgbaFlowOptions options;
  options.only_violated = false;
  const MgbaFlowResult fit = run_mgba_flow(timer, stack->table, options);
  std::printf("mGBA fit over %zu paths x %zu gates:\n", fit.fitted_paths,
              fit.variables);
  std::printf("  modeling error (Eq.12) %.4g -> %.4g\n", fit.mse_before,
              fit.mse_after);
  std::printf("  pass ratio             %.2f%% -> %.2f%%\n",
              100.0 * fit.pass_ratio_before, 100.0 * fit.pass_ratio_after);
  std::printf("  solver time            %.3fs (%zu iterations)\n",
              fit.solve_seconds, fit.solver_iterations);
  return 0;
}
