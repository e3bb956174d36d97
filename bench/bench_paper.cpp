/// Reproduces paper Tables 2, 3 and 5 on D1..D10, gates them, and writes
/// BENCH_paper.json: one row per design plus the averages.
///
/// Each design runs the post-route closure flow once with GBA and once with
/// mGBA slacks (the fit runs once, at the start of the flow); Table 2's
/// golden QoR and Table 5's flow and fit seconds both read those two
/// OptimizerReports. Table 3 fits every selected critical path
/// (only_violated = false) on its own stack; a path is "good" when its model
/// slack is within 5 % relative or 5 ps absolute of its golden PBA slack.
/// Each table prints the paper's averages under it. At this laptop scale the
/// fit is a far larger share of the flow than on the paper's 100M-path
/// designs.
///
/// Gates (exit 1 if any fails): the Table 3 mGBA average is at least 0.95,
/// no design's mGBA ratio is below its GBA ratio, every Table 3 fit's
/// Eq. (5) shortfall is finite and at most 50 ps (the fit's optimism
/// ceiling), and Table 2's average area and leakage improvements are at
/// least 0. Table 5 is recorded without a floor.

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mgba/framework.hpp"
#include "util/thread_pool.hpp"

namespace mgba::bench {
namespace {

constexpr int kDesigns = 10;
constexpr double kTable3MgbaFloor = 0.95;
constexpr double kTable2SavingFloorPct = 0.0;
/// The most a Table 3 fit may leave a row optimistic past the Eq. (5)
/// bound, in ps.
constexpr double kOptimismCeilingPs = 50.0;

struct DesignRun {
  std::string name;
  OptimizerReport gba;
  OptimizerReport mgba;
  /// Table 2, in %: WNS and TNS as the signed golden-slack change over the
  /// clock period (negative: the mGBA flow stopped with residual violations
  /// the GBA flow's extra pessimism-driven work fixed), then the area,
  /// leakage and buffer improvements.
  std::array<double, 5> t2;
  /// Table 5, in s: GBA flow, mGBA post-route work, mGBA fit, mGBA flow.
  std::array<double, 4> t5;
  MgbaFlowResult fit;  ///< Table 3's
};

DesignRun run_design(int d) {
  const FlowRun gba = run_closure_flow(d, /*use_mgba=*/false);
  const FlowRun mgba = run_closure_flow(d, /*use_mgba=*/true);
  const QorMetrics& g = gba.report.final_qor;
  const QorMetrics& m = mgba.report.final_qor;
  const double period = gba.clock_period_ps;
  const double fit_s = mgba.report.mgba_seconds;
  auto stack = make_stack(d, 1.03);
  MgbaFlowOptions options;
  options.only_violated = false;  // the selected set is the measurement set
  return {str_format("D%d", d),
          gba.report,
          mgba.report,
          {100.0 * (m.wns_ps - g.wns_ps) / period,
           100.0 * (m.tns_ps - g.tns_ps) / period,
           improvement_pct(g.area_um2, m.area_um2),
           improvement_pct(g.leakage_nw, m.leakage_nw),
           improvement_pct(static_cast<double>(g.buffer_count),
                           static_cast<double>(m.buffer_count))},
          {gba.report.seconds, mgba.report.seconds - fit_s, fit_s,
           mgba.report.seconds},
          run_mgba_flow(*stack->timer, stack->table, options)};
}

constexpr std::array<const char*, 5> kTable2Keys = {
    "wns_pct", "tns_pct", "area_pct", "leakage_pct", "buffer_pct"};
constexpr std::array<const char*, 4> kTable5Keys = {
    "gba_flow_s", "post_route_s", "fit_s", "mgba_flow_s"};

int run() {
  std::vector<DesignRun> runs;
  for (int d = 1; d <= kDesigns; ++d) runs.push_back(run_design(d));

  std::printf("Table 2: QoR Improvement for Designs (mGBA flow vs GBA flow)\n");
  std::printf("%-4s | %8s %8s %8s %10s %8s\n", "", "WNS(%)", "TNS(%)",
              "area(%)", "leakage(%)", "buffer(%)");
  print_rule(60);
  std::array<double, 5> t2_avg{};
  for (const DesignRun& r : runs) {
    std::printf("%-4s | %8.2f %8.2f %8.2f %10.2f %8.2f   "
                "(gba: %zu upsz %zu buf | mgba: %zu upsz %zu buf)\n",
                r.name.c_str(), r.t2[0], r.t2[1], r.t2[2], r.t2[3], r.t2[4],
                r.gba.upsizes, r.gba.buffers_inserted, r.mgba.upsizes,
                r.mgba.buffers_inserted);
    for (std::size_t i = 0; i < r.t2.size(); ++i) t2_avg[i] += r.t2[i];
  }
  for (double& v : t2_avg) v /= kDesigns;
  print_rule(60);
  std::printf("%-4s | %8.2f %8.2f %8.2f %10.2f %8.2f\n", "Avg.", t2_avg[0],
              t2_avg[1], t2_avg[2], t2_avg[3], t2_avg[4]);
  std::printf("\npaper: WNS 1.20 TNS 0.65 area 5.58 leakage 14.77 buffer "
              "4.84 (avg %%)\n");

  std::printf("\nTable 3: Pass ratio comparison of GBA and mGBA\n");
  std::printf("%-4s | %14s | %8s | %8s | %12s\n", "", "selected paths",
              "GBA(%)", "mGBA(%)", "improve(%)");
  print_rule(70);
  double sum_gba = 0, sum_mgba = 0, sum_paths = 0;
  for (const DesignRun& r : runs) {
    const MgbaFlowResult& fit = r.fit;
    std::printf("%-4s | %14zu | %8.2f | %8.2f | %12.2f\n", r.name.c_str(),
                fit.fitted_paths, 100.0 * fit.pass_ratio_before,
                100.0 * fit.pass_ratio_after,
                100.0 * (fit.pass_ratio_after - fit.pass_ratio_before));
    sum_gba += fit.pass_ratio_before;
    sum_mgba += fit.pass_ratio_after;
    sum_paths += static_cast<double>(fit.fitted_paths);
  }
  print_rule(70);
  std::printf("%-4s | %14.0f | %8.2f | %8.2f | %12.2f\n", "Avg.",
              sum_paths / 10, 10.0 * sum_gba, 10.0 * sum_mgba,
              10.0 * (sum_mgba - sum_gba));
  std::printf("\npaper: GBA 51.57%% -> mGBA 95.36%% (+43.79 avg, no case "
              "worse)\n");
  std::printf("\nEq. (5) shortfall of each Table 3 fit, ps (<= 0: no row is "
              "optimistic past eps):\n");
  for (const DesignRun& r : runs) {
    std::printf("%-4s | %10.3f\n", r.name.c_str(),
                r.fit.max_optimism_violation);
  }

  std::printf(
      "\nTable 5: Runtime(s) comparison, closure flow with GBA vs mGBA\n");
  std::printf("%-4s | %10s | %10s %8s %8s | %8s\n", "", "GBA flow",
              "post-route", "mGBA", "total", "speedup");
  print_rule(64);
  std::array<double, 4> t5_avg{};
  for (const DesignRun& r : runs) {
    std::printf("%-4s | %10.2f | %10.2f %8.2f %8.2f | %8.2f\n",
                r.name.c_str(), r.t5[0], r.t5[1], r.t5[2], r.t5[3],
                r.t5[0] / r.t5[3]);
    for (std::size_t i = 0; i < r.t5.size(); ++i) t5_avg[i] += r.t5[i];
  }
  for (double& v : t5_avg) v /= kDesigns;
  const double t5_speedup = t5_avg[0] / t5_avg[3];
  print_rule(64);
  std::printf("%-4s | %10.2f | %10.2f %8.2f %8.2f | %8.2f\n", "Avg.",
              t5_avg[0], t5_avg[1], t5_avg[2], t5_avg[3], t5_speedup);
  std::printf("\npaper: GBA 50021s | post-route 40266s + mGBA 939s = 41205s "
              "| speedup 1.21x\n\n");

  Gates gates;
  gates.check(sum_mgba / kDesigns >= kTable3MgbaFloor,
              str_format("Table 3 mGBA average %.4f is below %g",
                         sum_mgba / kDesigns, kTable3MgbaFloor));
  for (const DesignRun& r : runs) {
    const MgbaFlowResult& fit = r.fit;
    gates.check(fit.pass_ratio_after >= fit.pass_ratio_before &&
                    std::isfinite(fit.max_optimism_violation) &&
                    fit.max_optimism_violation <= kOptimismCeilingPs,
                str_format("Table 3 %s: mGBA %.4f below GBA %.4f, or Eq. (5) "
                           "shortfall %g ps not finite or above %g ps",
                           r.name.c_str(), fit.pass_ratio_after,
                           fit.pass_ratio_before, fit.max_optimism_violation,
                           kOptimismCeilingPs));
  }
  gates.check(t2_avg[2] >= kTable2SavingFloorPct &&
                  t2_avg[3] >= kTable2SavingFloorPct,
              str_format("Table 2 average area %.2f %% or leakage %.2f %% is "
                         "below %g %%",
                         t2_avg[2], t2_avg[3], kTable2SavingFloorPct));
  std::printf("gates: %s\n", gates.passed() ? "passed" : "FAILED");

  const auto add_all = [](JsonObject& object, const auto& keys,
                          const auto& values) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      object.add(keys[i], values[i], 4);
    }
  };
  std::vector<JsonObject> rows;
  for (const DesignRun& r : runs) {
    JsonObject& row = rows.emplace_back();
    row.add("design", r.name);
    add_all(row, kTable2Keys, r.t2);
    row.add("gba_upsizes", r.gba.upsizes)
        .add("gba_buffers", r.gba.buffers_inserted)
        .add("mgba_upsizes", r.mgba.upsizes)
        .add("mgba_buffers", r.mgba.buffers_inserted)
        .add("selected_paths", r.fit.fitted_paths)
        .add("gba_pass_ratio", r.fit.pass_ratio_before, 6)
        .add("mgba_pass_ratio", r.fit.pass_ratio_after, 6)
        .add("max_optimism_violation_ps", r.fit.max_optimism_violation, 3);
    add_all(row, kTable5Keys, r.t5);
    row.add("speedup", r.t5[0] / r.t5[3], 3);
  }
  JsonObject average, doc;
  add_all(average, kTable2Keys, t2_avg);
  average.add("selected_paths", sum_paths / kDesigns, 1)
      .add("gba_pass_ratio", sum_gba / kDesigns, 6)
      .add("mgba_pass_ratio", sum_mgba / kDesigns, 6);
  add_all(average, kTable5Keys, t5_avg);
  average.add("speedup", t5_speedup, 3);
  doc.add("threads", num_threads())
      .add("closures", 2 * runs.size())
      .add("gates_passed", gates.passed())
      .add("designs", rows)
      .add("average", average);
  if (!write_json("BENCH_paper.json", doc)) return 1;
  return gates.exit_code();
}

}  // namespace
}  // namespace mgba::bench

int main() { return mgba::bench::run(); }
