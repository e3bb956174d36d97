/// MCMM scaling bench: design D5 analyzed at 1, 2, and 4 corners through
/// the corner-indexed SoA timing arena. The interesting number is the
/// *per-corner marginal cost*: the graph build, levelization, launch-set
/// DP, and CRPR topology are shared across corners, but every corner runs
/// its own full sweep. corner_cost_ratio reports each corner count's full
/// update against the 1-corner one (N means linear in corners). Emits
/// BENCH_mcmm.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "aocv/corner_io.hpp"
#include "bench_common.hpp"
#include "util/thread_pool.hpp"

namespace mgba::bench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Corner spec for the first \p n of the four bench corners.
std::string spec_for(std::size_t n) {
  static const char* kLines[4] = {
      "corner wc delay 1.15 slew 1.08 constraint 1.05 derate_margin 1.25\n",
      "corner bc delay 0.85 slew 0.93 derate_margin 0.75\n",
      "corner wcl delay 1.25 slew 1.12 derate_margin 1.4\n",
      "corner ml delay 0.95 slew 0.98 derate_margin 0.9\n"};
  std::string spec;
  for (std::size_t i = 0; i < n; ++i) spec += kLines[i];
  return spec;
}

struct CornerRun {
  std::size_t corners = 1;
  double full_update_ms = 0.0;   ///< best of the timed repetitions
  double per_corner_ms = 0.0;
  std::size_t storage_bytes = 0;
  double wns_merged_ps = 0.0;
  std::size_t violations_merged = 0;
};

int run() {
  auto stack = make_stack(5, flow_utilization(5));
  const std::size_t instances = stack->design().num_instances();
  const std::size_t nodes = stack->timer->graph().num_nodes();
  std::printf("design %s: %zu instances, %zu graph nodes, clock %.0f ps, "
              "%zu threads\n",
              stack->name.c_str(), instances, nodes,
              stack->constraints.clock_period_ps, num_threads());

  constexpr int kReps = 5;
  std::vector<CornerRun> runs;
  for (const std::size_t n : {1u, 2u, 4u}) {
    const auto setups = corners_from_string(spec_for(n), stack->table);
    CornerRun r;
    r.corners = n;
    r.full_update_ms = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      // apply_corner_setups re-installs corners + per-corner derates and
      // marks the timer fully dirty, so each rep times one complete
      // all-corners forward + CRPR + backward propagation.
      apply_corner_setups(*stack->timer, setups);
      const double t0 = now_ms();
      stack->timer->update_timing();
      r.full_update_ms = std::min(r.full_update_ms, now_ms() - t0);
    }
    r.per_corner_ms = r.full_update_ms / static_cast<double>(n);
    r.storage_bytes = stack->timer->timing_storage_bytes();
    r.wns_merged_ps = stack->timer->wns_merged(Mode::Late);
    r.violations_merged = stack->timer->num_violations_merged(Mode::Late);
    std::printf("corners=%zu  full update %8.2f ms  (%6.2f ms/corner)  "
                "arena %6.1f MiB  merged WNS %8.2f ps  violations %zu\n",
                n, r.full_update_ms, r.per_corner_ms,
                static_cast<double>(r.storage_bytes) / (1024.0 * 1024.0),
                r.wns_merged_ps, r.violations_merged);
    runs.push_back(r);
  }

  const auto cost_ratio = [&](const CornerRun& r) {
    return r.full_update_ms / runs[0].full_update_ms;
  };
  for (const CornerRun& r : runs) {
    std::printf("%zu-corner / 1-corner runtime ratio: %.3f\n", r.corners,
                cost_ratio(r));
  }

  std::FILE* out = std::fopen("BENCH_mcmm.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot open BENCH_mcmm.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"design\": {\"name\": \"%s\", \"instances\": %zu, "
               "\"graph_nodes\": %zu},\n",
               stack->name.c_str(), instances, nodes);
  std::fprintf(out, "  \"threads\": %zu,\n", num_threads());
  std::fprintf(out,
               "  \"corner_cost_ratio\": {\"2\": %.4f, \"4\": %.4f},\n",
               cost_ratio(runs[1]), cost_ratio(runs[2]));
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CornerRun& r = runs[i];
    std::fprintf(out,
                 "    {\"corners\": %zu, \"full_update_ms\": %.3f, "
                 "\"per_corner_ms\": %.3f, \"corner_cost_ratio\": %.4f, "
                 "\"timing_storage_bytes\": %zu, "
                 "\"wns_merged_ps\": %.3f, \"violations_merged\": %zu}%s\n",
                 r.corners, r.full_update_ms, r.per_corner_ms, cost_ratio(r),
                 r.storage_bytes, r.wns_merged_ps, r.violations_merged,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_mcmm.json\n");
  return 0;
}

}  // namespace
}  // namespace mgba::bench

int main() { return mgba::bench::run(); }
