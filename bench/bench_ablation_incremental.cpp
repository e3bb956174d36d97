/// Ablation for the incremental timing update the paper leans on ([18],
/// Fig. 5: "perform incremental timing update techniques and evaluate the
/// timing information after each modification"): the same closure flow
/// with the Timer's incremental path disabled (every transform triggers a
/// full re-propagation). The gap is why no production optimizer runs on
/// full updates.

#include <cstdio>
#include <string>

#include "bench_common.hpp"

int main() {
  using namespace mgba;
  using namespace mgba::bench;

  std::printf("Incremental-update ablation: closure flow runtime (s)\n");
  std::printf("%-4s | %12s | %12s | %8s | %10s\n", "", "incremental",
              "full-update", "ratio", "transforms");
  print_rule(60);

  double sum_inc = 0.0, sum_full = 0.0;
  for (const int d : {1, 3, 5, 7}) {
    double seconds[2] = {0.0, 0.0};
    std::size_t transforms = 0;
    for (const bool incremental : {true, false}) {
      auto stack = make_stack(d, flow_utilization(d));
      stack->timer->set_incremental_enabled(incremental);
      OptimizerOptions options;
      options.max_passes = 25;
      TimingCloser closer(stack->design(), *stack->timer, stack->table,
                          options);
      const OptimizerReport report = closer.run();
      seconds[incremental ? 0 : 1] = report.seconds;
      if (incremental) transforms = report.transforms_attempted;
    }
    std::printf("%-4s | %12.3f | %12.3f | %8.2fx | %10zu\n",
                (std::string("D") + std::to_string(d)).c_str(), seconds[0],
                seconds[1], seconds[1] / seconds[0], transforms);
    sum_inc += seconds[0];
    sum_full += seconds[1];
  }
  print_rule(60);
  std::printf("%-4s | %12.3f | %12.3f | %8.2fx\n", "Sum", sum_inc, sum_full,
              sum_full / sum_inc);
  return 0;
}
