#pragma once

/// Shared infrastructure for the table/figure reproduction benches: builds
/// the D1..D10 benchmark stacks (generated design + constraints + derated
/// timer) and provides small table-printing helpers.
///
/// Scale note: the paper's designs reach 100M paths on a 2.6 GHz server;
/// these stand-ins are laptop-scale (1.2k-13k gates) so every bench binary
/// completes in seconds to minutes. The *relative* behaviour (who wins, by
/// roughly what factor) is the reproduction target, not absolute seconds.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "aocv/derate_table.hpp"
#include "liberty/default_library.hpp"
#include "netlist/generator.hpp"
#include "opt/optimizer.hpp"
#include "pba/path_engine.hpp"
#include "sta/timer.hpp"

namespace mgba::bench {

/// A ready-to-run benchmark case: design + timer + AOCV model. The library
/// member is constructed before the design so the design's internal
/// library reference stays valid (member initialization order matters).
struct BenchStack {
  std::string name;
  Library library;
  GeneratedDesign generated;
  DerateTable table;
  TimingConstraints constraints;
  std::unique_ptr<Timer> timer;

  explicit BenchStack(const GeneratorOptions& gen)
      : name(gen.name),
        library(make_default_library()),
        generated(generate_design(library, gen)),
        table(default_aocv_table()) {}

  Design& design() { return generated.design; }
};

/// Builds design Dd (1..10). \p utilization controls how tight the clock
/// is relative to the golden critical path (>1: some true violations).
/// \p scale shrinks the preset gate/flop counts for faster sweeps.
inline std::unique_ptr<BenchStack> make_stack(int d, double utilization,
                                              double scale = 1.0) {
  GeneratorOptions gen = benchmark_design_options(d);
  if (scale != 1.0) {
    gen.num_gates = static_cast<std::size_t>(gen.num_gates * scale);
    gen.num_flops =
        std::max<std::size_t>(8, static_cast<std::size_t>(gen.num_flops * scale));
  }
  auto stack = std::make_unique<BenchStack>(gen);

  stack->constraints.clock_port = stack->generated.clock_port;
  stack->constraints.clock_period_ps = 1e9;
  {
    Timer probe(stack->generated.design, stack->constraints);
    probe.set_instance_derates(
        compute_gba_derates(probe.graph(), stack->table));
    probe.update_timing();
    stack->constraints.clock_period_ps =
        choose_clock_period(probe, stack->table, utilization);
  }
  stack->timer =
      std::make_unique<Timer>(stack->generated.design, stack->constraints);
  stack->timer->set_instance_derates(
      compute_gba_derates(stack->timer->graph(), stack->table));
  stack->timer->update_timing();
  return stack;
}

/// Per-design clock utilization for the closure-flow benches (Tables 2 and
/// 5): tight enough that every design has genuine closure work plus a
/// population of pessimism-only violations.
inline double flow_utilization(int d) {
  static constexpr double kUtil[10] = {1.12, 1.15, 1.12, 1.10, 1.12,
                                       1.12, 1.10, 1.18, 1.15, 1.10};
  return kUtil[d - 1];
}

struct FlowRun {
  OptimizerReport report;
  double clock_period_ps = 0.0;
};

/// Runs the full post-route closure flow on design Dd with GBA or mGBA
/// slacks; final QoR is re-measured with golden PBA so the two flows are
/// comparable. The mGBA fit runs once, at the start of the flow.
inline FlowRun run_closure_flow(int d, bool use_mgba) {
  auto stack = make_stack(d, flow_utilization(d));
  OptimizerOptions options;
  options.max_passes = 25;
  options.use_mgba = use_mgba;
  options.mgba_refresh_passes = 1000;  // fit once per flow
  TimingCloser closer(stack->design(), *stack->timer, stack->table, options);
  FlowRun run;
  run.report = closer.run();
  PathEngineHub hub(*stack->timer);
  run.report.final_qor = measure_golden_qor(*stack->timer, stack->table, hub);
  run.clock_period_ps = stack->constraints.clock_period_ps;
  return run;
}

inline void print_rule(std::size_t width = 100) {
  for (std::size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Percentage improvement of \p after over \p before where smaller is
/// better (area, leakage, buffers): positive = improvement.
inline double improvement_pct(double before, double after) {
  if (before == 0.0) return 0.0;
  return 100.0 * (before - after) / before;
}

}  // namespace mgba::bench
