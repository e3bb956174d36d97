#pragma once

/// Shared infrastructure for the table/figure reproduction benches: builds
/// the D1..D10 benchmark stacks (generated design + constraints + derated
/// timer), provides small table-printing helpers, and the harness every
/// artifact-writing bench uses: best-of-N timing (BestOf), the JSON
/// emitter (JsonObject, write_json) and the gate collector behind the exit
/// code (Gates).
///
/// Scale note: the paper's designs reach 100M paths on a 2.6 GHz server;
/// these stand-ins are laptop-scale (1.2k-13k gates) so every bench binary
/// completes in seconds to minutes. The *relative* behaviour (who wins, by
/// roughly what factor) is the reproduction target, not absolute seconds.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "aocv/derate_table.hpp"
#include "liberty/default_library.hpp"
#include "netlist/generator.hpp"
#include "opt/optimizer.hpp"
#include "pba/path_engine.hpp"
#include "sta/timer.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace mgba::bench {

/// A ready-to-run benchmark case: design + timer + AOCV model, clocked at
/// the design's clock port. The library member is constructed before the
/// design so the design's internal library reference stays valid (member
/// initialization order matters).
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
        table(default_aocv_table()) {
    constraints.clock_port = generated.clock_port;
  }

  Design& design() { return generated.design; }

  /// (Re)builds the timer on the current constraints, with GBA derates
  /// installed and timing up to date.
  void build_timer() {
    timer = std::make_unique<Timer>(generated.design, constraints);
    timer->set_instance_derates(compute_gba_derates(timer->graph(), table));
    timer->update_timing();
  }
};

/// A stack on \p gen clocked at \p period_ps, its timer built.
inline std::unique_ptr<BenchStack> make_stack(const GeneratorOptions& gen,
                                              double period_ps) {
  auto stack = std::make_unique<BenchStack>(gen);
  stack->constraints.clock_period_ps = period_ps;
  stack->build_timer();
  return stack;
}

/// Builds design Dd (1..10). \p utilization controls how tight the clock
/// is relative to the golden critical path (>1: some true violations).
inline std::unique_ptr<BenchStack> make_stack(int d, double utilization) {
  // Probe at a clock nothing violates, then pick the period from it.
  auto stack = make_stack(benchmark_design_options(d), 1e9);
  stack->constraints.clock_period_ps =
      choose_clock_period(*stack->timer, stack->table, utilization);
  stack->build_timer();
  return stack;
}

/// The >=50k-instance design the thread-scaling and solver fast-path benches
/// share (8 logic blocks).
inline GeneratorOptions scaling_design_options(std::string name) {
  GeneratorOptions gen;
  gen.name = std::move(name);
  gen.seed = 97;
  gen.num_gates = 46'000;
  gen.num_flops = 4'000;
  gen.num_inputs = 64;
  gen.num_outputs = 64;
  gen.target_depth = 64;
  gen.num_blocks = 8;
  return gen;
}

/// A same-footprint sibling cell for a value-only resize of \p inst, or
/// nullopt for a flip-flop or a clock-network cell: resizing a clock-tree
/// buffer escalates to a clock invalidation and poisons the ECO record.
inline std::optional<std::size_t> resize_sibling(const BenchStack& stack,
                                                 InstanceId inst) {
  const LibCell& cell = stack.generated.design.cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return std::nullopt;
  const TimingGraph& graph = stack.timer->graph();
  const NodeId out =
      graph.node_of_pin(inst, static_cast<std::uint32_t>(cell.output_pin()));
  if (out == kInvalidNode || graph.node(out).is_clock_network) {
    return std::nullopt;
  }
  for (std::size_t j = 0; j < stack.library.num_cells(); ++j) {
    const LibCell& c = stack.library.cell(j);
    if (c.footprint == cell.footprint && c.name != cell.name) return j;
  }
  return std::nullopt;
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

/// True when any argument is --smoke: the bench's seconds-scale mode.
inline bool smoke_flag(int argc, char** argv) {
  return std::find(argv + 1, argv + argc, std::string_view("--smoke")) !=
         argv + argc;
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

/// Best-of-N wall time: ms() is the smallest time add()ed, or timed by
/// time(), which runs its callable once under a Stopwatch.
class BestOf {
 public:
  void add(double ms) { best_ms_ = std::min(best_ms_, ms); }
  template <typename Fn>
  void time(Fn&& fn) {
    const Stopwatch watch;
    fn();
    add(watch.millis());
  }
  [[nodiscard]] double ms() const { return best_ms_; }

 private:
  double best_ms_ = std::numeric_limits<double>::infinity();
};

/// A JSON object for the BENCH_*.json artifacts, built member by member:
/// add() quotes keys and strings, spells bools, writes a non-finite number
/// as null and places the commas. An object renders on one line, except
/// that an array of objects puts one object per line and the top level of
/// write_json() one member per line.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, double value, int precision) {
    return member(key, std::isfinite(value)
                           ? str_format("%.*f", precision, value)
                           : "null");
  }
  template <std::integral T>
  JsonObject& add(std::string_view key, T value) {
    if constexpr (std::same_as<T, bool>) {
      return member(key, value ? "true" : "false");
    } else {
      return member(key, std::to_string(value));
    }
  }
  JsonObject& add(std::string_view key, std::string_view value) {
    return member(key, quoted(value));
  }
  JsonObject& add(std::string_view key, const JsonObject& value) {
    return member(key, value.text());
  }
  JsonObject& add(std::string_view key, const std::vector<JsonObject>& rows) {
    std::string text = "[";
    for (const JsonObject& row : rows) {
      if (text.size() > 1) text += ',';
      text += "\n    ";
      text += row.text();
    }
    text += "\n  ]";
    return member(key, text);
  }

  /// The object on one line, or with \p top_level one member per line.
  [[nodiscard]] std::string text(bool top_level = false) const {
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ',';
      out += top_level ? "\n  " : (i > 0 ? " " : "");
      out += members_[i];
    }
    out += top_level ? "\n}\n" : "}";
    return out;
  }

 private:
  JsonObject& member(std::string_view key, const std::string& value) {
    members_.push_back((quoted(key) += ": ") += value);
    return *this;
  }

  static std::string quoted(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::vector<std::string> members_;
};

/// Writes \p doc to \p path and prints "wrote <path>"; false, with an
/// ERROR line, if the file cannot be written.
inline bool write_json(const std::string& path, const JsonObject& doc) {
  std::ofstream out(path);
  out << doc.text(/*top_level=*/true);
  if (!out.flush()) {
    std::printf("ERROR: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// A bench's self-checks: a failed check prints one "GATE FAILED" line, and
/// exit_code() turns nonzero.
class Gates {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what.c_str());
      ++failed_;
    }
  }
  [[nodiscard]] bool passed() const { return failed_ == 0; }
  [[nodiscard]] int exit_code() const { return passed() ? 0 : 1; }

 private:
  std::size_t failed_ = 0;
};

}  // namespace mgba::bench
