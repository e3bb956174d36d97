#pragma once

/// \file e2e.hpp
/// Workloads of the end-to-end benchmark and the engine set-up they share.
/// Everything here drives the engine through its public headers only.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aocv/derate_table.hpp"
#include "harness.hpp"
#include "liberty/library.hpp"
#include "mgba/framework.hpp"
#include "netlist/generator.hpp"
#include "opt/qor.hpp"
#include "pba/path_engine.hpp"
#include "sta/timer.hpp"
#include "util/rng.hpp"

namespace e2e {

/// Measurement window of one run: BENCHMARK.json's run_seconds, and a
/// short one for the smoke run. Fixed, so two commits are always measured
/// over windows of the same length. On a shared virtual machine the CPU's
/// speed wanders by about 10 % with a correlation time of about 5 s, so a
/// longer window holds more of the fast moments the fastest-sample
/// metrics rest on.
inline constexpr double kWindowSeconds = 25.0;
inline constexpr double kSmokeSeconds = 2.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = kWindowSeconds;
  bool trace = false;
  bool smoke = false;
  std::string timer_path;  ///< mgba_timer binary (query_serve's daemon)
  std::string work_dir;    ///< sockets and daemon logs
  std::string out_dir;     ///< <workload>.{results,traced}.json
  std::string trace_dir;   ///< <workload>.trace.json / .layers.json
};

/// Set-ups per run for the workloads that set up once and then loop
/// (eco_refit, query_serve); setup_s is their median. One set-up varies
/// by 5-50 % inside a run, so five were too few for a steady median. The
/// closure workloads set up once per rep instead.
inline constexpr int kSetups = 11;

/// A generated design and the clock it is timed against.
struct DesignSpec {
  std::string label;
  mgba::GeneratorOptions gen;
  double utilization = 1.10;
};

/// The closure and ECO design: scaled_design_options(20000, 7), or D5 for
/// the smoke run.
DesignSpec closure_design(bool smoke);
DesignSpec eco_design(bool smoke);
/// The generator configuration `read_netlist -gates G -flops F -seed 9`
/// gives the daemon (12000 / 400, or 1500 / 180 for the smoke run).
DesignSpec query_design(bool smoke);

/// Design + derated, clocked, up-to-date timer. Not movable: the design
/// references the library and the timer references the design.
struct Stack {
  explicit Stack(const mgba::GeneratorOptions& gen);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  mgba::Design& design() { return generated.design; }

  mgba::Library library;
  mgba::GeneratedDesign generated;
  mgba::DerateTable table;
  mgba::TimingConstraints constraints;
  std::unique_ptr<mgba::Timer> timer;
};

/// Generates the design, picks the clock with choose_clock_period and
/// brings a fresh timer up to date. Each step is a span; with \p layers the
/// step times are recorded as per-layer metrics.
std::unique_ptr<Stack> build_stack(const DesignSpec& spec, Tracer& tracer,
                                   LayerSet* layers);

/// True when \p stack's head timer agrees bit for bit (state_signature)
/// with a freshly built Timer given the same design, derates and weights.
bool head_matches_fresh_timer(Stack& stack);

/// Instances a value-only ECO may resize: non-flop, connected, off the
/// clock network, with at least one other cell in their footprint family.
std::vector<mgba::InstanceId> sizable_instances(const mgba::Design& design,
                                                const mgba::TimingGraph& graph);

/// The cell after \p cell in its footprint family, wrapping to the
/// smallest, so a long ECO stream keeps the drive mix stationary.
std::size_t next_in_family(const mgba::Library& library, std::size_t cell);

/// The inner ECO loop: seeded value-only resizes, incremental update,
/// incremental mGBA refit and QoR, with a hub-served golden sign-off.
class EcoLoop {
 public:
  EcoLoop(Stack& stack, std::uint64_t seed);
  EcoLoop(const EcoLoop&) = delete;
  EcoLoop& operator=(const EcoLoop&) = delete;

  /// The cold fit the loop refits from, plus the first (cold) sync of the
  /// sign-off engine. With \p layers it first repeats run_mgba_flow's
  /// public steps one at a time (per-layer times in \p layers) and gates
  /// that their weights equal the session fit's byte for byte.
  mgba::MgbaFlowResult cold_fit(Tracer& tracer, LayerSet* layers,
                                Report* report);

  struct RoundTimes {
    double round_s = 0.0;    ///< resizes + update + refit + QoR
    double signoff_s = 0.0;  ///< golden sign-off (0 when not run)
  };
  /// One round: kResizesPerRound seeded resizes, update_timing, refit,
  /// measure_qor, and with \p signoff an explicit path sync plus
  /// measure_golden_qor served by the hub.
  RoundTimes round(std::uint64_t index, bool signoff, Tracer& tracer,
                   LayerSet* layers);

  [[nodiscard]] const mgba::MgbaRefitSession& session() const {
    return session_;
  }
  [[nodiscard]] const mgba::MgbaFlowResult& last_fit() const {
    return last_fit_;
  }
  [[nodiscard]] const mgba::QorMetrics& last_golden() const {
    return last_golden_;
  }

  static constexpr std::size_t kResizesPerRound = 8;
  static constexpr std::size_t kGoldenPathsPerEndpoint = 8;

 private:
  Stack* stack_;
  mgba::Rng rng_;
  std::vector<mgba::InstanceId> candidates_;
  mgba::PathEngineHub hub_;
  mgba::MgbaRefitSession session_;
  mgba::MgbaFlowResult last_fit_;
  mgba::QorMetrics last_golden_;
};

/// Rebuilds the graph, re-derates and re-times \p stack five times
/// ("sta.rebuild_ms") and gates that the timing state did not move.
void probe_rebuild(Stack& stack, Tracer& tracer, LayerSet& layers,
                   Report& report);

/// Memory footprint of \p timer as per-layer metrics (MiB).
void record_memory(const mgba::Timer& timer, LayerSet& layers);
/// Update counters of \p timer as per-layer metrics.
void record_update_stats(const mgba::Timer::UpdateStats& stats,
                         LayerSet& layers);
/// Per-layer counters of optimizer and fit work (zero where the workload
/// runs none): opt.transforms_attempted, opt.buffer_trials,
/// opt.accept_ratio, mgba.cold_fits, mgba.warm_refits.
struct FlowCounts {
  std::size_t transforms_attempted = 0;
  std::size_t buffer_trials = 0;
  std::size_t accepted = 0;
  std::size_t cold_fits = 0;
  std::size_t warm_refits = 0;
};
void record_flow_counts(const FlowCounts& counts, LayerSet& layers);

/// Writes <trace_dir>/<workload>.trace.json (Chrome trace events of every
/// tracer) and <workload>.layers.json (count, total and self time per span
/// and per layer, plus the per-layer metrics); gates that both were
/// written.
void write_trace_files(const Options& options,
                       const std::vector<const Tracer*>& tracers,
                       const LayerSet& layers, Report& report);

void run_closure(const Options& options, bool use_mgba, Report& report);
void run_eco_refit(const Options& options, Report& report);
void run_query_serve(const Options& options, Report& report);

}  // namespace e2e
