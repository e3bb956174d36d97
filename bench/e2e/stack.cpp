#include <algorithm>
#include <optional>

#include "aocv/aocv_model.hpp"
#include "e2e.hpp"
#include "liberty/default_library.hpp"
#include "mgba/path_selection.hpp"
#include "opt/optimizer.hpp"
#include "sta/state_signature.hpp"

namespace e2e {

using namespace mgba;

DesignSpec closure_design(bool smoke) {
  if (smoke) return {"D5", benchmark_design_options(5), 1.10};
  return {"scaled_design_options(20000, 7)", scaled_design_options(20000, 7),
          1.10};
}

DesignSpec eco_design(bool smoke) {
  if (smoke) {
    return {"scaled_design_options(12000, 7)",
            scaled_design_options(12000, 7), 1.10};
  }
  return closure_design(false);
}

DesignSpec query_design(bool smoke) {
  DesignSpec spec;
  spec.gen.num_gates = smoke ? 1500 : 12000;
  spec.gen.num_flops = smoke ? 180 : 400;
  spec.gen.seed = 9;
  spec.utilization = 1.05;
  spec.label = "read_netlist -gates " + std::to_string(spec.gen.num_gates) +
               " -flops " + std::to_string(spec.gen.num_flops) +
               " -seed 9 -utilization 1.05";
  return spec;
}

Stack::Stack(const GeneratorOptions& gen)
    : library(make_default_library()),
      generated(generate_design(library, gen)),
      table(default_aocv_table()) {}

std::unique_ptr<Stack> build_stack(const DesignSpec& spec, Tracer& tracer,
                                   LayerSet* layers) {
  std::unique_ptr<Stack> stack;
  double generate_s = 0.0, build_s = 0.0, derate_s = 0.0, period_s = 0.0;
  {
    Scope s(tracer, "netlist.generate");
    stack = std::make_unique<Stack>(spec.gen);
    generate_s = s.stop();
  }
  Stack& st = *stack;
  st.constraints.clock_port = st.generated.clock_port;
  st.constraints.clock_period_ps = 1e9;

  // The period comes from the golden critical path of an unconstrained
  // timer; the constraints are fixed at Timer construction, so the real
  // timer is built afterwards (the shell's read_netlist does the same).
  const auto timed_timer = [&]() {
    std::unique_ptr<Timer> timer;
    {
      Scope s(tracer, "sta.timer_build");
      timer = std::make_unique<Timer>(st.design(), st.constraints);
      build_s += s.stop();
    }
    {
      Scope s(tracer, "aocv.derates");
      timer->set_instance_derates(
          compute_gba_derates(timer->graph(), st.table));
      derate_s += s.stop();
    }
    {
      Scope s(tracer, "sta.full_update");
      timer->update_timing();
    }
    return timer;
  };
  {
    std::unique_ptr<Timer> probe = timed_timer();
    Scope s(tracer, "opt.choose_period");
    st.constraints.clock_period_ps =
        choose_clock_period(*probe, st.table, spec.utilization);
    period_s = s.stop();
  }
  st.timer = timed_timer();

  if (layers != nullptr) {
    layers->add("netlist.generate_s", "s", generate_s);
    layers->add("sta.timer_build_s", "s", build_s);
    layers->add("aocv.derates_ms", "ms", derate_s * 1e3);
    layers->add("opt.choose_period_s", "s", period_s);
  }
  return stack;
}

bool head_matches_fresh_timer(Stack& stack) {
  Timer& head = *stack.timer;
  head.update_timing();
  Timer fresh(stack.design(), stack.constraints);
  std::vector<DeratePair> derates(stack.design().num_instances());
  for (std::size_t i = 0; i < derates.size(); ++i) {
    derates[i] = head.instance_derate(static_cast<InstanceId>(i));
  }
  fresh.set_instance_derates(std::move(derates));
  fresh.set_instance_weights(head.instance_weights());
  fresh.update_timing();
  return same_bits(state_signature(head), state_signature(fresh));
}

std::vector<InstanceId> sizable_instances(const Design& design,
                                          const TimingGraph& graph) {
  std::vector<InstanceId> out;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto inst = static_cast<InstanceId>(i);
    const LibCell& cell = design.cell_of(inst);
    if (cell.kind == CellKind::FlipFlop || design.is_disconnected(inst)) {
      continue;
    }
    const NodeId out_node = graph.node_of_pin(
        inst, static_cast<std::uint32_t>(cell.output_pin()));
    if (out_node == kInvalidNode || graph.node(out_node).is_clock_network) {
      continue;
    }
    if (design.library().footprint_family(cell.footprint).size() < 2) {
      continue;
    }
    out.push_back(inst);
  }
  return out;
}

std::size_t next_in_family(const Library& library, std::size_t cell) {
  const std::vector<std::size_t> family =
      library.footprint_family(library.cell(cell).footprint);
  const auto it = std::find(family.begin(), family.end(), cell);
  return it + 1 == family.end() ? family.front() : *(it + 1);
}

namespace {

/// run_mgba_flow's public steps one at a time, each its own span: clear
/// the weights, sync the candidate engine, extract the violated endpoints'
/// paths, build and select the problem, solve, install the weights.
/// Returns the installed weight vector.
std::vector<double> stepwise_fit(Stack& stack, PathEngineHub& hub,
                                 Tracer& tracer, LayerSet& layers) {
  const MgbaFlowOptions options;
  Timer& timer = *stack.timer;
  {
    Scope s(tracer, "sta.weight_clear");
    timer.set_instance_weights(options.corner, {});
    timer.update_timing();
  }
  PathEngine& engine = hub.engine(options.candidate_paths_per_endpoint,
                                  Mode::Late, options.corner);
  {
    Scope s(tracer, "pba.cold_sync");
    engine.sync();
    layers.add("pba.cold_sync_ms", "ms", s.stop() * 1e3);
  }
  std::vector<TimingPath> paths;
  {
    Scope s(tracer, "pba.extract");
    std::vector<NodeId> endpoints;
    for (const NodeId e : timer.graph().endpoints()) {
      if (timer.slack(e, Mode::Late, options.corner) < 0.0) {
        endpoints.push_back(e);
      }
    }
    if (endpoints.empty()) endpoints = timer.graph().endpoints();
    for (const NodeId e : endpoints) {
      for (TimingPath& p : engine.paths_to(e)) paths.push_back(std::move(p));
    }
    layers.add("pba.extract_ms", "ms", s.stop() * 1e3);
  }
  if (paths.empty()) return {};

  std::optional<MgbaProblem> problem;
  std::vector<std::size_t> rows;
  {
    Scope s(tracer, "mgba.problem_build");
    const PathEvaluator evaluator(engine.view(), stack.table,
                                  options.eval_options, options.corner);
    problem.emplace(timer, evaluator, paths, options.epsilon,
                    options.check_kind);
    std::vector<std::size_t> candidates = violated_rows(problem->gba_slack());
    if (candidates.empty()) {
      candidates.resize(problem->num_rows());
      for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    }
    rows = select_per_endpoint(paths, problem->gba_slack(), candidates,
                               options.paths_per_endpoint, options.max_paths);
    layers.add("mgba.problem_build_ms", "ms", s.stop() * 1e3);
  }
  if (problem->num_rows() == 0 || problem->num_cols() == 0) return {};

  SolveResult solved;
  {
    Scope s(tracer, "mgba.solve");
    SolverScratch scratch;
    solved = solve_scg_with_row_sampling(*problem, rows, options.solver_options,
                                         options.sampling_options, &scratch);
    layers.add("mgba.solve_ms", "ms", s.stop() * 1e3);
  }
  layers.add("mgba.solver_iterations", "count",
             static_cast<double>(solved.iterations));

  std::vector<double> weights;
  {
    Scope s(tracer, "sta.weight_install");
    weights = problem->to_instance_weights(solved.x);
    timer.set_instance_weights(options.corner, weights);
    timer.update_timing();
    layers.add("sta.weight_install_ms", "ms", s.stop() * 1e3);
  }
  return weights;
}

}  // namespace

EcoLoop::EcoLoop(Stack& stack, std::uint64_t seed)
    : stack_(&stack),
      rng_(seed),
      candidates_(sizable_instances(stack.design(), stack.timer->graph())),
      hub_(*stack.timer),
      session_(*stack.timer, stack.table) {
  session_.set_path_hub(&hub_);
}

MgbaFlowResult EcoLoop::cold_fit(Tracer& tracer, LayerSet* layers,
                                 Report* report) {
  std::vector<double> stepped;
  if (layers != nullptr) stepped = stepwise_fit(*stack_, hub_, tracer, *layers);
  {
    Scope s(tracer, "mgba.cold_fit");
    last_fit_ = session_.fit();
  }
  {
    // Builds the sign-off engine, so every round's sign-off sync is warm.
    Scope s(tracer, "pba.signoff_cold_sync");
    hub_.engine(kGoldenPathsPerEndpoint).sync();
  }
  if (layers != nullptr && report != nullptr) {
    report->gate("stepwise_fit_matches_session_fit",
                 !stepped.empty() &&
                     same_bits(stepped, last_fit_.instance_weights),
                 std::to_string(stepped.size()) + " weights");
  }
  return last_fit_;
}

EcoLoop::RoundTimes EcoLoop::round(std::uint64_t index, bool signoff,
                                   Tracer& tracer, LayerSet* layers) {
  Timer& timer = *stack_->timer;
  Design& design = stack_->design();
  RoundTimes times;
  {
    Scope round(tracer, "e2e.eco_round", index);
    {
      Scope s(tracer, "netlist.resize", index);
      for (const std::size_t k : rng_.sample_without_replacement(
               candidates_.size(), kResizesPerRound)) {
        const InstanceId inst = candidates_[k];
        design.resize_instance(
            inst, next_in_family(stack_->library, design.instance(inst).cell));
        timer.invalidate_instance(inst);
      }
    }
    double update_s = 0.0, refit_s = 0.0, qor_s = 0.0;
    {
      Scope s(tracer, "sta.incr_update", index);
      timer.update_timing();
      update_s = s.stop();
    }
    {
      Scope s(tracer, "mgba.refit", index);
      last_fit_ = session_.refit();
      refit_s = s.stop();
    }
    {
      Scope s(tracer, "opt.qor", index);
      measure_qor(timer);
      qor_s = s.stop();
    }
    times.round_s = round.stop();
    if (layers != nullptr) {
      layers->add("sta.incr_update_ms", "ms", update_s * 1e3);
      layers->add("mgba.refit_ms", "ms", refit_s * 1e3);
      layers->add("opt.qor_ms", "ms", qor_s * 1e3);
      const RefitStats& st = session_.stats();
      if (st.rows_total > 0) {
        layers->add("mgba.refit_rows_ratio", "ratio",
                    static_cast<double>(st.rows_reevaluated) /
                        static_cast<double>(st.rows_total));
      }
    }
  }
  if (signoff) {
    Scope sign(tracer, "e2e.signoff", index);
    PathEngine& engine = hub_.engine(kGoldenPathsPerEndpoint);
    const std::size_t recomputed_before = engine.stats().nodes_recomputed;
    double sync_s = 0.0, eval_s = 0.0;
    {
      Scope s(tracer, "pba.sync", index);
      engine.sync();
      sync_s = s.stop();
    }
    {
      Scope s(tracer, "pba.golden_eval", index);
      last_golden_ = measure_golden_qor(timer, stack_->table, hub_,
                                        kGoldenPathsPerEndpoint);
      eval_s = s.stop();
    }
    times.signoff_s = sign.stop();
    if (layers != nullptr) {
      layers->add("pba.sync_ms", "ms", sync_s * 1e3);
      layers->add("pba.eval_ms", "ms", eval_s * 1e3);
      layers->add("pba.nodes_recomputed", "count",
                  static_cast<double>(engine.stats().nodes_recomputed -
                                      recomputed_before));
    }
  }
  return times;
}

void probe_rebuild(Stack& stack, Tracer& tracer, LayerSet& layers,
                   Report& report) {
  Timer& timer = *stack.timer;
  const std::vector<double> before = state_signature(timer);
  for (int i = 0; i < 5; ++i) {
    Scope s(tracer, "sta.rebuild", static_cast<std::uint64_t>(i));
    timer.rebuild_graph();
    timer.set_instance_derates(compute_gba_derates(timer.graph(), stack.table));
    timer.update_timing();
    layers.add("sta.rebuild_ms", "ms", s.stop() * 1e3);
  }
  report.gate("rebuild_preserves_state",
              same_bits(before, state_signature(timer)));
}

void record_memory(const Timer& timer, LayerSet& layers) {
  const Timer::MemoryStats m = timer.memory_stats();
  const auto mib = [](std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  layers.set("sta.arena_mb", "MB", mib(m.arena_bytes));
  layers.set("sta.delay_cache_mb", "MB", mib(m.delay_cache_bytes));
  layers.set("sta.cow_retained_mb", "MB", mib(m.cow_retained_bytes));
}

void record_update_stats(const Timer::UpdateStats& st, LayerSet& layers) {
  layers.set("sta.full_updates", "count", static_cast<double>(st.full_updates));
  layers.set("sta.incremental_updates", "count",
             static_cast<double>(st.incremental_updates));
  layers.set("sta.forward_nodes", "count",
             static_cast<double>(st.forward_nodes));
  layers.set("sta.backward_nodes", "count",
             static_cast<double>(st.backward_nodes));
  layers.set("sta.delay_cache_hit_rate", "ratio", st.delay_cache_hit_rate());
}

void record_flow_counts(const FlowCounts& c, LayerSet& layers) {
  layers.set("opt.transforms_attempted", "count",
             static_cast<double>(c.transforms_attempted));
  layers.set("opt.buffer_trials", "count",
             static_cast<double>(c.buffer_trials));
  layers.set("opt.accept_ratio", "ratio",
             c.transforms_attempted == 0
                 ? 0.0
                 : static_cast<double>(c.accepted) /
                       static_cast<double>(c.transforms_attempted));
  layers.set("mgba.cold_fits", "count", static_cast<double>(c.cold_fits));
  layers.set("mgba.warm_refits", "count", static_cast<double>(c.warm_refits));
}

void write_trace_files(const Options& options,
                       const std::vector<const Tracer*>& tracers,
                       const LayerSet& layers, Report& report) {
  std::map<std::string, SpanTotals> by_span = span_totals(tracers);
  std::map<std::string, SpanTotals> by_layer;
  for (const auto& [name, t] : by_span) {
    SpanTotals& l = by_layer[layer_of(name)];
    l.count += t.count;
    l.total_s += t.total_s;
    l.self_s += t.self_s;
  }
  JsonWriter w;
  w.begin_object().key("workload").value(options.workload);
  for (const auto& [key, m] :
       {std::pair{"spans", &by_span}, std::pair{"layers", &by_layer}}) {
    w.key(key).begin_object();
    for (const auto& [name, t] : *m) {
      w.key(name).begin_object()
          .key("count").value(static_cast<std::uint64_t>(t.count))
          .key("total_ms").value(t.total_s * 1e3)
          .key("self_ms").value(t.self_s * 1e3)
          .end_object();
    }
    w.end_object();
  }
  w.key("metrics").begin_object();
  for (const Metric& m : layers.metrics()) {
    w.key(m.name).begin_object()
        .key("value").value(m.value)
        .key("unit").value(m.unit)
        .key("samples").value(static_cast<std::uint64_t>(m.samples))
        .end_object();
  }
  w.end_object().end_object();

  const std::string base = options.trace_dir + "/" + options.workload;
  const bool ok = chrome_trace(tracers).write_file(base + ".trace.json") &&
                  w.write_file(base + ".layers.json");
  report.gate("trace_files_written", ok, base + ".{trace,layers}.json");
}

}  // namespace e2e
