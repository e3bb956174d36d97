/// Solver fast-path bench: the two perf claims of the sparse-kernel /
/// incremental-refit work, measured on one >=50k-instance design.
///
///   1. Sparse stochastic gradient: solve_scg with sparse accumulators vs.
///      solve_scg_dense_reference, at 1/2/4/8 threads, bit-identical x
///      required everywhere (the sparse path is an arithmetic re-ordering
///      of nothing — same row partition, same block-ordered reduction).
///   2. Incremental refit: MgbaRefitSession.refit() after a tiny ECO vs. a
///      from-scratch run_mgba_flow on the same post-ECO design, with the
///      touched-row ratio from the session's stats counters.
///
/// Emits BENCH_solver_fastpath.json. `--smoke` runs a seconds-scale
/// version on a tiny design and exits nonzero if sparse and dense solves
/// (or 1- vs 4-thread sparse solves) diverge — wired into ctest.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "mgba/framework.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "sta/state_signature.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mgba::bench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A same-footprint sibling cell, or nullopt (flip-flops excluded).
std::optional<std::size_t> sizable_sibling(const Library& library,
                                           const Design& design,
                                           InstanceId inst) {
  const LibCell& cell = design.cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return std::nullopt;
  for (std::size_t j = 0; j < library.num_cells(); ++j) {
    const LibCell& c = library.cell(j);
    if (c.footprint == cell.footprint && c.name != cell.name) return j;
  }
  return std::nullopt;
}

/// Resizes \p count deterministic gates (value-only ECO; the timer's ECO
/// log stays clean).
void apply_small_eco(BenchStack& stack, std::size_t count,
                     std::uint64_t seed) {
  Rng rng(seed);
  std::size_t applied = 0;
  while (applied < count) {
    const auto inst = static_cast<InstanceId>(
        rng.uniform_index(stack.design().num_instances()));
    const auto sibling = sizable_sibling(stack.library, stack.design(), inst);
    if (!sibling.has_value()) continue;
    if (stack.design().instance(inst).cell == *sibling) continue;
    // Clock-tree buffers are out of scope for a value-only ECO: resizing
    // one escalates to a clock-network invalidation and poisons the ECO
    // log (forcing a cold rebuild), same exclusion the optimizer applies.
    const LibCell& cell = stack.design().cell_of(inst);
    const NodeId out = stack.timer->graph().node_of_pin(
        inst, static_cast<std::uint32_t>(cell.output_pin()));
    if (out == kInvalidNode ||
        stack.timer->graph().node(out).is_clock_network) {
      continue;
    }
    stack.design().resize_instance(inst, *sibling);
    stack.timer->invalidate_instance(inst);
    ++applied;
  }
}

GeneratorOptions large_options() {
  GeneratorOptions gen;
  gen.name = "solver_fastpath";
  gen.seed = 97;
  gen.num_gates = 46'000;
  gen.num_flops = 4'000;
  gen.num_inputs = 64;
  gen.num_outputs = 64;
  gen.target_depth = 64;
  gen.num_blocks = 8;
  return gen;
}

GeneratorOptions smoke_options() {
  GeneratorOptions gen;
  gen.name = "solver_fastpath_smoke";
  gen.seed = 97;
  gen.num_gates = 600;
  gen.num_flops = 64;
  gen.num_inputs = 16;
  gen.num_outputs = 16;
  gen.target_depth = 24;
  gen.num_blocks = 4;
  return gen;
}

std::unique_ptr<BenchStack> build_stack(const GeneratorOptions& gen,
                                        double clock_period_ps) {
  auto stack = std::make_unique<BenchStack>(gen);
  stack->constraints.clock_port = stack->generated.clock_port;
  stack->constraints.clock_period_ps = clock_period_ps;
  stack->timer =
      std::make_unique<Timer>(stack->generated.design, stack->constraints);
  stack->timer->set_instance_derates(
      compute_gba_derates(stack->timer->graph(), stack->table));
  stack->timer->update_timing();
  return stack;
}

struct KernelTimes {
  std::size_t threads = 1;
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
};

int run(bool smoke) {
  const GeneratorOptions gen = smoke ? smoke_options() : large_options();
  auto stack = build_stack(gen, smoke ? 1800.0 : 3200.0);
  const std::size_t instances = stack->design().num_instances();
  std::printf("design %s: %zu instances, clock %.0f ps\n", gen.name.c_str(),
              instances, stack->constraints.clock_period_ps);

  // --- 1. dense vs. sparse SCG kernels ------------------------------------
  const PathEnumerator enumerator(*stack->timer, 4);
  const auto paths = enumerator.all_paths();
  const PathEvaluator evaluator(*stack->timer, stack->table);
  const MgbaProblem problem(*stack->timer, evaluator, paths, 0.02);
  std::printf("problem: %zu rows x %zu cols\n", problem.num_rows(),
              problem.num_cols());

  SolverOptions solver;
  solver.max_iterations = smoke ? 300 : 800;
  // Algorithm 2's stochastic batches: at ~40k rows the default 2% fraction
  // draws ~800 rows/iteration, whose union of supports covers most of the
  // column space — every sweep degenerates to dense. 0.2% (~80 rows, still
  // well above min_rows) is the regime the row-sampling loop actually runs
  // the solver in; dense and sparse both use it, so the comparison stays
  // bit-identical at equal final objective.
  solver.row_fraction = 0.002;

  bool identical = true;
  std::vector<KernelTimes> kernel;
  std::vector<double> reference_x;
  const auto threads_sweep = smoke
                                 ? std::vector<std::size_t>{1, 4}
                                 : std::vector<std::size_t>{1, 2, 4, 8};
  const int repeats = smoke ? 1 : 3;  // best-of-3 against host noise
  for (const std::size_t threads : threads_sweep) {
    set_num_threads(threads);
    KernelTimes t;
    t.threads = threads;

    double final_objective = 0.0;
    std::size_t iterations = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      double t0 = now_ms();
      const SolveResult dense = solve_scg_dense_reference(problem, {}, solver);
      const double dense_ms = now_ms() - t0;
      t0 = now_ms();
      const SolveResult sparse = solve_scg(problem, {}, solver);
      const double sparse_ms = now_ms() - t0;
      t.dense_ms = rep == 0 ? dense_ms : std::min(t.dense_ms, dense_ms);
      t.sparse_ms = rep == 0 ? sparse_ms : std::min(t.sparse_ms, sparse_ms);
      final_objective = sparse.final_objective;
      iterations = sparse.iterations;

      if (reference_x.empty()) reference_x = dense.x;
      if (!same_bits(dense.x, reference_x) ||
          !same_bits(sparse.x, reference_x)) {
        identical = false;
        std::printf("ERROR: solve at %zu threads diverged from reference\n",
                    threads);
      }
    }
    std::printf(
        "threads=%zu  dense %8.1f ms  sparse %8.1f ms  speedup %5.2fx  "
        "(obj %.6e, %zu iters)\n",
        threads, t.dense_ms, t.sparse_ms, t.dense_ms / t.sparse_ms,
        final_objective, iterations);
    kernel.push_back(t);
  }
  set_num_threads(1);

  // --- 2. cold fit vs. warm refit ------------------------------------------
  // The refit half gets its own stack: same scale, but with the block count
  // raised so the design has the many-independent-cones shape of a real SoC
  // — an ECO's influence cone stays confined to its logic blocks, which is
  // the regime where O(touched) refit matters. (The kernel section keeps
  // the parallel-scaling bench's exact 8-block design.)
  GeneratorOptions refit_gen = gen;
  refit_gen.name += "_refit";
  if (!smoke) refit_gen.num_blocks = 64;
  auto refit_stack = build_stack(refit_gen, smoke ? 1800.0 : 3200.0);

  MgbaFlowOptions flow;
  flow.paths_per_endpoint = 4;
  flow.candidate_paths_per_endpoint = 4;
  flow.solver = MgbaSolverKind::Scg;
  flow.solver_options = solver;

  MgbaRefitSession session(*refit_stack->timer, refit_stack->table, flow);
  double t0 = now_ms();
  session.fit();
  const double cold_fit_ms = now_ms() - t0;

  // A small ECO on the fitted design (5 of ~50k instances ≈ 0.01%).
  const std::size_t eco_size = smoke ? 2 : 5;
  apply_small_eco(*refit_stack, eco_size, 1234);
  t0 = now_ms();
  session.refit();
  const double warm_refit_ms = now_ms() - t0;
  const RefitStats stats = session.stats();

  // Reference: a from-scratch fit of the same post-ECO design state.
  t0 = now_ms();
  run_mgba_flow(*refit_stack->timer, refit_stack->table, flow);
  const double cold_refit_ms = now_ms() - t0;

  std::printf(
      "refit: cold fit %.1f ms, warm refit %.1f ms (%.2fx vs cold rebuild "
      "%.1f ms), %zu/%zu rows re-evaluated (%.2f%%), cone %zu nodes\n",
      cold_fit_ms, warm_refit_ms, cold_refit_ms / warm_refit_ms,
      cold_refit_ms, stats.rows_reevaluated, stats.rows_total,
      stats.rows_total == 0
          ? 0.0
          : 100.0 * static_cast<double>(stats.rows_reevaluated) /
                static_cast<double>(stats.rows_total),
      stats.cone_nodes);

  if (smoke) {
    std::printf(identical ? "smoke OK: sparse/dense/threads bit-identical\n"
                          : "smoke FAILED\n");
    return identical ? 0 : 1;
  }

  std::FILE* out = std::fopen("BENCH_solver_fastpath.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot open BENCH_solver_fastpath.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"design\": {\"name\": \"%s\", \"instances\": %zu, "
               "\"rows\": %zu, \"cols\": %zu},\n",
               gen.name.c_str(), instances, problem.num_rows(),
               problem.num_cols());
  std::fprintf(out, "  \"host_hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"bit_identical_dense_sparse_all_threads\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(out, "  \"solver_kernels\": [\n");
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    const KernelTimes& t = kernel[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"dense_scg_ms\": %.2f, "
                 "\"sparse_scg_ms\": %.2f, \"sparse_speedup\": %.3f}%s\n",
                 t.threads, t.dense_ms, t.sparse_ms, t.dense_ms / t.sparse_ms,
                 i + 1 < kernel.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"refit\": {\n");
  std::fprintf(out, "    \"design_blocks\": %zu,\n", refit_gen.num_blocks);
  std::fprintf(out, "    \"eco_instances\": %zu,\n", stats.eco_instances);
  std::fprintf(out, "    \"cold_fit_ms\": %.2f,\n", cold_fit_ms);
  std::fprintf(out, "    \"warm_refit_ms\": %.2f,\n", warm_refit_ms);
  std::fprintf(out, "    \"cold_rebuild_ms\": %.2f,\n", cold_refit_ms);
  std::fprintf(out, "    \"refit_speedup\": %.3f,\n",
               cold_refit_ms / warm_refit_ms);
  std::fprintf(out, "    \"rows_total\": %zu,\n", stats.rows_total);
  std::fprintf(out, "    \"rows_reevaluated\": %zu,\n",
               stats.rows_reevaluated);
  std::fprintf(out, "    \"cone_nodes\": %zu\n", stats.cone_nodes);
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_solver_fastpath.json\n");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace mgba::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return mgba::bench::run(smoke);
}
