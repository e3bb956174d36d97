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

#include <cstdio>
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

/// Resizes \p count deterministic gates (value-only ECO; the timer's ECO
/// log stays clean).
void apply_small_eco(BenchStack& stack, std::size_t count,
                     std::uint64_t seed) {
  Rng rng(seed);
  std::size_t applied = 0;
  while (applied < count) {
    const auto inst = static_cast<InstanceId>(
        rng.uniform_index(stack.design().num_instances()));
    const auto sibling = resize_sibling(stack, inst);
    if (!sibling.has_value()) continue;
    stack.design().resize_instance(inst, *sibling);
    stack.timer->invalidate_instance(inst);
    ++applied;
  }
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

struct KernelTimes {
  std::size_t threads = 1;
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
};

int run(bool smoke) {
  const GeneratorOptions gen =
      smoke ? smoke_options() : scaling_design_options("solver_fastpath");
  auto stack = make_stack(gen, smoke ? 1800.0 : 3200.0);
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
    BestOf dense_time, sparse_time;
    for (int rep = 0; rep < repeats; ++rep) {
      SolveResult dense, sparse;
      dense_time.time(
          [&] { dense = solve_scg_dense_reference(problem, {}, solver); });
      sparse_time.time([&] { sparse = solve_scg(problem, {}, solver); });
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
    t.dense_ms = dense_time.ms();
    t.sparse_ms = sparse_time.ms();
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
  auto refit_stack = make_stack(refit_gen, smoke ? 1800.0 : 3200.0);

  MgbaFlowOptions flow;
  flow.paths_per_endpoint = 4;
  flow.candidate_paths_per_endpoint = 4;
  flow.solver = MgbaSolverKind::Scg;
  flow.solver_options = solver;

  MgbaRefitSession session(*refit_stack->timer, refit_stack->table, flow);
  Stopwatch watch;
  session.fit();
  const double cold_fit_ms = watch.millis();

  // A small ECO on the fitted design (5 of ~50k instances ≈ 0.01%).
  const std::size_t eco_size = smoke ? 2 : 5;
  apply_small_eco(*refit_stack, eco_size, 1234);
  watch.reset();
  session.refit();
  const double warm_refit_ms = watch.millis();
  const RefitStats stats = session.stats();

  // Reference: a from-scratch fit of the same post-ECO design state.
  watch.reset();
  run_mgba_flow(*refit_stack->timer, refit_stack->table, flow);
  const double cold_refit_ms = watch.millis();

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

  std::vector<JsonObject> rows;
  for (const KernelTimes& t : kernel) {
    rows.emplace_back()
        .add("threads", t.threads)
        .add("dense_scg_ms", t.dense_ms, 2)
        .add("sparse_scg_ms", t.sparse_ms, 2)
        .add("sparse_speedup", t.dense_ms / t.sparse_ms, 3);
  }
  JsonObject design, refit, doc;
  design.add("name", gen.name)
      .add("instances", instances)
      .add("rows", problem.num_rows())
      .add("cols", problem.num_cols());
  refit.add("design_blocks", refit_gen.num_blocks)
      .add("eco_instances", stats.eco_instances)
      .add("cold_fit_ms", cold_fit_ms, 2)
      .add("warm_refit_ms", warm_refit_ms, 2)
      .add("cold_rebuild_ms", cold_refit_ms, 2)
      .add("refit_speedup", cold_refit_ms / warm_refit_ms, 3)
      .add("rows_total", stats.rows_total)
      .add("rows_reevaluated", stats.rows_reevaluated)
      .add("cone_nodes", stats.cone_nodes);
  doc.add("design", design)
      .add("host_hardware_concurrency", std::thread::hardware_concurrency())
      .add("bit_identical_dense_sparse_all_threads", identical)
      .add("solver_kernels", rows)
      .add("refit", refit);
  if (!write_json("BENCH_solver_fastpath.json", doc)) return 1;
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace mgba::bench

int main(int argc, char** argv) {
  return mgba::bench::run(mgba::bench::smoke_flag(argc, argv));
}
