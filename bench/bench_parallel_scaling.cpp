/// Thread-scaling bench for the level-synchronous parallel engine: one
/// >=50k-instance generated design pushed through the three parallelized
/// stages — full timer propagation, PBA k-best enumeration (with the
/// golden-PBA problem build), and the SCG solve — at 1/2/4/8 threads.
/// Emits BENCH_parallel_scaling.json and cross-checks that every thread
/// count reproduces the 1-thread arrivals bit-for-bit (the determinism
/// contract of DESIGN.md "Threading model"). One untimed full update warms
/// the delay memo before the thread loop, so no row pays the cold-start
/// NLDM evaluations; each stage reports the best of kRepeats runs.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "util/thread_pool.hpp"

namespace mgba::bench {
namespace {

struct StageTimes {
  std::size_t threads = 1;
  double full_update_ms = 0.0;
  double enumerate_ms = 0.0;
  double problem_build_ms = 0.0;
  double scg_solve_ms = 0.0;
  std::size_t paths = 0;

  [[nodiscard]] double total_ms() const {
    return full_update_ms + enumerate_ms + problem_build_ms + scg_solve_ms;
  }
};

int run() {
  const GeneratorOptions gen = scaling_design_options("parallel_scaling");

  // Warm-up: make_stack's first propagation fills the delay memo, which
  // every later full update reuses (derates do not move base delays).
  const auto stack_owner = make_stack(gen, 3200.0);
  BenchStack& stack = *stack_owner;
  const auto derates =
      compute_gba_derates(stack.timer->graph(), stack.table);

  const std::size_t instances = stack.design().num_instances();
  const std::size_t nodes = stack.timer->graph().num_nodes();
  std::printf("design %s: %zu instances, %zu graph nodes, clock %.0f ps\n",
              gen.name.c_str(), instances, nodes,
              stack.constraints.clock_period_ps);
  if (instances < 50'000) {
    std::printf("WARNING: design below the 50k-instance target\n");
  }

  constexpr std::size_t kPathsPerEndpoint = 4;
  constexpr int kRepeats = 3;
  SolverOptions solver;
  solver.max_iterations = 800;

  std::vector<StageTimes> results;
  std::vector<double> baseline_arrivals;
  Gates gates;

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_num_threads(threads);
    StageTimes t;
    t.threads = threads;
    std::size_t rows = 0;
    double objective = 0.0;
    BestOf update, enumerate, build, solve;
    for (int rep = 0; rep < kRepeats; ++rep) {
      // set_instance_derates marks the timer dirty_full_, so this times one
      // complete forward + CRPR + backward propagation.
      stack.timer->set_instance_derates(derates);
      Stopwatch watch;
      stack.timer->update_timing();
      update.add(watch.millis());

      watch.reset();
      const PathEnumerator enumerator(*stack.timer, kPathsPerEndpoint);
      const auto paths = enumerator.all_paths();
      enumerate.add(watch.millis());
      t.paths = paths.size();

      watch.reset();
      const PathEvaluator evaluator(*stack.timer, stack.table);
      const MgbaProblem problem(*stack.timer, evaluator, paths, 0.02);
      build.add(watch.millis());
      rows = problem.num_rows();

      watch.reset();
      const SolveResult solved = solve_scg(problem, {}, solver);
      solve.add(watch.millis());
      objective = solved.final_objective;
    }
    t.full_update_ms = update.ms();
    t.enumerate_ms = enumerate.ms();
    t.problem_build_ms = build.ms();
    t.scg_solve_ms = solve.ms();

    // Determinism cross-check against the 1-thread propagation.
    std::vector<double> arrivals;
    arrivals.reserve(nodes);
    for (NodeId u = 0; u < nodes; ++u) {
      arrivals.push_back(stack.timer->arrival(u, Mode::Late));
    }
    if (threads == 1) {
      baseline_arrivals = std::move(arrivals);
    } else {
      gates.check(arrivals == baseline_arrivals,
                  str_format("%zu-thread arrivals differ from 1-thread",
                             threads));
    }

    std::printf(
        "threads=%zu  update %8.1f ms  enum %8.1f ms  problem %8.1f ms  "
        "solve %8.1f ms  total %8.1f ms  (%zu paths, %zu rows, obj %.3e)\n",
        threads, t.full_update_ms, t.enumerate_ms, t.problem_build_ms,
        t.scg_solve_ms, t.total_ms(), t.paths, rows, objective);
    results.push_back(t);
  }

  const double base = results.front().total_ms();
  std::vector<JsonObject> rows;
  for (const StageTimes& t : results) {
    rows.emplace_back()
        .add("threads", t.threads)
        .add("full_update_ms", t.full_update_ms, 2)
        .add("enumerate_ms", t.enumerate_ms, 2)
        .add("problem_build_ms", t.problem_build_ms, 2)
        .add("scg_solve_ms", t.scg_solve_ms, 2)
        .add("total_ms", t.total_ms(), 2)
        .add("speedup", base / t.total_ms(), 3);
  }
  JsonObject design, doc;
  design.add("name", gen.name)
      .add("instances", instances)
      .add("graph_nodes", nodes)
      .add("paths", results.front().paths);
  doc.add("design", design)
      .add("host_hardware_concurrency", std::thread::hardware_concurrency())
      .add("deterministic_across_threads", gates.passed())
      .add("reps_best_of", kRepeats)
      .add("results", rows);
  if (!write_json("BENCH_parallel_scaling.json", doc)) return 1;
  return gates.exit_code();
}

}  // namespace
}  // namespace mgba::bench

int main() { return mgba::bench::run(); }
