/// Thread-scaling bench for the level-synchronous parallel engine: one
/// >=50k-instance generated design pushed through the three parallelized
/// stages — full timer propagation, PBA k-best enumeration (with the
/// golden-PBA problem build), and the SCG solve — at 1/2/4/8 threads.
/// Emits BENCH_parallel_scaling.json and cross-checks that every thread
/// count reproduces the 1-thread arrivals bit-for-bit (the determinism
/// contract of DESIGN.md "Threading model"). One untimed full update warms
/// the delay memo before the thread loop, so no row pays the cold-start
/// NLDM evaluations; each stage reports the best of kRepeats runs.

#include <algorithm>
#include <chrono>
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

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
  GeneratorOptions gen;
  gen.name = "parallel_scaling";
  gen.seed = 97;
  gen.num_gates = 46'000;
  gen.num_flops = 4'000;
  gen.num_inputs = 64;
  gen.num_outputs = 64;
  gen.target_depth = 64;
  gen.num_blocks = 8;

  BenchStack stack(gen);
  stack.constraints.clock_port = stack.generated.clock_port;
  stack.constraints.clock_period_ps = 3200.0;
  stack.timer =
      std::make_unique<Timer>(stack.generated.design, stack.constraints);
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

  // Warm-up: the first propagation fills the delay memo, which every later
  // full update reuses (derates do not move base delays).
  stack.timer->set_instance_derates(derates);
  stack.timer->update_timing();

  std::vector<StageTimes> results;
  std::vector<double> baseline_arrivals;
  bool deterministic = true;

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_num_threads(threads);
    StageTimes t;
    t.threads = threads;
    std::size_t rows = 0;
    double objective = 0.0;
    const auto keep_min = [](double& best, double ms, int rep) {
      best = rep == 0 ? ms : std::min(best, ms);
    };
    for (int rep = 0; rep < kRepeats; ++rep) {
      // set_instance_derates marks the timer dirty_full_, so this times one
      // complete forward + CRPR + backward propagation.
      stack.timer->set_instance_derates(derates);
      double t0 = now_ms();
      stack.timer->update_timing();
      keep_min(t.full_update_ms, now_ms() - t0, rep);

      t0 = now_ms();
      const PathEnumerator enumerator(*stack.timer, kPathsPerEndpoint);
      const auto paths = enumerator.all_paths();
      keep_min(t.enumerate_ms, now_ms() - t0, rep);
      t.paths = paths.size();

      t0 = now_ms();
      const PathEvaluator evaluator(*stack.timer, stack.table);
      const MgbaProblem problem(*stack.timer, evaluator, paths, 0.02);
      keep_min(t.problem_build_ms, now_ms() - t0, rep);
      rows = problem.num_rows();

      t0 = now_ms();
      const SolveResult solved = solve_scg(problem, {}, solver);
      keep_min(t.scg_solve_ms, now_ms() - t0, rep);
      objective = solved.final_objective;
    }

    // Determinism cross-check against the 1-thread propagation.
    std::vector<double> arrivals;
    arrivals.reserve(nodes);
    for (NodeId u = 0; u < nodes; ++u) {
      arrivals.push_back(stack.timer->arrival(u, Mode::Late));
    }
    if (threads == 1) {
      baseline_arrivals = std::move(arrivals);
    } else if (arrivals != baseline_arrivals) {
      deterministic = false;
      std::printf("ERROR: %zu-thread arrivals differ from 1-thread\n",
                  threads);
    }

    std::printf(
        "threads=%zu  update %8.1f ms  enum %8.1f ms  problem %8.1f ms  "
        "solve %8.1f ms  total %8.1f ms  (%zu paths, %zu rows, obj %.3e)\n",
        threads, t.full_update_ms, t.enumerate_ms, t.problem_build_ms,
        t.scg_solve_ms, t.total_ms(), t.paths, rows, objective);
    results.push_back(t);
  }

  std::FILE* out = std::fopen("BENCH_parallel_scaling.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot open BENCH_parallel_scaling.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"design\": {\"name\": \"%s\", \"instances\": %zu, "
               "\"graph_nodes\": %zu, \"paths\": %zu},\n",
               gen.name.c_str(), instances, nodes, results.front().paths);
  std::fprintf(out, "  \"host_hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"deterministic_across_threads\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(out, "  \"reps_best_of\": %d,\n", kRepeats);
  std::fprintf(out, "  \"results\": [\n");
  const double base = results.front().total_ms();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const StageTimes& t = results[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"full_update_ms\": %.2f, "
                 "\"enumerate_ms\": %.2f, \"problem_build_ms\": %.2f, "
                 "\"scg_solve_ms\": %.2f, \"total_ms\": %.2f, "
                 "\"speedup\": %.3f}%s\n",
                 t.threads, t.full_update_ms, t.enumerate_ms,
                 t.problem_build_ms, t.scg_solve_ms, t.total_ms(),
                 base / t.total_ms(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_parallel_scaling.json\n");
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace mgba::bench

int main() { return mgba::bench::run(); }
