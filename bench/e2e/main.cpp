/// mgba_e2e: one workload of the end-to-end benchmark per process.
///
///   mgba_e2e --workload closure_mgba|closure_gba|eco_refit|query_serve
///            [--seed N] [--trace 0|1] [--smoke]
///            --timer PATH --work DIR --out DIR --trace-dir DIR
///
/// Prints every metric and gate, writes <out>/<workload>.results.json
/// (untraced) or <out>/<workload>.traced.json, and ends with one JSON result
/// line: the end-to-end metrics of BENCHMARK.json (untraced run) or its
/// per-layer metrics (--trace 1). Exits 1 when a correctness gate fails, 2
/// on bad arguments. bench/e2e/run.sh builds the engine and this program
/// and is the intended entry point.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "util/thread_pool.hpp"

namespace {

// The metric lists of BENCHMARK.json, in its order and with its units.
const std::vector<e2e::Listed> kEndToEnd = {
    {"setup_s", "s"}, {"latency_ms_min", "ms"}, {"peak_rss_mb", "MB"}};
const std::vector<e2e::Listed> kPerLayer = {
    {"netlist.generate_s", "s"},       {"sta.timer_build_s", "s"},
    {"aocv.derates_ms", "ms"},         {"opt.choose_period_s", "s"},
    {"sta.rebuild_ms", "ms"},          {"opt.buffer_trial_ms", "ms"},
    {"opt.resize_trial_ms", "ms"},     {"opt.recovery_s", "s"},
    {"opt.transforms_attempted", "count"}, {"opt.buffer_trials", "count"},
    {"opt.accept_ratio", "ratio"},     {"mgba.fit_s", "s"},
    {"mgba.cold_fits", "count"},       {"mgba.warm_refits", "count"},
    {"pba.cold_sync_ms", "ms"},        {"pba.extract_ms", "ms"},
    {"mgba.problem_build_ms", "ms"},   {"mgba.solve_ms", "ms"},
    {"mgba.solver_iterations", "count"}, {"sta.weight_install_ms", "ms"},
    {"sta.incr_update_ms", "ms"},      {"mgba.refit_ms", "ms"},
    {"mgba.refit_rows_ratio", "ratio"}, {"opt.qor_ms", "ms"},
    {"pba.sync_ms", "ms"},             {"pba.eval_ms", "ms"},
    {"pba.nodes_recomputed", "count"}, {"shell.query_us", "us"},
    {"server.overhead_us", "us"},      {"server.reader_scaling", "ratio"},
    {"shell.size_cell_ms", "ms"},      {"sta.full_updates", "count"},
    {"sta.incremental_updates", "count"}, {"sta.forward_nodes", "count"},
    {"sta.backward_nodes", "count"},   {"sta.delay_cache_hit_rate", "ratio"},
    {"sta.arena_mb", "MB"},            {"sta.delay_cache_mb", "MB"},
    {"sta.cow_retained_mb", "MB"},     {"trace_overhead_pct", "%"}};

int usage(const char* why) {
  std::fprintf(stderr,
               "mgba_e2e: %s\nusage: mgba_e2e --workload NAME [--seed N] "
               "[--trace 0|1] [--smoke] --timer PATH --work DIR --out DIR "
               "--trace-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--timer") {
      o.timer_path = v;
    } else if (arg == "--work") {
      o.work_dir = v;
    } else if (arg == "--out") {
      o.out_dir = v;
    } else if (arg == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.timer_path.empty() || o.work_dir.empty() || o.out_dir.empty() ||
      o.trace_dir.empty()) {
    return usage("--timer, --work, --out and --trace-dir are required");
  }
  o.seconds = o.smoke ? e2e::kSmokeSeconds : e2e::kWindowSeconds;

  // One engine thread: parallel speedup is not what this benchmark
  // measures, and on a shared host extra threads only add noise.
  mgba::set_num_threads(1);
  e2e::Report report(o.workload, o.seed, o.seconds, o.trace, o.smoke);
  if (o.workload == "closure_mgba" || o.workload == "closure_gba") {
    e2e::run_closure(o, o.workload == "closure_mgba", report);
  } else if (o.workload == "eco_refit") {
    e2e::run_eco_refit(o, report);
  } else if (o.workload == "query_serve") {
    e2e::run_query_serve(o, report);
  } else {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }

  const std::vector<e2e::Listed>& listed = o.trace ? kPerLayer : kEndToEnd;
  report.check_listed(listed);
  const std::string results = o.out_dir + "/" + o.workload +
                              (o.trace ? ".traced.json" : ".results.json");
  report.gate("results_written", report.results_json().write_file(results),
              results);
  report.print();
  std::printf("%s\n", report.result_line(listed).c_str());
  return report.correct() ? 0 : 1;
}
