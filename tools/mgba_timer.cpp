/// \file mgba_timer.cpp
/// Command-line driver for the library — the shape of tool a downstream
/// user runs without writing C++:
///
///   mgba_timer generate --design 3 --out d3.net
///   mgba_timer generate --gates 5000 --flops 400 --seed 7 --out my.net
///   mgba_timer stats    --netlist d3.net
///   mgba_timer report   --netlist d3.net --utilization 1.1 [--top 10]
///   mgba_timer fit      --netlist d3.net --utilization 1.1 [--hold]
///   mgba_timer optimize --netlist d3.net --utilization 1.1 [--mgba]
///
/// All subcommands accept --derates <file> to replace the built-in AOCV
/// table (format: see src/aocv/derate_io.hpp) and --period <ps> to fix the
/// clock instead of deriving it from --utilization. Multi-corner analysis:
/// --corners <file> loads an MCMM corner spec (format: see
/// src/aocv/corner_io.hpp); report/fit/optimize then print per-corner
/// results plus the merged worst-corner view, and the optimizer closes
/// timing against the merge.

#include <unistd.h>

#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "aocv/aocv_model.hpp"
#include "aocv/corner_io.hpp"
#include "aocv/derate_io.hpp"
#include "arg_parse.hpp"
#include "liberty/default_library.hpp"
#include "liberty/liberty_io.hpp"
#include "mgba/framework.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog_io.hpp"
#include "opt/optimizer.hpp"
#include "pba/path_engine.hpp"
#include "pba/path_report.hpp"
#include "sta/drc.hpp"
#include "sta/report.hpp"
#include "sta/sdc.hpp"
#include "sta/timer.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "shell/interpreter.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mgba;
using mgba::tools::Args;

// Every fatal condition funnels through fail(): message on stderr, one of
// two exit codes so callers can distinguish usage mistakes from unreadable
// inputs.
constexpr int kExitBadArgs = 2;  ///< bad command line
constexpr int kExitBadFile = 3;  ///< missing/unwritable/unreadable file

[[noreturn]] __attribute__((format(printf, 2, 3))) void fail(int code,
                                                             const char* fmt,
                                                             ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  std::exit(code);
}

int usage() {
  std::fprintf(stderr,
               "usage: mgba_timer "
               "<generate|stats|report|fit|optimize|dump-library> [options]\n"
               "       mgba_timer --script FILE   (run a timing-shell "
               "script)\n"
               "       mgba_timer --shell         (interactive timing "
               "shell on stdin)\n"
               "       mgba_timer --serve SOCKET [--state-dir DIR]\n"
               "                  [--idle-timeout S]  (timing daemon on a\n"
               "                   Unix socket; drive with mgba_client)\n"
               "       mgba_timer --version       (build info)\n"
               "  common: --library FILE (liberty-lite cell library)\n"
               "          --threads N (parallel STA/PBA/solver threads;\n"
               "                       default MGBA_THREADS env or all cores)\n"
               "          --verbose (timing-update statistics: update\n"
               "                     counts, frontier sizes, delay-cache\n"
               "                     hit rate, buffer-trial rollbacks,\n"
               "                     memory footprint)\n"
               "          --corners FILE (MCMM corner spec; per-corner +\n"
               "                          merged worst-corner analysis)\n"
               "  generate --design 1..10 | --instances N (scaled preset) |\n"
               "           --gates N --flops N [--seed S]\n"
               "           [--depth D] [--blocks B] --out FILE\n"
               "  stats    --netlist FILE\n"
               "  report   --netlist FILE [--utilization U | --period PS]\n"
               "           [--derates FILE] [--top N]\n"
               "  fit      --netlist FILE [--utilization U | --period PS]\n"
               "           [--derates FILE] [--hold] [--solver gd|scg|rs]\n"
               "  optimize --netlist FILE [--utilization U | --period PS]\n"
               "           [--derates FILE] [--mgba]\n");
  return 2;
}

DerateTable load_table(const Args& args) {
  const std::string path = args.get("derates");
  if (path.empty()) return default_aocv_table();
  std::ifstream in(path);
  if (!in) fail(kExitBadFile, "cannot open derate table %s", path.c_str());
  return read_derate_table(in);
}

Library load_library(const Args& args) {
  const std::string path = args.get("library");
  if (path.empty()) return make_default_library();
  std::ifstream in(path);
  if (!in) fail(kExitBadFile, "cannot open library %s", path.c_str());
  return read_library(in);
}

/// Loaded netlist plus the timer configured from the common options.
struct Session {
  Library library;
  std::unique_ptr<Design> design;
  DerateTable table;
  TimingConstraints constraints;
  std::unique_ptr<Timer> timer;
  /// The corner set (one identity entry without --corners). Fits, the
  /// closer and path comparisons always run on it.
  std::vector<CornerSetup> setups;

  explicit Session(const Args& args)
      : library(load_library(args)), table(default_aocv_table()) {}

  /// Whether reports add the merged worst-corner view.
  [[nodiscard]] bool multi_corner() const { return setups.size() > 1; }
};

std::unique_ptr<Session> open_session(const Args& args) {
  const std::string path = args.get("netlist");
  if (path.empty()) fail(kExitBadArgs, "--netlist is required");
  auto session = std::make_unique<Session>(args);
  session->table = load_table(args);

  std::ifstream in(path);
  if (!in) fail(kExitBadFile, "cannot open netlist %s", path.c_str());
  const bool is_verilog =
      path.size() > 2 && path.substr(path.size() - 2) == ".v";
  if (is_verilog) {
    session->design =
        std::make_unique<Design>(read_verilog(session->library, in));
    // Verilog carries no placement; synthesize one so wire delays exist.
    scatter_placement(*session->design,
                      static_cast<std::uint64_t>(args.get_int("seed", 1)));
  } else {
    session->design =
        std::make_unique<Design>(read_netlist(session->library, in));
  }

  if (args.has("sdc")) {
    std::ifstream sdc_in(args.get("sdc"));
    if (!sdc_in) {
      fail(kExitBadFile, "cannot open SDC %s", args.get("sdc").c_str());
    }
    session->constraints = read_sdc(sdc_in, session->constraints);
  }
  session->constraints.clock_port =
      args.get("clock", session->constraints.clock_port);
  if (args.has("period")) {
    session->constraints.clock_period_ps = args.get_double("period", 1000.0);
  } else if (args.has("sdc")) {
    // Period came from the SDC's create_clock.
  } else {
    // Derive the period from the golden critical path.
    session->constraints.clock_period_ps = 1e9;
    Timer probe(*session->design, session->constraints);
    probe.set_instance_derates(
        compute_gba_derates(probe.graph(), session->table));
    probe.update_timing();
    session->constraints.clock_period_ps = choose_clock_period(
        probe, session->table, args.get_double("utilization", 1.0));
  }
  session->constraints.clock_uncertainty_ps =
      args.get_double("uncertainty", 0.0);

  session->timer =
      std::make_unique<Timer>(*session->design, session->constraints);
  if (args.has("corners")) {
    std::ifstream corners_in(args.get("corners"));
    if (!corners_in) {
      fail(kExitBadFile, "cannot open corner spec %s",
           args.get("corners").c_str());
    }
    session->setups = read_corners(corners_in, session->table);
    apply_corner_setups(*session->timer, session->setups);
  } else {
    session->setups = default_corner_setups(session->table);
    session->timer->set_instance_derates(
        compute_gba_derates(session->timer->graph(), session->table));
  }
  session->timer->update_timing();
  return session;
}

int cmd_generate(const Args& args) {
  GeneratorOptions options;
  if (args.has("design")) {
    options = benchmark_design_options(
        static_cast<int>(args.get_int("design", 1)));
  }
  if (args.has("instances")) {
    // Target total instance count with realistic ratios; explicit knobs
    // below still override individual fields.
    options = scaled_design_options(
        static_cast<std::size_t>(args.get_int("instances", 100000)),
        options.seed);
  }
  if (args.has("gates")) {
    options.num_gates = static_cast<std::size_t>(args.get_int("gates", 2000));
  }
  if (args.has("flops")) {
    options.num_flops = static_cast<std::size_t>(args.get_int("flops", 160));
  }
  if (args.has("seed")) {
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  }
  if (args.has("depth")) {
    options.target_depth =
        static_cast<std::size_t>(args.get_int("depth", 48));
  }
  if (args.has("blocks")) {
    options.num_blocks =
        static_cast<std::size_t>(args.get_int("blocks", 1));
  }
  const std::string out_path = args.get("out");
  if (out_path.empty()) fail(kExitBadArgs, "--out is required");

  const Library library = load_library(args);
  const GeneratedDesign generated = generate_design(library, options);
  std::ofstream out(out_path);
  if (!out) fail(kExitBadFile, "cannot write %s", out_path.c_str());
  if (out_path.size() > 2 && out_path.substr(out_path.size() - 2) == ".v") {
    write_verilog(generated.design, out);
  } else {
    write_netlist(generated.design, out);
  }
  std::printf("wrote %s: %s", out_path.c_str(),
              compute_design_stats(generated.design).to_string().c_str());
  return 0;
}

int cmd_stats(const Args& args) {
  auto session = open_session(args);
  std::printf("%s", compute_design_stats(*session->design).to_string().c_str());
  std::printf("clock period: %.0f ps\n",
              session->constraints.clock_period_ps);
  return 0;
}

void print_update_stats(const Args& args, const Timer& timer) {
  if (!args.has("verbose")) return;
  std::printf("\n%s\n", timer.update_stats().to_string().c_str());
  std::printf("\n%s\n", timer.memory_stats().to_string().c_str());
}

int cmd_report(const Args& args) {
  auto session = open_session(args);
  Timer& timer = *session->timer;
  std::printf("clock period: %.0f ps\n", session->constraints.clock_period_ps);
  for (CornerId c = 0; c < timer.num_corners(); ++c) {
    std::printf("%s\n", report_summary(timer, Mode::Late, c).c_str());
    std::printf("%s\n", report_summary(timer, Mode::Early, c).c_str());
  }
  if (session->multi_corner()) {
    std::printf("%s\n", report_summary_merged(timer, Mode::Late).c_str());
    std::printf("%s\n", report_summary_merged(timer, Mode::Early).c_str());
  }
  const auto top = static_cast<std::size_t>(args.get_int("top", 10));
  std::printf("%s", report_endpoints(timer, top).c_str());
  // Worst path trace: the merged-worst endpoint, traced at the corner that
  // realizes it.
  NodeId worst = kInvalidNode;
  double worst_slack = kInfPs;
  for (const NodeId e : timer.graph().endpoints()) {
    if (timer.slack_merged(e, Mode::Late) < worst_slack) {
      worst_slack = timer.slack_merged(e, Mode::Late);
      worst = e;
    }
  }
  if (worst != kInvalidNode) {
    std::printf("\n%s",
                report_worst_path(timer, worst,
                                  timer.worst_slack_corner(worst, Mode::Late))
                    .c_str());
  }
  if (args.has("histogram")) {
    for (CornerId c = 0; c < timer.num_corners(); ++c) {
      std::printf("\n%s", report_slack_histogram(timer, 12, c).c_str());
    }
    if (session->multi_corner()) {
      std::printf("\n%s", report_slack_histogram_merged(timer).c_str());
    }
  }
  if (args.has("compare-path") && worst != kInvalidNode) {
    PathEngine engine(timer, 1);
    engine.sync();
    const auto paths = engine.paths_to(worst);
    if (!paths.empty()) {
      std::printf("\n%s", report_path_comparison(
                               timer, session->setups[0].table, paths[0])
                               .c_str());
    }
  }
  if (args.has("drc")) {
    const DrcReport drc = check_electrical_rules(
        timer, args.get_double("max-slew", 0.0));
    std::printf("\n%s", drc.to_string(*session->design).c_str());
  }
  print_update_stats(args, timer);
  return 0;
}

int cmd_fit(const Args& args) {
  auto session = open_session(args);
  MgbaFlowOptions options;
  options.only_violated = !args.has("all-paths");
  if (args.has("hold")) options.check_kind = CheckKind::Hold;
  const std::string solver = args.get("solver", "rs");
  options.solver = solver == "gd"   ? MgbaSolverKind::GradientDescent
                   : solver == "scg" ? MgbaSolverKind::Scg
                                     : MgbaSolverKind::ScgWithRowSampling;

  Timer& timer = *session->timer;
  const std::vector<MgbaFlowResult> fits =
      run_mgba_flow_all_corners(timer, session->setups, options);
  for (const MgbaFlowResult& fit : fits) {
    std::printf(
        "fit (%s, %s): %zu candidates, %zu violated, %zu rows x %zu vars\n",
        args.has("hold") ? "hold" : "setup",
        corner_label(timer, fit.corner).c_str(), fit.candidate_paths,
        fit.violated_paths, fit.fitted_paths, fit.variables);
    std::printf("  mse        %.6g -> %.6g\n", fit.mse_before, fit.mse_after);
    std::printf("  pass ratio %.2f%% -> %.2f%%\n",
                100.0 * fit.pass_ratio_before, 100.0 * fit.pass_ratio_after);
    std::printf("  solve %.3fs (%zu iterations)\n", fit.solve_seconds,
                fit.solver_iterations);
  }
  const Mode mode = args.has("hold") ? Mode::Early : Mode::Late;
  for (CornerId c = 0; c < timer.num_corners(); ++c) {
    std::printf("after fit: %s\n", report_summary(timer, mode, c).c_str());
  }
  if (session->multi_corner()) {
    std::printf("after fit: %s\n", report_summary_merged(timer, mode).c_str());
  }
  return 0;
}

int cmd_optimize(const Args& args) {
  auto session = open_session(args);
  OptimizerOptions options;
  options.use_mgba = args.has("mgba");
  options.max_passes =
      static_cast<std::size_t>(args.get_int("passes", 25));
  TimingCloser closer(*session->design, *session->timer, session->table,
                      options);
  closer.set_corner_setups(session->setups);
  const OptimizerReport report = closer.run();
  std::printf("flow done in %.2fs (%zu passes, fit %.2fs)\n", report.seconds,
              report.passes, report.mgba_seconds);
  std::printf("  transforms: %zu upsizes, %zu buffers (+%zu reverted), "
              "%zu downsizes\n",
              report.upsizes, report.buffers_inserted,
              report.buffers_reverted, report.downsizes);
  std::printf("  initial %s\n", report.initial.to_string().c_str());
  std::printf("  final   %s\n", report.final_qor.to_string().c_str());
  if (session->multi_corner()) {
    for (CornerId c = 0; c < report.final_per_corner.size(); ++c) {
      std::printf("  final   [%s] %s\n",
                  corner_label(*session->timer, c).c_str(),
                  report.final_per_corner[c].to_string().c_str());
    }
  }
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    write_netlist(*session->design, out);
    std::printf("wrote optimized netlist to %s\n", args.get("out").c_str());
  }
  print_update_stats(args, *session->timer);
  return 0;
}

}  // namespace

int cmd_dump_library(const Args& args) {
  const std::string out_path = args.get("out");
  const Library library = load_library(args);
  if (out_path.empty()) {
    write_library(library, std::cout);
  } else {
    std::ofstream out(out_path);
    write_library(library, out);
    std::printf("wrote %zu cells to %s\n", library.num_cells(),
                out_path.c_str());
  }
  return 0;
}

namespace {

void apply_threads(const Args& args) {
  if (!args.has("threads")) return;
  const long n = args.get_int("threads", 0);
  if (n < 1) fail(kExitBadArgs, "--threads must be >= 1");
  set_num_threads(static_cast<std::size_t>(n));
}

/// `mgba_timer --script FILE`: executes the script with every line echoed
/// ("mgba> ..."), stopping at the first error, so runs are golden-diffable
/// transcripts. Exit 0 only when every command succeeded; a failure exits
/// with the status-mapped code (4 unknown command, 5 bad args, 6 engine
/// error) so callers can react without parsing the transcript.
int run_script_mode(const Args& args) {
  const std::string path = args.get("script");
  if (path.empty()) fail(kExitBadArgs, "--script needs a file");
  shell::InterpreterOptions options;
  options.echo = true;
  options.stop_on_error = true;
  shell::ShellInterpreter interpreter(std::cout, options);
  if (const std::string err = interpreter.run_script(path); !err.empty()) {
    fail(kExitBadFile, "%s", err.c_str());
  }
  return server::exit_code_for_status(interpreter.first_error_status());
}

/// `mgba_timer --shell`: interactive REPL on stdin.
int run_shell_mode() {
  shell::InterpreterOptions options;
  options.interactive = true;
  shell::ShellInterpreter interpreter(std::cout, options);
  interpreter.run_stream(std::cin);
  std::cout << "\n";
  return 0;
}

// `mgba_timer --serve`: the stop pipe the signal handler writes to. The
// handler does one async-signal-safe write; the poll loop does the rest.
int g_stop_fd = -1;

extern "C" void handle_stop_signal(int /*sig*/) {
  if (g_stop_fd >= 0) {
    const char b = 's';
    [[maybe_unused]] const ssize_t n = ::write(g_stop_fd, &b, 1);
  }
}

/// `mgba_timer --serve SOCKET`: hosts concurrent timing sessions over a
/// Unix-domain socket (protocol: src/server/protocol.hpp; drive it with
/// tools/mgba_client). SIGINT/SIGTERM drain in-flight requests, flush
/// every session's ECO journal, and exit 0.
int run_serve_mode(const Args& args) {
  const std::string socket_path = args.get("serve");
  if (socket_path.empty()) fail(kExitBadArgs, "--serve needs a socket path");
  server::ServerOptions options;
  options.state_dir = args.get("state-dir");
  const double idle = args.get_double("idle-timeout", 900.0);
  if (idle > 0) options.idle_timeout_s = idle;
  server::TimingServer server(socket_path, options);
  if (const std::string err = server.start(); !err.empty()) {
    fail(kExitBadFile, "%s", err.c_str());
  }
  g_stop_fd = server.stop_fd();
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  std::printf("mgba_timer serving on %s\n", socket_path.c_str());
  std::fflush(stdout);
  return server.run();
}

int cmd_version() {
  std::printf("mgba_timer (mGBA pessimism-reduction timing engine)\n");
  std::printf("  server protocol : %u\n", mgba::server::kProtocolVersion);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command.rfind("--", 0) == 0) {
    // Shell modes take no subcommand; parse the whole command line.
    const Args args(argc, argv);
    if (args.has("version")) return cmd_version();
    apply_threads(args);
    if (args.has("script")) return run_script_mode(args);
    if (args.has("shell")) return run_shell_mode();
    if (args.has("serve")) return run_serve_mode(args);
    return usage();
  }
  const Args args(argc - 1, argv + 1);
  apply_threads(args);
  if (command == "generate") return cmd_generate(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "report") return cmd_report(args);
  if (command == "fit") return cmd_fit(args);
  if (command == "optimize") return cmd_optimize(args);
  if (command == "dump-library") return cmd_dump_library(args);
  return usage();
}
