/// Timing-daemon throughput bench: an in-process TimingServer with a
/// resident design, hammered by N client connections (N in {1, 2, 4})
/// each sending batched read-only query mixes over the Unix-domain
/// socket. Every configuration runs twice — once against a quiescent
/// session and once while a writer connection commits an ECO resize
/// storm inside one long begin_eco bracket — so the numbers show what
/// snapshot-isolated reads cost (and don't cost) under write pressure.
///
/// Reported per configuration: aggregate queries/sec and per-batch p50 /
/// p99 latency. Consistency gate (exit nonzero on failure): every batch
/// answered during the storm must be byte-identical to the pre-ECO
/// baseline transcript — the pinned snapshot readers are promised, not a
/// torn mid-ECO view — and after undo_eco the quiescent answers must
/// return to baseline bit for bit.
///
/// `--smoke` runs a seconds-scale version wired into ctest as
/// server_throughput_smoke. Emits BENCH_server_throughput.json.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shell/interpreter.hpp"

namespace mgba::bench {
namespace {

using server::Client;
using server::ServerOptions;
using server::TimingServer;
using server::WireResult;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Transcript of one batch the way `mgba_timer --script` would print it.
std::string transcript_of(const std::vector<WireResult>& results) {
  std::string text;
  for (const WireResult& r : results) {
    text += r.output;
    if (r.status != 0) text += "error: " + r.error + "\n";
  }
  return text;
}

bool run_ok(Client& client, const std::vector<std::string>& lines,
            std::string* transcript = nullptr) {
  std::vector<WireResult> results;
  if (!client.run_batch(lines, results).empty()) return false;
  if (results.size() != lines.size()) return false;
  for (const WireResult& r : results) {
    if (r.status != 0) {
      std::printf("ERROR: '%s' failed\n", r.error.c_str());
      return false;
    }
  }
  if (transcript != nullptr) *transcript = transcript_of(results);
  return true;
}

/// Mines (endpoint names, resize plan) from a twin interpreter loaded
/// with the same deterministic netlist line the server session ran.
struct TwinPlan {
  struct Flip {
    std::string inst;
    std::string original;  ///< the cell the design starts with
    std::string sibling;   ///< a same-footprint alternative
  };
  std::vector<std::string> queries;
  std::vector<Flip> flips;
};

TwinPlan mine_plan(const std::string& load_line, std::size_t endpoints,
                   std::size_t flips) {
  std::ostringstream sink;
  shell::ShellInterpreter interp(sink);
  if (!interp.execute_line(load_line).ok()) return {};
  shell::ShellSession& session = interp.session();
  const Design& design = session.design();
  const TimingGraph& graph = session.timer().graph();

  TwinPlan plan;
  plan.queries = {"report_wns", "report_tns", "report_worst_slack",
                  "report_endpoints 5"};
  std::string first_endpoint;
  for (const NodeId e : graph.endpoints()) {
    const std::string name = graph.node_name(e);
    if (first_endpoint.empty()) first_endpoint = name;
    plan.queries.push_back("get_slack " + name);
    if (plan.queries.size() >= 4 + endpoints) break;
  }
  if (!first_endpoint.empty()) {
    plan.queries.push_back("report_path " + first_endpoint);
  }

  for (std::size_t i = 0; i < design.num_instances() && plan.flips.size() < flips;
       ++i) {
    const LibCell& cell = design.cell_of(static_cast<InstanceId>(i));
    if (cell.kind == CellKind::FlipFlop) continue;
    for (std::size_t j = 0; j < session.library().num_cells(); ++j) {
      const LibCell& c = session.library().cell(j);
      if (c.footprint == cell.footprint && c.name != cell.name) {
        plan.flips.push_back(
            {design.instance(static_cast<InstanceId>(i)).name, cell.name,
             c.name});
        break;
      }
    }
  }
  return plan;
}

struct ConfigResult {
  int clients = 0;
  bool eco_storm = false;
  std::size_t batches = 0;
  std::size_t queries = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t writer_resizes = 0;
  bool consistent = true;
};

/// One configuration: \p clients reader connections, each sending
/// \p batches_per_client batched query mixes, optionally against a live
/// resize storm. Every transcript is byte-compared to \p baseline.
ConfigResult run_config(const std::string& socket_path, std::uint64_t session,
                        int clients, bool eco_storm,
                        const TwinPlan& plan, const std::string& baseline,
                        std::size_t batches_per_client) {
  ConfigResult r;
  r.clients = clients;
  r.eco_storm = eco_storm;

  const std::string attach = "attach " + std::to_string(session);
  std::atomic<bool> storming{false};
  std::atomic<bool> stop_storm{false};
  std::atomic<std::size_t> resizes{0};
  std::thread writer;
  if (eco_storm) {
    writer = std::thread([&] {
      Client w;
      if (!w.connect(socket_path, attach).empty()) return;
      if (!run_ok(w, {"begin_eco"})) return;
      storming.store(true);
      // Flip each instance to its sibling and back, forever: an unbounded
      // same-footprint storm inside one long transaction.
      while (!stop_storm.load()) {
        for (const TwinPlan::Flip& flip : plan.flips) {
          if (stop_storm.load()) break;
          if (!run_ok(w, {"size_cell " + flip.inst + " " + flip.sibling}) ||
              !run_ok(w, {"size_cell " + flip.inst + " " + flip.original})) {
            return;
          }
          resizes.fetch_add(2);
        }
      }
      run_ok(w, {"end_eco"});
      run_ok(w, {"undo_eco"});  // leave the resident design pristine
    });
    while (!storming.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  }

  std::vector<std::vector<double>> latencies(clients);
  std::atomic<int> failures{0};
  const Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client reader;
      if (!reader.connect(socket_path, attach).empty()) {
        failures.fetch_add(1);
        return;
      }
      latencies[c].reserve(batches_per_client);
      for (std::size_t b = 0; b < batches_per_client; ++b) {
        const Stopwatch batch;
        std::vector<WireResult> results;
        if (!reader.run_batch(plan.queries, results).empty()) {
          failures.fetch_add(1);
          return;
        }
        latencies[c].push_back(batch.millis());
        if (transcript_of(results) != baseline) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = wall.millis();
  if (eco_storm) {
    stop_storm.store(true);
    writer.join();
  }

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  r.batches = all.size();
  r.queries = all.size() * plan.queries.size();
  r.qps = wall_ms > 0.0 ? 1000.0 * static_cast<double>(r.queries) / wall_ms
                        : 0.0;
  r.p50_ms = percentile(all, 0.50);
  r.p99_ms = percentile(all, 0.99);
  r.writer_resizes = resizes.load();
  r.consistent = failures.load() == 0 &&
                 r.batches == static_cast<std::size_t>(clients) *
                                  batches_per_client;
  return r;
}

int run(bool smoke) {
  const std::size_t gates = smoke ? 260 : 1500;
  const std::size_t flops = smoke ? 36 : 180;
  const std::size_t batches_per_client = smoke ? 20 : 150;
  const std::string load_line =
      "read_netlist -gates " + std::to_string(gates) + " -flops " +
      std::to_string(flops) + " -seed 9 -utilization 1.05";

  const TwinPlan plan = mine_plan(load_line, 4, 16);
  if (plan.queries.size() < 5 || plan.flips.size() < 4) {
    std::printf("ERROR: could not mine a query/storm plan\n");
    return 1;
  }

  const std::string socket_path =
      "/tmp/mgba_bench_" + std::to_string(::getpid()) + ".sock";
  TimingServer server(socket_path, ServerOptions{});
  if (const std::string err = server.start(); !err.empty()) {
    std::printf("ERROR: %s\n", err.c_str());
    return 1;
  }
  std::thread runner([&] { server.run(); });

  Client setup;
  if (!setup.connect(socket_path).empty()) {
    std::printf("ERROR: cannot connect to %s\n", socket_path.c_str());
    server.request_stop();
    runner.join();
    return 1;
  }
  std::string baseline;
  if (!run_ok(setup, {load_line}) ||
      !run_ok(setup, plan.queries, &baseline)) {
    server.request_stop();
    runner.join();
    return 1;
  }

  std::printf("server throughput: %zu gates, %zu queries/batch, %zu "
              "batches/client%s\n",
              gates, plan.queries.size(), batches_per_client,
              smoke ? " (smoke)" : "");
  std::printf("%8s %6s %10s %10s %10s %10s %12s\n", "clients", "storm",
              "batches", "qps", "p50_ms", "p99_ms", "writer_ecos");

  std::vector<ConfigResult> results;
  Gates consistency;
  for (const bool storm : {false, true}) {
    for (const int clients : {1, 2, 4}) {
      ConfigResult r =
          run_config(socket_path, setup.session_id(), clients, storm, plan,
                     baseline, batches_per_client);
      std::printf("%8d %6s %10zu %10.0f %10.3f %10.3f %12zu\n", r.clients,
                  r.eco_storm ? "yes" : "no", r.batches, r.qps, r.p50_ms,
                  r.p99_ms, r.writer_resizes);
      consistency.check(r.consistent,
                        "a reader failed or diverged from the baseline");
      // After a storm config the design must be pristine again.
      std::string check;
      consistency.check(
          run_ok(setup, plan.queries, &check) && check == baseline,
          "post-config answers diverged from baseline");
      results.push_back(r);
    }
  }

  server.request_stop();
  runner.join();

  std::vector<JsonObject> rows;
  for (const ConfigResult& r : results) {
    rows.emplace_back()
        .add("clients", r.clients)
        .add("eco_storm", r.eco_storm)
        .add("batches", r.batches)
        .add("queries", r.queries)
        .add("qps", r.qps, 1)
        .add("p50_ms", r.p50_ms, 4)
        .add("p99_ms", r.p99_ms, 4)
        .add("writer_resizes", r.writer_resizes);
  }
  JsonObject design, doc;
  design.add("gates", gates).add("flops", flops);
  doc.add("design", design)
      .add("queries_per_batch", plan.queries.size())
      .add("batches_per_client", batches_per_client)
      .add("snapshot_isolated_and_consistent", consistency.passed())
      .add("throughput", rows);
  if (!write_json("BENCH_server_throughput.json", doc)) return 1;
  return consistency.exit_code();
}

}  // namespace
}  // namespace mgba::bench

int main(int argc, char** argv) {
  return mgba::bench::run(mgba::bench::smoke_flag(argc, argv));
}
