/// query_serve: an `mgba_timer --serve` child with a resident design and
/// mGBA fit, driven in a closed loop. Two reader connections send 9-query
/// read-only batches and wait for each reply; one writer connection flips
/// cells with size_cell inside a single begin_eco bracket. Readers answer
/// from the pinned pre-ECO snapshot, so every transcript must equal the
/// pre-ECO baseline. The design, fit and queries come from the same
/// `read_netlist` line an in-process twin interpreter runs, which also
/// mines the seeded queries and flips.

#include <unistd.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "e2e.hpp"
#include "server/client.hpp"
#include "shell/interpreter.hpp"

namespace e2e {

using namespace mgba;
using server::Client;
using server::WireResult;

namespace {

/// Transcript of one batch, as `mgba_timer --script` would print it.
std::string transcript_of(const std::vector<WireResult>& results) {
  std::string text;
  for (const WireResult& r : results) {
    text += r.output;
    if (r.status != 0) text += "error: " + r.error + "\n";
  }
  return text;
}

/// Runs one batch; "" when the transport worked and every command
/// succeeded, else the first error.
std::string run_batch(Client& client, const std::vector<std::string>& lines,
                      std::string* transcript = nullptr) {
  std::vector<WireResult> results;
  if (std::string err = client.run_batch(lines, results); !err.empty()) {
    return err;
  }
  if (results.size() != lines.size()) return "short reply";
  for (const WireResult& r : results) {
    if (r.status != 0) return r.error;
  }
  if (transcript != nullptr) *transcript = transcript_of(results);
  return "";
}

struct Plan {
  struct Flip {
    std::string inst;
    std::string original;
    std::string sibling;
  };
  std::vector<std::string> queries;
  std::vector<Flip> flips;
};

/// The seeded query batch (report_wns, report_tns, report_worst_slack,
/// report_endpoints 5, get_slack on four seeded endpoints, report_path of
/// the worst endpoint) and 16 seeded flips to the next cell of the family.
/// report_path is not seeded: its cost grows with the path's depth, and a
/// seeded endpoint would make the batch cost depend on the seed.
Plan mine_plan(shell::ShellInterpreter& twin, std::uint64_t seed) {
  const shell::ShellSession& session = twin.session();
  const Design& design = session.design();
  const TimingGraph& graph = session.timer().graph();
  Rng rng(seed);
  Plan plan;
  plan.queries = {"report_wns", "report_tns", "report_worst_slack",
                  "report_endpoints 5"};
  const std::vector<NodeId>& endpoints = graph.endpoints();
  std::vector<std::size_t> picks =
      rng.sample_without_replacement(endpoints.size(), 4);
  rng.shuffle(picks);
  for (const std::size_t k : picks) {
    plan.queries.push_back("get_slack " + graph.node_name(endpoints[k]));
  }
  plan.queries.push_back("report_path");

  const std::vector<InstanceId> sizable = sizable_instances(design, graph);
  for (const std::size_t k :
       rng.sample_without_replacement(sizable.size(), 16)) {
    const InstanceId inst = sizable[k];
    const std::size_t cell = design.instance(inst).cell;
    plan.flips.push_back(
        {design.instance(inst).name, design.library().cell(cell).name,
         design.library().cell(next_in_family(design.library(), cell)).name});
  }
  return plan;
}

struct Daemon {
  Child process;
  std::string socket;
  Client owner;  ///< the connection that created and loaded the session
  double setup_s = 0.0;
};

/// Spawns the daemon, connects, loads the design and fits; setup_s covers
/// all of it.
std::string start_daemon(const Options& o, const std::string& load_line,
                         int index, Daemon& d) {
  d.socket = o.work_dir + "/query-" + std::to_string(::getpid()) + "-" +
             std::to_string(index) + ".sock";
  ::unlink(d.socket.c_str());
  const double start = now_s();
  if (std::string err = d.process.spawn(
          {o.timer_path, "--serve", d.socket, "--threads", "1"},
          o.work_dir + "/daemon.log");
      !err.empty()) {
    return err;
  }
  std::string err = "no connection";
  for (int i = 0; i < 5000 && !err.empty(); ++i) {
    err = d.owner.connect(d.socket);
    if (!err.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (err.empty()) err = run_batch(d.owner, {load_line});
  if (err.empty()) err = run_batch(d.owner, {"fit_mgba"});
  d.setup_s = now_s() - start;
  return err;
}

/// Window segments; an operation belongs to the segment it started in.
/// In traced runs the readers trace every other batch of kMain (so the
/// trace overhead is measured against batches that saw the same host
/// speed) and pause in kTail.
enum Segment : int { kWarmup, kMain, kTail, kStop };

struct Op {
  int segment;
  bool traced;
  double start;  ///< when the operation was due (readers: when sent)
  double sent;
  double end;
  bool ok;
};

/// One client connection's thread state. The tracer is enabled in traced
/// runs only.
struct Worker {
  std::vector<Op> ops;
  Tracer tracer;
  std::string error;
};

void reader_loop(const std::string& socket, std::uint64_t session,
                 const Plan& plan, const std::string& baseline,
                 const std::atomic<int>& segment, Worker& w) {
  Client client;
  if (std::string err =
          client.connect(socket, "attach " + std::to_string(session));
      !err.empty()) {
    w.error = err;
    return;
  }
  Tracer untraced(false);
  std::vector<WireResult> results;
  for (std::uint64_t batch = 0;; ++batch) {
    const int seg = segment.load();
    if (seg == kStop) break;
    if (seg == kTail) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const bool traced = w.tracer.enabled() && batch % 2 == 1;
    Scope span(traced ? w.tracer : untraced, "server.batch", batch);
    const std::string err = client.run_batch(plan.queries, results);
    const double seconds = span.stop();
    w.ops.push_back({seg, traced, span.start(), span.start(),
                     span.start() + seconds,
                     err.empty() && transcript_of(results) == baseline});
    if (!err.empty()) {
      w.error = err;
      return;
    }
  }
}

/// The writer's edits arrive on a schedule (an open loop): edit k is due at
/// start + k / kWriterRate and is timed from that moment, so a slow reply
/// also delays the edits queued behind it; how late each edit was sent is
/// reported. A schedule keeps the write pressure on the readers, and the
/// journal the bracket accumulates, the same however fast the host runs.
/// The rate is the pace of the in-process ECO loop: eco_refit resizes 8
/// cells per round at a median round of about 63 ms (README baseline),
/// about 128 resizes per second.
constexpr double kWriterRate = 128.0;

void writer_loop(const std::string& socket, std::uint64_t session,
                 const Plan& plan, const std::atomic<int>& segment, Worker& w,
                 std::string& stats) {
  Client client;
  std::string err = client.connect(socket, "attach " + std::to_string(session));
  if (err.empty()) err = run_batch(client, {"begin_eco"});
  const double start = now_s();
  for (std::uint64_t k = 0; err.empty(); ++k) {
    const double due = start + static_cast<double>(k) / kWriterRate;
    std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
    const int seg = segment.load();
    if (seg == kStop) break;
    const Plan::Flip& f = plan.flips[(k / 2) % plan.flips.size()];
    Scope span(w.tracer, "server.size_cell", k);
    err = run_batch(client, {"size_cell " + f.inst + " " +
                             (k % 2 == 0 ? f.sibling : f.original)});
    const double seconds = span.stop();
    w.ops.push_back({seg, w.tracer.enabled(), due, span.start(),
                     span.start() + seconds, err.empty()});
  }
  if (err.empty()) err = run_batch(client, {"stats"}, &stats);
  if (err.empty()) err = run_batch(client, {"end_eco"});
  if (err.empty()) err = run_batch(client, {"undo_eco"});
  w.error = err;
}

/// Latencies (ms) of the \p ops started in \p segment with the given
/// tracing state.
Samples latencies_ms(const std::vector<Op>& ops, int segment, bool traced) {
  Samples s;
  for (const Op& op : ops) {
    if (op.segment == segment && op.traced == traced) {
      s.add((op.end - op.start) * 1e3);
    }
  }
  return s;
}

/// The daemon's `stats` reply as per-layer metrics (its writer did the
/// incremental timing). False when a line is missing.
bool record_daemon_stats(const std::string& text, LayerSet& layers) {
  std::size_t full = 0, incr = 0, fwd = 0, bwd = 0, entries = 0, chunks = 0,
              shared = 0, snaps = 0;
  unsigned long long hits = 0, misses = 0;
  double pct = 0.0, arena = 0.0, lane = 0.0, cache = 0.0, retained = 0.0;
  int found = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const char* l = line.c_str();
    found += std::sscanf(l, "updates : %zu full, %zu incremental", &full,
                         &incr) == 2;
    found += std::sscanf(l, "incremental touch : %zu forward node recomputes, "
                            "%zu backward",
                         &fwd, &bwd) == 2;
    found += std::sscanf(l, "delay cache : %llu hits, %llu misses (%lf", &hits,
                         &misses, &pct) == 3;
    found += std::sscanf(l, "timing arena : %lf MB (%lf", &arena, &lane) == 2;
    found += std::sscanf(l, "delay cache : %zu entries, %lf MB", &entries,
                         &cache) == 2;
    found += std::sscanf(l, "cow arena : %zu chunks (%zu shared), %zu live "
                            "snapshots, %lf MB retained",
                         &chunks, &shared, &snaps, &retained) == 4;
  }
  Timer::UpdateStats st;
  st.full_updates = full;
  st.incremental_updates = incr;
  st.forward_nodes = fwd;
  st.backward_nodes = bwd;
  st.delay_cache_hits = hits;
  st.delay_cache_misses = misses;
  record_update_stats(st, layers);
  layers.set("sta.arena_mb", "MB", arena);
  layers.set("sta.delay_cache_mb", "MB", cache);
  layers.set("sta.cow_retained_mb", "MB", retained);
  return found == 6;
}

}  // namespace

void run_query_serve(const Options& o, Report& report) {
  const DesignSpec spec = query_design(o.smoke);
  const std::string& load_line = spec.label;
  const double warmup_s = o.smoke ? 0.5 : 1.0;
  report.note("design", load_line + ", then fit_mgba");
  report.note("load", "closed loop: 2 readers x 9-query batches, 1 writer "
                      "flipping cells inside one begin_eco");

  // The daemon, the readers, the writer and the twin share one CPU, as the
  // engine runs one thread in the other workloads. Spread over the host's
  // CPUs, each round trip paid the wake-up of an idle virtual CPU, and how
  // long that took depended on the host's other tenants: batch p50 flipped
  // between 0.29 and 0.45 ms from run to run (spread 41 % over 10 seeds).
  const int cpu = pin_to_one_cpu();
  if (!report.gate("pinned_to_one_cpu", cpu >= 0,
                   "cpu " + std::to_string(cpu))) {
    return;
  }

  // In-process twin: mines the seeded plan and must answer exactly like
  // the daemon.
  std::ostringstream sink;
  shell::InterpreterOptions twin_options;
  twin_options.snapshot_names = true;
  shell::ShellInterpreter twin(sink, twin_options);
  if (!report.gate("twin_loaded", twin.execute_line(load_line).ok() &&
                                      twin.execute_line("fit_mgba").ok())) {
    return;
  }
  const Plan plan = mine_plan(twin, o.seed);
  const shell::SessionView view = twin.current_view();
  std::string twin_transcript;
  for (const std::string& q : plan.queries) {
    const shell::CommandResult r = twin.execute_query(q, view);
    twin_transcript += r.output;
    if (!r.ok()) twin_transcript += "error: " + r.error + "\n";
  }

  LayerSet layers;
  Tracer twin_tracer(o.trace, 0);
  // Traced runs time one size_cell in process.
  Samples size_cell_ms;
  bool twin_flips_ok = true;
  for (std::uint64_t k = 0; o.trace && k < 2 * plan.flips.size(); ++k) {
    const Plan::Flip& f = plan.flips[k / 2];
    Scope s(twin_tracer, "shell.size_cell", k);
    twin_flips_ok &= twin.execute_line("size_cell " + f.inst + " " +
                                       (k % 2 == 0 ? f.sibling : f.original))
                         .ok();
    size_cell_ms.add(s.stop() * 1e3);
  }
  report.gate("twin_size_cell_ok", twin_flips_ok);

  // Several daemon start-ups for setup_s; the last daemon serves the
  // window.
  Samples setup_s;
  Daemon daemons[kSetups];
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) daemons[i - 1].process.stop();
    const std::string err = start_daemon(o, load_line, i, daemons[i]);
    if (!err.empty()) {
      report.gate("daemons_started", false, err);
      return;
    }
    setup_s.add(daemons[i].setup_s);
  }
  report.gate("daemons_started", true);
  Daemon& d = daemons[kSetups - 1];
  std::string baseline;
  report.gate("baseline_answered",
              run_batch(d.owner, plan.queries, &baseline).empty());
  report.gate("daemon_matches_in_process", baseline == twin_transcript);

  std::atomic<int> segment{kWarmup};
  Worker readers[2] = {Worker{{}, Tracer(o.trace, 1), {}},
                       Worker{{}, Tracer(o.trace, 2), {}}};
  Worker writer{{}, Tracer(o.trace, 3), {}};
  std::string daemon_stats;
  std::vector<std::thread> threads;
  for (Worker& reader : readers) {
    threads.emplace_back(reader_loop, std::cref(d.socket), d.owner.session_id(),
                         std::cref(plan), std::cref(baseline),
                         std::cref(segment), std::ref(reader));
  }
  threads.emplace_back(writer_loop, std::cref(d.socket), d.owner.session_id(),
                       std::cref(plan), std::cref(segment), std::ref(writer),
                       std::ref(daemon_stats));

  // Traced runs give the last third of the window to this thread, with the
  // readers paused: it alternates the batch run in process on the twin
  // (the base of the daemon's overhead) with the same batch sent to the
  // daemon as its only client, so both see the same host speed.
  const double main_s = o.trace ? o.seconds * 2 / 3 : o.seconds;
  double length[kStop] = {};
  const auto hold = [&](Segment seg, double seconds) {
    const double start = now_s();
    segment.store(seg);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    length[seg] = now_s() - start;
  };
  hold(kWarmup, warmup_s);
  hold(kMain, main_s);
  Samples twin_batch_us, alone_batch_us;
  std::size_t alone_failed = 0;
  if (o.trace) {
    const double start = now_s();
    segment.store(kTail);
    std::vector<WireResult> results;
    for (std::uint64_t b = 0; now_s() - start < o.seconds - main_s; ++b) {
      {
        Scope batch(twin_tracer, "shell.batch", b);
        for (const std::string& q : plan.queries) {
          Scope s(twin_tracer, "shell.query", b);
          static_cast<void>(twin.execute_query(q, view));
        }
        twin_batch_us.add(batch.stop() * 1e6);
      }
      Scope batch(twin_tracer, "server.batch", b);
      const std::string err = d.owner.run_batch(plan.queries, results);
      alone_batch_us.add(batch.stop() * 1e6);
      if (!err.empty() || transcript_of(results) != baseline) ++alone_failed;
    }
  }
  segment.store(kStop);
  for (std::thread& t : threads) t.join();

  std::string after;
  report.gate("undo_eco_restores_baseline",
              run_batch(d.owner, plan.queries, &after).empty() &&
                  after == baseline);
  d.owner.close();
  // SIGTERM drains the daemon, which then exits 0.
  report.gate("daemon_exited_cleanly", d.process.stop() == 0);

  std::vector<Op> reader_ops = readers[0].ops;
  reader_ops.insert(reader_ops.end(), readers[1].ops.begin(),
                    readers[1].ops.end());
  std::size_t attempted = alone_batch_us.count(), failed = alone_failed;
  for (const std::vector<Op>* ops : {&reader_ops, &writer.ops}) {
    for (const Op& op : *ops) {
      if (op.segment == kWarmup) continue;
      ++attempted;
      if (!op.ok) ++failed;
    }
  }
  report.gate("connections_clean",
              readers[0].error.empty() && readers[1].error.empty() &&
                  writer.error.empty(),
              readers[0].error + readers[1].error + writer.error);
  report.attempts(attempted, failed);

  const double queries = static_cast<double>(plan.queries.size());
  const Samples batch_ms = latencies_ms(reader_ops, kMain, false);
  const Samples eco_ms = latencies_ms(writer.ops, kMain, o.trace);
  Samples writer_lag_ms;
  double writer_lag_ms_max = 0.0;
  for (const Op& op : writer.ops) {
    if (op.segment != kMain) continue;
    const double lag_ms = (op.sent - op.start) * 1e3;
    writer_lag_ms.add(lag_ms);
    writer_lag_ms_max = std::max(writer_lag_ms_max, lag_ms);
  }
  const double qps =
      queries *
      static_cast<double>(batch_ms.count() +
                          latencies_ms(reader_ops, kMain, true).count()) /
      length[kMain];
  report.add(median_metric("setup_s", setup_s, "s"));
  report.add(value_metric("peak_rss_mb", d.process.peak_rss_mb(), "MB",
                          Kind::Memory));
  report.add(value_metric("query_qps", qps, "1/s", Kind::Timing,
                          Better::Higher));
  // No batch-latency tail: its p99 spread 29 % over 10 runs, so it could
  // not hold any bound.
  report.add(median_metric("query_batch_ms_p50", batch_ms, "ms"));
  report.add(min_metric("query_batch_ms_min", batch_ms, "ms"));
  report.report_as("latency_ms_min", "query_batch_ms_min");
  report.add(median_metric("eco_cmd_ms_p50", eco_ms, "ms"));
  Metric lag_p99 = value_metric("writer_lag_ms_p99",
                                writer_lag_ms.quantile(0.99), "ms", Kind::Info);
  lag_p99.samples = writer_lag_ms.count();
  report.add(lag_p99);
  report.add(value_metric("writer_lag_ms_max", writer_lag_ms_max, "ms",
                          Kind::Info));
  report.add(value_metric("error_rate",
                          attempted == 0 ? 0.0
                                         : static_cast<double>(failed) /
                                               static_cast<double>(attempted),
                          "ratio", Kind::Exact));
  if (!o.trace) return;

  const Samples traced_ms = latencies_ms(reader_ops, kMain, true);
  layers.set("shell.query_us", "us", twin_batch_us.median() / queries);
  layers.set("server.overhead_us", "us",
             alone_batch_us.median() - twin_batch_us.median());
  // A lone closed-loop client's qps is one batch per batch latency.
  layers.set("server.reader_scaling", "ratio",
             qps / (queries * 1e6 / alone_batch_us.median()));
  for (const double v : size_cell_ms.values()) {
    layers.add("shell.size_cell_ms", "ms", v);
  }
  layers.set("trace_overhead_pct", "%",
             (traced_ms.median() / batch_ms.median() - 1.0) * 100.0);
  report.gate("daemon_stats_parsed", record_daemon_stats(daemon_stats, layers));
  FlowCounts counts;
  counts.cold_fits = 1;  // the measured daemon's fit_mgba
  record_flow_counts(counts, layers);
  report.add_layers(layers);
  write_trace_files(o,
                    {&twin_tracer, &readers[0].tracer, &readers[1].tracer,
                     &writer.tracer},
                    layers, report);
}

}  // namespace e2e
