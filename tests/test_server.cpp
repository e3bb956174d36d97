/// Timing-daemon tests (DESIGN.md §15): wire-protocol framing and result
/// encoding against corrupt input, the versioned handshake, multi-session
/// isolation, the headline snapshot-isolation property — concurrent
/// readers answering bit-identically to the pre-ECO state while the
/// writer commits a resize storm — attach/detach/idle-eviction lifecycle,
/// crash recovery from the streamed recipe + ECO journal, and graceful
/// shutdown. The tier-1 script re-runs the Server* suites under both TSan
/// (reader threads vs the writer thread) and ASan+UBSan (protocol fuzz
/// must not read out of bounds).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/netlist_io.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/session_manager.hpp"
#include "shell/interpreter.hpp"
#include "shell/session.hpp"
#include "sta/state_signature.hpp"

namespace mgba::server {
namespace {

// --- helpers ---------------------------------------------------------------

/// Short unique socket path (sun_path caps at ~107 bytes, so no TempDir).
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/mgba_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string unique_state_dir() {
  static std::atomic<int> counter{0};
  std::string dir = testing::TempDir() + "mgba_state_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::create_directories(dir);
  return dir;
}

/// Starts a TimingServer on its own thread; stop() returns run()'s rc.
struct ServerHarness {
  std::string socket_path;
  TimingServer server;
  std::thread runner;
  std::future<int> rc;
  bool stopped = false;

  explicit ServerHarness(ServerOptions options = {})
      : socket_path(unique_socket_path()),
        server(socket_path, std::move(options)) {
    const std::string err = server.start();
    EXPECT_EQ(err, "");
    std::promise<int> promise;
    rc = promise.get_future();
    runner = std::thread([this, p = std::move(promise)]() mutable {
      p.set_value(server.run());
    });
  }

  int stop() {
    stopped = true;
    server.request_stop();
    runner.join();
    return rc.get();
  }

  ~ServerHarness() {
    if (!stopped) {
      server.request_stop();
      if (runner.joinable()) runner.join();
    }
  }
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Transcript of one batch the way run_line would print it: output, then
/// an "error: ..." line per failing command — the byte-equality target.
std::string transcript_of(const std::vector<WireResult>& results) {
  std::string text;
  for (const WireResult& r : results) {
    text += r.output;
    if (r.status != 0) text += "error: " + r.error + "\n";
  }
  return text;
}

std::string remote_transcript(Client& client,
                              const std::vector<std::string>& lines) {
  std::vector<WireResult> results;
  const std::string err = client.run_batch(lines, results);
  EXPECT_EQ(err, "");
  EXPECT_EQ(results.size(), lines.size());
  return transcript_of(results);
}

/// The same lines through a local single-threaded interpreter — the
/// "frozen twin Timer" the daemon's answers must match byte for byte.
std::string twin_transcript(const std::vector<std::string>& lines) {
  std::ostringstream out;
  shell::ShellInterpreter interp(out);
  for (const std::string& line : lines) interp.run_line(line);
  return out.str();
}

const char kLoadLine[] =
    "read_netlist -gates 260 -flops 36 -seed 9 -utilization 1.05";

/// Mines a deterministic resize plan (instance -> same-footprint sibling)
/// from a twin session loaded with the same line the daemon session ran.
std::vector<std::pair<std::string, std::string>> mine_resize_plan(
    const std::string& load_line, std::size_t count) {
  std::ostringstream out;
  shell::ShellInterpreter interp(out);
  EXPECT_TRUE(interp.execute_line(load_line).ok());
  shell::ShellSession& session = interp.session();
  const Design& design = session.design();
  std::vector<std::pair<std::string, std::string>> plan;
  for (std::size_t i = 0; i < design.num_instances() && plan.size() < count;
       ++i) {
    const LibCell& cell = design.cell_of(static_cast<InstanceId>(i));
    if (cell.kind == CellKind::FlipFlop) continue;
    for (std::size_t j = 0; j < session.library().num_cells(); ++j) {
      const LibCell& c = session.library().cell(j);
      if (c.footprint == cell.footprint && c.name != cell.name) {
        plan.emplace_back(design.instance(static_cast<InstanceId>(i)).name,
                          c.name);
        break;
      }
    }
  }
  return plan;
}

/// First \p count endpoint names of the twin design — stable because the
/// generator is deterministic in (gates, flops, seed).
std::vector<std::string> mine_endpoints(const std::string& load_line,
                                        std::size_t count) {
  std::ostringstream out;
  shell::ShellInterpreter interp(out);
  EXPECT_TRUE(interp.execute_line(load_line).ok());
  const TimingGraph& graph = interp.session().timer().graph();
  std::vector<std::string> names;
  for (const NodeId e : graph.endpoints()) {
    names.push_back(graph.node_name(e));
    if (names.size() == count) break;
  }
  return names;
}

std::vector<std::string> query_mix(const std::vector<std::string>& endpoints) {
  std::vector<std::string> queries = {"report_wns", "report_tns",
                                      "report_worst_slack",
                                      "report_endpoints 5"};
  for (const std::string& e : endpoints) queries.push_back("get_slack " + e);
  if (!endpoints.empty()) queries.push_back("report_path " + endpoints[0]);
  return queries;
}

// --- protocol: encoding ----------------------------------------------------

TEST(ServerProtocol, ResultsEncodeDecodeRoundTrip) {
  std::vector<WireResult> in(3);
  in[0] = {0, "line one\nline two\n", ""};
  in[1] = {2, "", "usage: get_slack <endpoint>"};
  in[2] = {3, std::string("raw\0bytes\n", 10), "with\nnewline"};
  std::vector<WireResult> out;
  std::string error;
  ASSERT_TRUE(decode_results(encode_results(in), out, error)) << error;
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].status, in[i].status);
    EXPECT_EQ(out[i].output, in[i].output);
    EXPECT_EQ(out[i].error, in[i].error);
  }
}

TEST(ServerProtocol, DecodeRejectsCorruptPayloads) {
  std::vector<WireResult> out;
  std::string error;
  // Garbage header.
  EXPECT_FALSE(decode_results("totally not results", out, error));
  EXPECT_FALSE(decode_results("", out, error));
  // Claimed count with no bodies.
  EXPECT_FALSE(decode_results("results 2\n", out, error));
  // Body length overrunning the payload must error, not read past the end.
  EXPECT_FALSE(decode_results("results 1\n0 4096 0\nshort", out, error));
  EXPECT_NE(error.find("overruns"), std::string::npos);
  // err_len overrun with a valid out_len.
  EXPECT_FALSE(decode_results("results 1\n0 2 4096\nab", out, error));
  // Malformed per-result header.
  EXPECT_FALSE(decode_results("results 1\nnot numbers\n", out, error));
}

TEST(ServerProtocol, ExitCodeMapping) {
  EXPECT_EQ(exit_code_for_status(shell::CommandStatus::Ok), 0);
  EXPECT_EQ(exit_code_for_status(shell::CommandStatus::UnknownCommand), 4);
  EXPECT_EQ(exit_code_for_status(shell::CommandStatus::BadArgs), 5);
  EXPECT_EQ(exit_code_for_status(shell::CommandStatus::EngineError), 6);
}

// --- protocol: framing over a real socket ----------------------------------

TEST(ServerProtocol, FrameRoundTripAndLimits) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload;
  std::string error;

  ASSERT_EQ(write_frame(fds[0], "hello frame"), "");
  ASSERT_EQ(read_frame(fds[1], payload, error), 1) << error;
  EXPECT_EQ(payload, "hello frame");

  // Empty payloads are legal frames.
  ASSERT_EQ(write_frame(fds[0], ""), "");
  ASSERT_EQ(read_frame(fds[1], payload, error), 1) << error;
  EXPECT_EQ(payload, "");

  // A header claiming more than the cap is rejected before allocation.
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::send(fds[0], huge, 4, 0), 4);
  EXPECT_EQ(read_frame(fds[1], payload, error), -1);
  EXPECT_NE(error.find("oversized"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);

  // Truncated body: header promises 10 bytes, peer sends 3 and hangs up.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char short_header[4] = {10, 0, 0, 0};
  ASSERT_EQ(::send(fds[0], short_header, 4, 0), 4);
  ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], payload, error), -1);
  EXPECT_NE(error.find("truncated"), std::string::npos);
  ::close(fds[1]);

  // Clean EOF before any header byte is 0, not an error.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], payload, error), 0);
  ::close(fds[1]);

  // Oversending is caught on the writer side too.
  EXPECT_NE(write_frame(-1, std::string(kMaxFrameBytes + 1, 'x')), "");
}

// --- handshake -------------------------------------------------------------

TEST(ServerHandshake, VersionAndMagicMismatchFailLoudly) {
  ServerHarness harness;
  std::string payload;
  std::string error;

  for (const char* bad : {"mgba-serve 999 new", "not-mgba 1 new",
                          "mgba-serve 1 teleport", "mgba-serve 1",
                          "mgba-serve 1 attach not-a-number"}) {
    const int fd = connect_unix(harness.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(write_frame(fd, bad), "");
    ASSERT_EQ(read_frame(fd, payload, error), 1) << error;
    EXPECT_EQ(payload.rfind("error", 0), 0u) << bad << " -> " << payload;
    ::close(fd);
  }

  // Attaching to a session that does not exist is an error, not a crash.
  Client client;
  EXPECT_NE(client.connect(harness.socket_path, "attach 424242"), "");

  // The daemon survives all of the above.
  Client good;
  ASSERT_EQ(good.connect(harness.socket_path), "");
  std::vector<WireResult> results;
  ASSERT_EQ(good.run_batch({"echo still alive"}, results), "");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].output, "still alive\n");
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServerHandshake, FuzzedFramesDoNotKillTheDaemon) {
  ServerHarness harness;

  // (a) Raw garbage bytes that never form a full header.
  {
    const int fd = connect_unix(harness.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, "zz", 2, 0), 2);
    ::close(fd);
  }
  // (b) Header claiming an oversized frame.
  {
    const int fd = connect_unix(harness.socket_path);
    ASSERT_GE(fd, 0);
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(fd, huge, 4, 0), 4);
    std::string payload;
    std::string error;
    // The daemon answers with a protocol-error frame, then hangs up.
    if (read_frame(fd, payload, error) == 1) {
      EXPECT_EQ(payload.rfind("error", 0), 0u);
    }
    ::close(fd);
  }
  // (c) Truncated frame: promise 64 bytes, deliver 5, hang up.
  {
    const int fd = connect_unix(harness.socket_path);
    ASSERT_GE(fd, 0);
    const unsigned char header[4] = {64, 0, 0, 0};
    ASSERT_EQ(::send(fd, header, 4, 0), 4);
    ASSERT_EQ(::send(fd, "hello", 5, 0), 5);
    ::close(fd);
  }
  // (d) Garbage after a valid handshake.
  {
    const int fd = connect_unix(harness.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(write_frame(fd, "mgba-serve 1 new"), "");
    std::string payload;
    std::string error;
    ASSERT_EQ(read_frame(fd, payload, error), 1);
    EXPECT_EQ(payload.rfind("ok", 0), 0u);
    ASSERT_EQ(write_frame(fd, "frobnicate the frobulator"), "");
    ASSERT_EQ(read_frame(fd, payload, error), 1);
    EXPECT_EQ(payload.rfind("error", 0), 0u);
    ::close(fd);
  }

  // After the fuzz barrage a well-behaved client still gets answers.
  Client client;
  ASSERT_EQ(client.connect(harness.socket_path), "");
  std::vector<WireResult> results;
  ASSERT_EQ(client.run_batch({"echo survived"}, results), "");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].output, "survived\n");
  EXPECT_EQ(harness.stop(), 0);
}

// --- sessions --------------------------------------------------------------

TEST(ServerSessions, StatusCodesFlowEndToEnd) {
  ServerHarness harness;
  Client client;
  ASSERT_EQ(client.connect(harness.socket_path), "");

  std::vector<WireResult> results;
  ASSERT_EQ(client.run_batch({"frobnicate", "get_slack", "report_wns",
                              "echo still here"},
                             results),
            "");
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status,
            static_cast<int>(shell::CommandStatus::UnknownCommand));
  EXPECT_NE(results[0].error.find("unknown command"), std::string::npos);
  EXPECT_EQ(results[1].status,
            static_cast<int>(shell::CommandStatus::BadArgs));
  EXPECT_NE(results[1].error.find("usage: get_slack"), std::string::npos);
  EXPECT_EQ(results[2].status,
            static_cast<int>(shell::CommandStatus::EngineError));
  EXPECT_NE(results[2].error.find("no design loaded"), std::string::npos);
  // The batch keeps executing past errors; the client decides what stops.
  EXPECT_EQ(results[3].status, 0);
  EXPECT_EQ(results[3].output, "still here\n");
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServerSessions, MalformedNetlistLeavesOtherSessionsServing) {
  ServerHarness harness;
  Client a;
  ASSERT_EQ(a.connect(harness.socket_path), "");
  remote_transcript(a, {kLoadLine});
  const std::string before = remote_transcript(a, {"report_wns"});

  // The first 4 KB of a written design, cut inside a line.
  shell::ShellSession source;
  shell::LoadRequest request;
  request.gates = 260;
  request.flops = 36;
  ASSERT_EQ(source.load(request), "");
  const std::string text = netlist_to_string(source.design());
  const std::string path = testing::TempDir() + "server_truncated.net";
  std::ofstream(path) << text.substr(0, text.rfind('\n', 4096) + 4);

  Client b;
  ASSERT_EQ(b.connect(harness.socket_path), "");
  std::vector<WireResult> results;
  ASSERT_EQ(b.run_batch({"read_netlist " + path, "echo still here"}, results),
            "");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(exit_code_for_status(
                static_cast<shell::CommandStatus>(results[0].status)),
            6);
  EXPECT_TRUE(std::regex_search(results[0].error,
                                std::regex("^" + path + ":[0-9]+: ")))
      << results[0].error;
  EXPECT_EQ(results[1].output, "still here\n");
  EXPECT_EQ(remote_transcript(a, {"report_wns"}), before);
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServerSessions, MixedBatchPreservesProgramOrder) {
  ServerHarness harness;
  Client client;
  ASSERT_EQ(client.connect(harness.socket_path), "");

  // A read after a write in the same batch must see the write's effect —
  // the whole batch serializes onto the writer thread.
  const std::vector<std::string> lines = {kLoadLine, "report_wns",
                                          "report_tns"};
  const std::string remote = remote_transcript(client, lines);
  EXPECT_EQ(remote, twin_transcript(lines));
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServerSessions, SessionsAreIsolatedFromEachOther) {
  ServerHarness harness;
  const std::vector<std::string> load_a = {
      "read_netlist -gates 180 -flops 24 -seed 3"};
  const std::vector<std::string> load_b = {
      "read_netlist -gates 240 -flops 30 -seed 5"};
  const std::vector<std::string> queries = {"report_wns", "report_tns",
                                            "report_endpoints 3"};

  Client a;
  Client b;
  ASSERT_EQ(a.connect(harness.socket_path), "");
  ASSERT_EQ(b.connect(harness.socket_path), "");
  EXPECT_NE(a.session_id(), b.session_id());

  remote_transcript(a, load_a);
  remote_transcript(b, load_b);
  // Interleave queries; each session must answer exactly like a local
  // interpreter that only ever saw its own design.
  const std::string qa = remote_transcript(a, queries);
  const std::string qb = remote_transcript(b, queries);
  std::vector<std::string> twin_a = load_a;
  twin_a.insert(twin_a.end(), queries.begin(), queries.end());
  std::vector<std::string> twin_b = load_b;
  twin_b.insert(twin_b.end(), queries.begin(), queries.end());
  const std::string ta = twin_transcript(twin_a);
  const std::string tb = twin_transcript(twin_b);
  EXPECT_TRUE(ta.size() > qa.size() &&
              ta.compare(ta.size() - qa.size(), qa.size(), qa) == 0);
  EXPECT_TRUE(tb.size() > qb.size() &&
              tb.compare(tb.size() - qb.size(), qb.size(), qb) == 0);
  EXPECT_NE(qa, qb);  // different designs, different answers
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServerSessions, AttachSeesTheDetachedSessionsState) {
  ServerHarness harness;
  std::uint64_t id = 0;
  std::string wns;
  {
    Client a;
    ASSERT_EQ(a.connect(harness.socket_path), "");
    id = a.session_id();
    remote_transcript(a, {kLoadLine});
    wns = remote_transcript(a, {"report_wns"});
    std::string reply;
    ASSERT_EQ(a.control("detach", reply), "");
    EXPECT_EQ(reply.rfind("ok", 0), 0u);
  }
  Client b;
  ASSERT_EQ(b.connect(harness.socket_path, "attach " + std::to_string(id)),
            "");
  EXPECT_EQ(b.session_id(), id);
  EXPECT_EQ(remote_transcript(b, {"report_wns"}), wns);

  // The sessions directive lists the live session.
  std::string reply;
  ASSERT_EQ(b.control("sessions", reply), "");
  EXPECT_NE(reply.find(std::to_string(id)), std::string::npos);
  EXPECT_EQ(harness.stop(), 0);
}

TEST(ServerSessions, IdleEvictionSparesAttachedSessions) {
  ServerOptions options;
  options.idle_timeout_s = 0.0;  // anything idle is immediately evictable
  SessionManager manager(options);
  std::string error;

  auto attached = manager.create(error);
  ASSERT_NE(attached, nullptr) << error;
  auto idle = manager.create(error);
  ASSERT_NE(idle, nullptr) << error;
  idle->detach();
  idle.reset();
  ASSERT_EQ(manager.size(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manager.evict_idle(), 1u);  // only the detached one goes
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.ids(), std::vector<std::uint64_t>{attached->id()});

  attached->detach();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(manager.evict_idle(), 1u);
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.attach(42, error), nullptr);
  EXPECT_NE(error, "");
}

// --- the headline property: snapshot-isolated reads during an ECO ----------

TEST(ServerEco, ConcurrentReadersAreSnapshotIsolatedDuringEcoStorm) {
  const auto plan = mine_resize_plan(kLoadLine, 32);
  ASSERT_GE(plan.size(), 8u);
  const std::vector<std::string> queries =
      query_mix(mine_endpoints(kLoadLine, 3));

  ServerHarness harness;
  Client writer;
  ASSERT_EQ(writer.connect(harness.socket_path), "");
  remote_transcript(writer, {kLoadLine});
  const std::string baseline = remote_transcript(writer, queries);
  // The daemon's answers ARE the frozen-twin-Timer answers, byte for byte.
  std::vector<std::string> twin_lines = {kLoadLine};
  twin_lines.insert(twin_lines.end(), queries.begin(), queries.end());
  const std::string twin = twin_transcript(twin_lines);
  ASSERT_TRUE(twin.size() > baseline.size() &&
              twin.compare(twin.size() - baseline.size(), baseline.size(),
                           baseline) == 0);

  // Open the bracket; every published view from here until end_eco is the
  // pinned pre-ECO snapshot.
  remote_transcript(writer, {"begin_eco"});

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  const std::uint64_t id = writer.session_id();
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Client reader;
      if (reader.connect(harness.socket_path,
                         "attach " + std::to_string(id)) != "") {
        mismatches.fetch_add(1000);
        return;
      }
      for (int iter = 0; iter < 20; ++iter) {
        std::vector<WireResult> results;
        if (reader.run_batch(queries, results) != "" ||
            transcript_of(results) != baseline) {
          mismatches.fetch_add(1);
        }
      }
      (void)t;
    });
  }

  // The writer storm: every resize mutates the live graph and re-times it
  // while the readers above hammer the pinned snapshot.
  for (const auto& [inst, cell] : plan) {
    std::vector<WireResult> results;
    ASSERT_EQ(writer.run_batch({"size_cell " + inst + " " + cell}, results),
              "");
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].status, 0) << results[0].error;
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Commit, then undo: the published answers must snap back to baseline
  // bit for bit (undo bit-identity through the server path).
  remote_transcript(writer, {"end_eco"});
  remote_transcript(writer, {"undo_eco"});
  EXPECT_EQ(remote_transcript(writer, queries), baseline);
  EXPECT_EQ(harness.stop(), 0);
}

// --- durability: crash recovery from the streamed recipe + journal ---------

TEST(ServerRecovery, ReplayedSessionMatchesTheDeadOneBitForBit) {
  const std::string state_dir = unique_state_dir();
  const auto plan = mine_resize_plan(kLoadLine, 12);
  ASSERT_GE(plan.size(), 8u);
  const std::vector<std::string> queries =
      query_mix(mine_endpoints(kLoadLine, 3));

  ServerOptions options;
  options.state_dir = state_dir;

  std::uint64_t saved_id = 0;
  std::string saved_transcript;
  std::vector<double> saved_signature;
  {
    SessionManager manager(options);
    std::string error;
    auto session = manager.create(error);
    ASSERT_NE(session, nullptr) << error;
    saved_id = session->id();

    std::vector<std::string> setup = {kLoadLine, "begin_eco", "fit_mgba"};
    for (const auto& [inst, cell] : plan) {
      setup.push_back("size_cell " + inst + " " + cell);
    }
    setup.push_back("end_eco");
    for (const shell::CommandResult& r : session->execute(setup)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
    saved_transcript = transcript_of([&] {
      std::vector<WireResult> wire;
      for (const shell::CommandResult& r : session->execute(queries)) {
        wire.push_back({static_cast<int>(r.status), r.output, r.error});
      }
      return wire;
    }());
    session->drain();
    saved_signature = state_signature(session->shell().timer());
    session->detach();
    // Manager destruction flushes but does NOT replay anything — the
    // recipe and journal on disk are all a recovery gets, exactly as
    // after a SIGKILL (streams were flushed per command, not at exit).
  }

  SessionManager manager(options);
  std::string error;
  auto recovered = manager.recover(saved_id, error);
  ASSERT_NE(recovered, nullptr) << error;
  // The recovered session gets a fresh id: its own streams must never
  // truncate the dead session's files before they are read.
  EXPECT_GT(recovered->id(), saved_id);

  std::vector<WireResult> wire;
  for (const shell::CommandResult& r : recovered->execute(queries)) {
    wire.push_back({static_cast<int>(r.status), r.output, r.error});
  }
  EXPECT_EQ(transcript_of(wire), saved_transcript);
  recovered->drain();
  EXPECT_TRUE(
      same_bits(state_signature(recovered->shell().timer()), saved_signature));
  recovered->detach();

  // Recovering a session that never existed fails cleanly.
  EXPECT_EQ(manager.recover(999, error), nullptr);
  EXPECT_NE(error, "");
  std::filesystem::remove_all(state_dir);
}

// --- graceful shutdown -----------------------------------------------------

TEST(ServerShutdown, StopDrainsAndUnlinksTheSocket) {
  ServerHarness harness;
  Client client;
  ASSERT_EQ(client.connect(harness.socket_path), "");
  std::vector<WireResult> results;
  ASSERT_EQ(client.run_batch({"echo about to stop"}, results), "");
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_NE(::access(harness.socket_path.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace mgba::server
