/// Timing-shell tests: tokenizer edge cases, interpreter command / arity /
/// option errors, ECO journal text round-trip, undo bit-identity, and the
/// headline property — a journal written from a live (incrementally
/// updated) session replays onto a fresh session with bit-identical
/// per-endpoint slacks at every corner and in both modes. The tier-1
/// script re-runs the Shell* suites under ASan+UBSan.

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shell/eco_journal.hpp"
#include "shell/interpreter.hpp"
#include "shell/session.hpp"
#include "shell/tokenizer.hpp"

namespace mgba::shell {
namespace {

// --- tokenizer -------------------------------------------------------------

TEST(ShellTokenizer, SplitsOnWhitespace) {
  const TokenizeResult r = tokenize_line("  size_cell \t g_1   AND2_X2 ");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[0], "size_cell");
  EXPECT_EQ(r.tokens[1], "g_1");
  EXPECT_EQ(r.tokens[2], "AND2_X2");
}

TEST(ShellTokenizer, QuotesGroupWords) {
  const TokenizeResult r = tokenize_line("echo \"two words\" three");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[1], "two words");
}

TEST(ShellTokenizer, EmptyQuotesAreAToken) {
  const TokenizeResult r = tokenize_line("echo \"\"");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 2u);
  EXPECT_EQ(r.tokens[1], "");
}

TEST(ShellTokenizer, BackslashEscapesInsideQuotes) {
  const TokenizeResult r = tokenize_line("echo \"a\\\"b\"");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 2u);
  EXPECT_EQ(r.tokens[1], "a\"b");
}

TEST(ShellTokenizer, HashStartsCommentOutsideQuotes) {
  EXPECT_TRUE(tokenize_line("# whole-line comment").tokens.empty());
  const TokenizeResult r = tokenize_line("report_wns # trailing");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0], "report_wns");
}

TEST(ShellTokenizer, HashInsideQuotesIsLiteral) {
  const TokenizeResult r = tokenize_line("echo \"a#b\"");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.tokens.size(), 2u);
  EXPECT_EQ(r.tokens[1], "a#b");
}

TEST(ShellTokenizer, BlankLinesYieldNoTokens) {
  EXPECT_TRUE(tokenize_line("").tokens.empty());
  EXPECT_TRUE(tokenize_line("   \t  ").tokens.empty());
}

TEST(ShellTokenizer, UnterminatedQuoteIsAnError) {
  const TokenizeResult r = tokenize_line("echo \"oops");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.tokens.empty());
}

// --- interpreter errors ----------------------------------------------------

struct InterpreterFixture {
  std::ostringstream out;
  ShellInterpreter interp{out};

  std::string run(const std::string& line) {
    out.str("");
    interp.run_line(line);
    return out.str();
  }
};

TEST(ShellInterpreter, UnknownCommandIsReported) {
  InterpreterFixture f;
  const std::string text = f.run("frobnicate");
  EXPECT_NE(text.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_EQ(f.interp.errors(), 1u);
}

TEST(ShellInterpreter, ArityErrorsPrintUsage) {
  InterpreterFixture f;
  EXPECT_NE(f.run("size_cell g_1").find("usage: size_cell"),
            std::string::npos);
  EXPECT_NE(f.run("get_slack").find("usage: get_slack"), std::string::npos);
  EXPECT_NE(f.run("write_eco a b").find("usage: write_eco"),
            std::string::npos);
  EXPECT_EQ(f.interp.errors(), 3u);
}

TEST(ShellInterpreter, UnknownOptionIsReported) {
  InterpreterFixture f;
  EXPECT_NE(f.run("report_wns -bogus").find("unknown option '-bogus'"),
            std::string::npos);
}

TEST(ShellInterpreter, OptionMissingValueIsReported) {
  InterpreterFixture f;
  EXPECT_NE(f.run("get_slack ep -corner").find("-corner needs a value"),
            std::string::npos);
}

TEST(ShellInterpreter, QueriesRequireALoadedDesign) {
  InterpreterFixture f;
  EXPECT_NE(f.run("report_wns").find("no design loaded"), std::string::npos);
  EXPECT_NE(f.run("begin_eco").find("no design loaded"), std::string::npos);
}

TEST(ShellInterpreter, EchoAndExit) {
  InterpreterFixture f;
  EXPECT_EQ(f.run("echo hello \"two words\""), "hello two words\n");
  EXPECT_TRUE(f.interp.run_line("echo ok"));
  EXPECT_FALSE(f.interp.run_line("exit"));
  EXPECT_EQ(f.interp.errors(), 0u);
}

TEST(ShellInterpreter, BadNumericOptionIsReported) {
  InterpreterFixture f;
  EXPECT_NE(f.run("read_netlist -gates nope").find("-gates"),
            std::string::npos);
  EXPECT_EQ(f.interp.errors(), 1u);
}

// --- ECO journal text round-trip -------------------------------------------

TEST(ShellEco, JournalTextRoundTripIsExact) {
  EcoJournal journal;
  ASSERT_TRUE(journal.begin());
  EcoRecord resize;
  resize.kind = EcoRecord::Kind::Resize;
  resize.inst = "g_7";
  resize.old_cell = "AND2_X1";
  resize.new_cell = "AND2_X4";
  journal.record(resize);
  EcoRecord buffer;
  buffer.kind = EcoRecord::Kind::InsertBuffer;
  buffer.net = "n_12";
  buffer.sink = "g_9/A";
  buffer.new_cell = "BUF_X2";
  buffer.inst = "optbuf_0";
  buffer.x = 0.1 + 0.2;  // 0.30000000000000004: %.17g must round-trip it
  buffer.y = 123.456789012345678;
  journal.record(buffer);
  EcoRecord unbuffer;
  unbuffer.kind = EcoRecord::Kind::RemoveBuffer;
  unbuffer.inst = "optbuf_0";
  unbuffer.net = "n_12";
  journal.record(unbuffer);
  EcoRecord weights;
  weights.kind = EcoRecord::Kind::Weights;
  weights.corner = "slow";
  weights.early = true;
  weights.values = {0.0, 1.0 / 3.0, -0.125};
  journal.record(weights);
  ASSERT_TRUE(journal.end());

  std::stringstream text;
  journal.write(text);

  std::vector<EcoTransaction> parsed;
  std::string error;
  ASSERT_TRUE(EcoJournal::read(text, parsed, error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].records.size(), 4u);
  const EcoRecord& r0 = parsed[0].records[0];
  EXPECT_EQ(r0.kind, EcoRecord::Kind::Resize);
  EXPECT_EQ(r0.inst, "g_7");
  EXPECT_EQ(r0.old_cell, "AND2_X1");
  EXPECT_EQ(r0.new_cell, "AND2_X4");
  const EcoRecord& r1 = parsed[0].records[1];
  EXPECT_EQ(r1.kind, EcoRecord::Kind::InsertBuffer);
  EXPECT_EQ(r1.net, "n_12");
  EXPECT_EQ(r1.sink, "g_9/A");
  EXPECT_EQ(r1.new_cell, "BUF_X2");
  EXPECT_EQ(r1.inst, "optbuf_0");
  EXPECT_EQ(r1.x, 0.1 + 0.2);  // bitwise
  EXPECT_EQ(r1.y, 123.456789012345678);
  const EcoRecord& r2 = parsed[0].records[2];
  EXPECT_EQ(r2.kind, EcoRecord::Kind::RemoveBuffer);
  EXPECT_EQ(r2.inst, "optbuf_0");
  EXPECT_EQ(r2.net, "n_12");
  const EcoRecord& r3 = parsed[0].records[3];
  EXPECT_EQ(r3.kind, EcoRecord::Kind::Weights);
  EXPECT_EQ(r3.corner, "slow");
  EXPECT_TRUE(r3.early);
  ASSERT_EQ(r3.values.size(), 3u);
  EXPECT_EQ(r3.values[1], 1.0 / 3.0);  // bitwise
  EXPECT_EQ(r3.values[2], -0.125);
}

TEST(ShellEco, JournalReadRejectsMalformedInput) {
  std::vector<EcoTransaction> parsed;
  std::string error;
  std::istringstream orphan("resize a b c\n");
  EXPECT_FALSE(EcoJournal::read(orphan, parsed, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  std::istringstream unclosed("begin_eco\nresize a b c\n");
  EXPECT_FALSE(EcoJournal::read(unclosed, parsed, error));
  std::istringstream badkind("begin_eco\nteleport a b\nend_eco\n");
  EXPECT_FALSE(EcoJournal::read(badkind, parsed, error));
}

// --- session-level ECO properties ------------------------------------------

LoadRequest small_request() {
  LoadRequest request;
  request.gates = 220;
  request.flops = 32;
  request.seed = 11;
  request.utilization = 1.05;
  return request;
}

/// Per-endpoint slack keyed by endpoint name, across every corner and both
/// modes — name-keyed so graphs that differ only in tombstone instances
/// (and hence node numbering) still compare.
std::map<std::string, double> slacks_by_name(const Timer& timer) {
  std::map<std::string, double> slacks;
  for (CornerId c = 0; c < timer.num_corners(); ++c) {
    for (const Mode mode : {Mode::Early, Mode::Late}) {
      for (const NodeId e : timer.graph().endpoints()) {
        const std::string key =
            timer.graph().node_name(e) + "|" + timer.corner(c).name +
            (mode == Mode::Early ? "|E" : "|L");
        slacks[key] = timer.slack(e, mode, c);
      }
    }
  }
  return slacks;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string write_corner_spec(const std::string& name) {
  const std::string path = temp_path(name);
  std::ofstream out(path);
  out << "corner slow delay 1.15 slew 1.05 constraint 1.02 derate_margin "
         "1.2\n"
      << "corner fast delay 0.85 derate_margin 0.8\n";
  return path;
}

// --- LoadRequest::sdc_path -------------------------------------------------

std::string write_clock_sdc(const std::string& name) {
  const std::string path = temp_path(name);
  std::ofstream out(path);
  out << "create_clock -period 1500 [get_ports CLK]\n"
      << "set_clock_uncertainty 50\n";
  return path;
}

TEST(ShellLoad, SdcPeriodStandsUnlessAPeriodIsGiven) {
  LoadRequest request = small_request();
  request.sdc_path = write_clock_sdc("shell_sdc_period.sdc");
  ShellSession session;
  ASSERT_EQ(session.load(request), "");
  EXPECT_EQ(session.clock_period_ps(), 1500.0);

  request.period_ps = 1700.0;
  ASSERT_EQ(session.load(request), "");
  EXPECT_EQ(session.clock_period_ps(), 1700.0);
}

TEST(ShellLoad, SdcUncertaintyStandsUnlessOneIsGiven) {
  LoadRequest request = small_request();
  request.sdc_path = write_clock_sdc("shell_sdc_uncertainty.sdc");
  ShellSession from_sdc;
  ASSERT_EQ(from_sdc.load(request), "");
  EXPECT_EQ(from_sdc.timer().constraints().clock_uncertainty_ps, 50.0);

  // The same clock given as options times the design bit for bit.
  LoadRequest by_options = small_request();
  by_options.period_ps = 1500.0;
  by_options.uncertainty_ps = 50.0;
  ShellSession from_options;
  ASSERT_EQ(from_options.load(by_options), "");
  EXPECT_EQ(slacks_by_name(from_sdc.timer()),
            slacks_by_name(from_options.timer()));

  request.uncertainty_ps = 20.0;
  ASSERT_EQ(from_sdc.load(request), "");
  EXPECT_EQ(from_sdc.timer().constraints().clock_uncertainty_ps, 20.0);
  EXPECT_EQ(from_sdc.clock_period_ps(), 1500.0);
}

TEST(ShellLoad, RejectedRequestLeavesTheLoadedDesign) {
  InterpreterFixture f;
  ShellSession& session = f.interp.session();
  ASSERT_EQ(session.load(small_request()), "");
  const std::string query =
      "get_slack " + session.timer().graph().node_name(
                         session.timer().graph().endpoints()[0]);
  const std::string before = f.run(query) + f.run(query + " -early");
  ASSERT_NE(before.find("slack("), std::string::npos);
  const auto slacks = slacks_by_name(session.timer());

  LoadRequest missing_sdc = small_request();
  missing_sdc.seed = 12;  // a different design, never installed
  missing_sdc.sdc_path = temp_path("shell_no_such.sdc");
  EXPECT_NE(session.load(missing_sdc).find("cannot open SDC"),
            std::string::npos);
  // Utilization 0 used to abort in choose_clock_period.
  LoadRequest zero_utilization = small_request();
  zero_utilization.utilization = 0.0;
  EXPECT_NE(session.load(zero_utilization).find("utilization"),
            std::string::npos);

  ASSERT_TRUE(session.loaded());
  EXPECT_EQ(f.run(query) + f.run(query + " -early"), before);
  EXPECT_EQ(slacks_by_name(session.timer()), slacks);
}

TEST(ShellEco, UndoRestoresBitIdenticalSlacks) {
  ShellSession session;
  ASSERT_EQ(session.load(small_request()), "");
  const auto before = slacks_by_name(session.timer());

  ASSERT_EQ(session.begin_eco(), "");
  OptimizerOptions options;
  options.max_passes = 4;
  OptimizerReport report;
  ASSERT_EQ(session.optimize(options, report), "");
  std::size_t records = 0;
  ASSERT_EQ(session.end_eco(records), "");
  EXPECT_GT(records, 0u);
  EXPECT_NE(slacks_by_name(session.timer()), before);  // it did something

  ASSERT_EQ(session.undo_eco(), "");
  EXPECT_EQ(slacks_by_name(session.timer()), before);
  EXPECT_TRUE(session.journal().transactions().empty());
}

TEST(ShellEco, UndoRestoresManualTransformsAndWeights) {
  ShellSession session;
  ASSERT_EQ(session.load(small_request()), "");
  const auto before = slacks_by_name(session.timer());

  ASSERT_EQ(session.begin_eco(), "");
  // One manual resize, one manual buffer, one fit (weight records).
  const Design& design = session.design();
  // Resize the first combinational instance to a same-footprint sibling.
  std::string inst;
  std::string sibling;
  for (std::size_t i = 0; i < design.num_instances() && sibling.empty();
       ++i) {
    const LibCell& cell = design.cell_of(static_cast<InstanceId>(i));
    if (cell.kind == CellKind::FlipFlop) continue;
    for (std::size_t j = 0; j < session.library().num_cells(); ++j) {
      const LibCell& c = session.library().cell(j);
      if (c.footprint == cell.footprint && c.name != cell.name) {
        inst = design.instance(static_cast<InstanceId>(i)).name;
        sibling = c.name;
        break;
      }
    }
  }
  ASSERT_FALSE(sibling.empty());
  ASSERT_EQ(session.size_cell(inst, sibling), "");

  // Buffer the first net that has a driver and a sink.
  std::string buffer_name;
  bool buffered = false;
  for (std::size_t n = 0; n < design.num_nets() && !buffered; ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    const std::string err = session.insert_buffer(
        net.name, session.sink_spec(net.sinks[0]), "", buffer_name);
    buffered = err.empty();
  }
  ASSERT_TRUE(buffered);

  std::vector<MgbaFlowResult> fits;
  MgbaFlowOptions fit_options;
  fit_options.paths_per_endpoint = 4;
  fit_options.candidate_paths_per_endpoint = 4;
  ASSERT_EQ(session.fit(fit_options, false, fits), "");

  std::size_t records = 0;
  ASSERT_EQ(session.end_eco(records), "");
  EXPECT_GE(records, 3u);  // resize + buffer + weights
  EXPECT_NE(slacks_by_name(session.timer()), before);

  ASSERT_EQ(session.undo_eco(), "");
  EXPECT_EQ(slacks_by_name(session.timer()), before);
}

TEST(ShellEco, ReplayReproducesLiveSlacksAtEveryCorner) {
  const std::string corners = write_corner_spec("shell_replay_corners.spec");
  const std::string journal = temp_path("shell_replay.eco");

  // Live session: incremental updates throughout — corners, a fit at every
  // corner, then a closure run, all inside one transaction.
  ShellSession live;
  ASSERT_EQ(live.load(small_request()), "");
  ASSERT_EQ(live.load_corners(corners), "");
  ASSERT_EQ(live.begin_eco(), "");
  MgbaFlowOptions fit_options;
  fit_options.paths_per_endpoint = 4;
  fit_options.candidate_paths_per_endpoint = 4;
  std::vector<MgbaFlowResult> fits;
  ASSERT_EQ(live.fit(fit_options, true, fits), "");
  ASSERT_EQ(fits.size(), 2u);
  OptimizerOptions options;
  options.max_passes = 4;
  OptimizerReport report;
  ASSERT_EQ(live.optimize(options, report), "");
  std::size_t records = 0;
  ASSERT_EQ(live.end_eco(records), "");
  ASSERT_EQ(live.write_eco(journal), "");

  // Fresh session: same starting design and corners, one replay (applies
  // the records then rebuilds) — the standing incremental-vs-rebuild
  // equivalence check.
  ShellSession replayed;
  ASSERT_EQ(replayed.load(small_request()), "");
  ASSERT_EQ(replayed.load_corners(corners), "");
  std::size_t transactions = 0;
  std::size_t applied = 0;
  ASSERT_EQ(replayed.replay_eco(journal, transactions, applied), "");
  EXPECT_EQ(transactions, 1u);
  EXPECT_EQ(applied, records);

  EXPECT_EQ(slacks_by_name(replayed.timer()), slacks_by_name(live.timer()));
}

TEST(ShellEco, ReplayedJournalRewritesIdentically) {
  const std::string journal = temp_path("shell_rewrite.eco");
  const std::string rewritten = temp_path("shell_rewrite2.eco");

  ShellSession live;
  ASSERT_EQ(live.load(small_request()), "");
  ASSERT_EQ(live.begin_eco(), "");
  OptimizerOptions options;
  options.max_passes = 3;
  OptimizerReport report;
  ASSERT_EQ(live.optimize(options, report), "");
  std::size_t records = 0;
  ASSERT_EQ(live.end_eco(records), "");
  ASSERT_EQ(live.write_eco(journal), "");

  ShellSession replayed;
  ASSERT_EQ(replayed.load(small_request()), "");
  std::size_t transactions = 0;
  std::size_t applied = 0;
  ASSERT_EQ(replayed.replay_eco(journal, transactions, applied), "");
  ASSERT_EQ(replayed.write_eco(rewritten), "");

  std::ifstream a(journal);
  std::ifstream b(rewritten);
  std::stringstream sa;
  std::stringstream sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(ShellEco, TransactionStateErrors) {
  ShellSession session;
  std::size_t n = 0;
  EXPECT_NE(session.begin_eco(), "");  // no design
  ASSERT_EQ(session.load(small_request()), "");
  EXPECT_NE(session.end_eco(n), "");   // nothing open
  EXPECT_NE(session.undo_eco(), "");   // nothing committed
  ASSERT_EQ(session.begin_eco(), "");
  EXPECT_NE(session.begin_eco(), "");  // already open
  EXPECT_NE(session.write_eco(temp_path("x.eco")), "");  // open txn
  ASSERT_EQ(session.end_eco(n), "");
  EXPECT_EQ(n, 0u);  // empty transactions commit as no-ops
  ASSERT_EQ(session.undo_eco(), "");
}

}  // namespace
}  // namespace mgba::shell
