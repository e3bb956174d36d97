#include "shell/interpreter.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

#include "opt/qor.hpp"
#include "sta/report.hpp"
#include "util/input.hpp"
#include "util/strings.hpp"

namespace mgba::shell {

namespace {

/// Reads an optional numeric option into \p out; the returned error names
/// the option so the user sees which value failed to parse.
std::string read_size_option(const ParsedCommand& p, const std::string& name,
                             std::size_t& out) {
  const std::string* v = p.value(name);
  if (v == nullptr) return "";
  const auto count = parse_count(*v);
  if (!count) return "option -" + name + ": not a count: " + *v;
  out = *count;
  return "";
}

std::string read_double_option(const ParsedCommand& p, const std::string& name,
                               double& out) {
  const std::string* v = p.value(name);
  if (v == nullptr) return "";
  const auto number = parse_number(*v);
  if (!number) return "option -" + name + ": not a number: " + *v;
  out = *number;
  return "";
}

/// As above, for an option whose absence leaves \p out unset.
std::string read_double_option(const ParsedCommand& p, const std::string& name,
                               std::optional<double>& out) {
  if (p.value(name) == nullptr) return "";
  double value = 0.0;
  std::string err = read_double_option(p, name, value);
  if (err.empty()) out = value;
  return err;
}

CommandResult ok_result(std::string text = {}) {
  CommandResult r;
  r.output = std::move(text);
  return r;
}

CommandResult fail(CommandStatus status, std::string message) {
  CommandResult r;
  r.status = status;
  r.error = std::move(message);
  return r;
}

CommandResult args_fail(std::string message) {
  return fail(CommandStatus::BadArgs, std::move(message));
}

CommandResult engine_fail(std::string message) {
  return fail(CommandStatus::EngineError, std::move(message));
}

CommandResult no_design() {
  return engine_fail("no design loaded (read_netlist first)");
}

/// Resolves an optional "-corner NAME" against the view's frozen corner
/// set; kDefaultCorner stand-in (nullopt) when absent. The caller has
/// already checked view.loaded().
std::string resolve_corner(const ParsedCommand& p, const SessionView& view,
                           std::optional<CornerId>& corner) {
  corner.reset();
  const std::string* name = p.value("corner");
  if (name == nullptr) return "";
  const auto c = view.snap->find_corner(*name);
  if (!c.has_value()) return "no corner named '" + *name + "'";
  corner = *c;
  return "";
}

}  // namespace

std::shared_ptr<const NodeNameTable> NodeNameTable::build(
    const std::shared_ptr<const TimingGraph>& graph) {
  auto table = std::make_shared<NodeNameTable>();
  table->names.reserve(graph->num_nodes());
  for (NodeId n = 0; n < graph->num_nodes(); ++n) {
    table->names.push_back(graph->node_name(n));
  }
  for (const NodeId e : graph->endpoints()) {
    table->endpoints.emplace(table->names[e], e);
  }
  table->graph = graph;
  return table;
}

std::string SessionView::node_name(NodeId node) const {
  if (names != nullptr && node < names->names.size()) {
    return names->names[node];
  }
  return snap->graph().node_name(node);
}

std::optional<NodeId> SessionView::find_endpoint(
    const std::string& name) const {
  if (names != nullptr) {
    const auto it = names->endpoints.find(name);
    if (it == names->endpoints.end()) return std::nullopt;
    return it->second;
  }
  return snap->graph().find_endpoint(name);
}

ShellInterpreter::ShellInterpreter(std::ostream& out,
                                   InterpreterOptions options)
    : out_(&out), options_(std::move(options)) {
  register_commands();
}

void ShellInterpreter::note_error(CommandStatus status) {
  ++errors_;
  if (first_error_ == CommandStatus::Ok) first_error_ = status;
}

bool ShellInterpreter::run_line(const std::string& line) {
  const CommandResult r = execute_line(line);
  *out_ << r.output;
  if (!r.ok()) {
    *out_ << "error: " << r.error << "\n";
    note_error(r.status);
    if (options_.stop_on_error) return false;
  }
  return !r.stop;
}

void ShellInterpreter::run_stream(std::istream& in) {
  std::string line;
  while (true) {
    if (options_.interactive) *out_ << options_.prompt << std::flush;
    if (!std::getline(in, line)) break;
    if (options_.echo) *out_ << options_.prompt << line << "\n";
    if (!run_line(line)) break;
  }
}

std::string ShellInterpreter::run_script(const std::string& path) {
  if (source_depth_ >= 8) return "source nesting too deep (limit 8)";
  std::ifstream in(path);
  if (!in) return "cannot open script " + path;
  ++source_depth_;
  run_stream(in);
  --source_depth_;
  return "";
}

CommandResult ShellInterpreter::execute_line(const std::string& line) {
  TokenizeResult tok = tokenize_line(line);
  if (!tok.ok()) return args_fail(tok.error);
  if (tok.tokens.empty()) return CommandResult{};
  return dispatch(tok.tokens);
}

CommandResult ShellInterpreter::execute_query(const std::string& line,
                                              const SessionView& view) const {
  TokenizeResult tok = tokenize_line(line);
  if (!tok.ok()) return args_fail(tok.error);
  if (tok.tokens.empty()) {
    CommandResult r;
    r.read_only = true;
    return r;
  }
  const auto it = commands_.find(tok.tokens[0]);
  if (it == commands_.end()) {
    return fail(CommandStatus::UnknownCommand,
                "unknown command '" + tok.tokens[0] + "' (try help)");
  }
  const Command& cmd = it->second;
  if (!cmd.query) {
    return args_fail("command '" + tok.tokens[0] +
                     "' mutates the session (writer path required)");
  }
  ParsedCommand parsed;
  if (std::string err = parse_command(cmd, tok.tokens, parsed); !err.empty()) {
    return args_fail(std::move(err));
  }
  CommandResult r = cmd.query(parsed, view);
  r.read_only = true;
  return r;
}

bool ShellInterpreter::classify_read_only(const std::string& line) const {
  TokenizeResult tok = tokenize_line(line);
  if (!tok.ok()) return false;
  if (tok.tokens.empty()) return true;
  const auto it = commands_.find(tok.tokens[0]);
  return it != commands_.end() && it->second.query != nullptr;
}

SessionView ShellInterpreter::current_view() {
  SessionView v;
  if (!session_.loaded()) return v;
  v.snap = session_.timing_view();
  if (options_.snapshot_names) {
    const std::shared_ptr<const TimingGraph>& graph = v.snap->graph_ref();
    if (name_table_ == nullptr || name_table_->graph != graph) {
      name_table_ = NodeNameTable::build(graph);
    }
    v.names = name_table_;
  }
  return v;
}

CommandResult ShellInterpreter::dispatch(
    const std::vector<std::string>& tokens) {
  const std::string& name = tokens[0];
  if (name == "exit" || name == "quit") {
    CommandResult r;
    r.stop = true;
    return r;
  }
  const auto it = commands_.find(name);
  if (it == commands_.end()) {
    return fail(CommandStatus::UnknownCommand,
                "unknown command '" + name + "' (try help)");
  }
  const Command& cmd = it->second;
  ParsedCommand parsed;
  if (std::string err = parse_command(cmd, tokens, parsed); !err.empty()) {
    return args_fail(std::move(err));
  }
  CommandResult r =
      cmd.query ? cmd.query(parsed, current_view()) : cmd.handler(parsed);
  r.read_only = cmd.query != nullptr;
  return r;
}

std::string ShellInterpreter::parse_command(
    const Command& cmd, const std::vector<std::string>& tokens,
    ParsedCommand& out) const {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    const bool is_option = t.size() > 1 && t[0] == '-' &&
                           std::isdigit(static_cast<unsigned char>(t[1])) == 0;
    if (!is_option) {
      out.positional.push_back(t);
      continue;
    }
    const std::string option = t.substr(1);
    if (std::find(cmd.value_options.begin(), cmd.value_options.end(),
                  option) != cmd.value_options.end()) {
      if (i + 1 >= tokens.size()) {
        return "option -" + option + " needs a value (usage: " + cmd.usage +
               ")";
      }
      out.values[option] = tokens[++i];
    } else if (std::find(cmd.flag_options.begin(), cmd.flag_options.end(),
                         option) != cmd.flag_options.end()) {
      out.flags.insert(option);
    } else {
      return "unknown option '-" + option + "' (usage: " + cmd.usage + ")";
    }
  }
  if (out.positional.size() < cmd.min_args ||
      out.positional.size() > cmd.max_args) {
    return "usage: " + cmd.usage;
  }
  return "";
}

// --- handlers --------------------------------------------------------------

CommandResult ShellInterpreter::cmd_help(const ParsedCommand& p) const {
  std::ostringstream os;
  if (!p.positional.empty()) {
    const auto it = commands_.find(p.positional[0]);
    if (it == commands_.end()) {
      return args_fail("unknown command '" + p.positional[0] + "'");
    }
    os << "usage: " << it->second.usage << "\n  " << it->second.help << "\n";
    for (const std::string& v : it->second.value_options) {
      os << "  -" << v << " <value>\n";
    }
    for (const std::string& f : it->second.flag_options) {
      os << "  -" << f << "\n";
    }
    return ok_result(os.str());
  }
  os << "commands:\n";
  for (const auto& [name, cmd] : commands_) {
    os << str_format("  %-38s %s\n", cmd.usage.c_str(), cmd.help.c_str());
  }
  os << str_format("  %-38s %s\n", "exit | quit", "leave the shell");
  return ok_result(os.str());
}

CommandResult ShellInterpreter::cmd_read_netlist(const ParsedCommand& p) {
  LoadRequest request;
  if (!p.positional.empty()) request.netlist_path = p.positional[0];
  std::size_t design = 0;
  std::string err;
  if ((err = read_size_option(p, "design", design)), !err.empty()) {
    return args_fail(std::move(err));
  }
  request.design = static_cast<int>(design);
  if ((err = read_size_option(p, "gates", request.gates)), !err.empty()) {
    return args_fail(std::move(err));
  }
  if ((err = read_size_option(p, "flops", request.flops)), !err.empty()) {
    return args_fail(std::move(err));
  }
  std::size_t seed = 1;
  if ((err = read_size_option(p, "seed", seed)), !err.empty()) {
    return args_fail(std::move(err));
  }
  request.seed = seed;
  if ((err = read_size_option(p, "depth", request.depth)), !err.empty()) {
    return args_fail(std::move(err));
  }
  if ((err = read_double_option(p, "period", request.period_ps)),
      !err.empty()) {
    return args_fail(std::move(err));
  }
  if ((err = read_double_option(p, "utilization", request.utilization)),
      !err.empty()) {
    return args_fail(std::move(err));
  }
  if ((err = read_double_option(p, "uncertainty", request.uncertainty_ps)),
      !err.empty()) {
    return args_fail(std::move(err));
  }
  if (const std::string* clock = p.value("clock_port"); clock != nullptr) {
    request.clock_port = *clock;
  }

  if ((err = session_.load(request)), !err.empty()) {
    return engine_fail(std::move(err));
  }
  return ok_result(str_format(
      "loaded %s: %zu instances, %zu nets, %zu endpoints, clock period "
      "%.6g ps\n",
      session_.design().name().c_str(), session_.design().num_instances(),
      session_.design().num_nets(),
      session_.timer().graph().endpoints().size(),
      session_.clock_period_ps()));
}

CommandResult ShellInterpreter::cmd_report_wns_tns(const ParsedCommand& p,
                                                   const SessionView& view,
                                                   bool tns) const {
  if (!view.loaded()) return no_design();
  const TimingSnapshot& snap = *view.snap;
  const Mode mode = p.has_flag("early") ? Mode::Early : Mode::Late;
  const char* what = tns ? "tns" : "wns";
  std::optional<CornerId> corner;
  if (std::string err = resolve_corner(p, view, corner); !err.empty()) {
    return args_fail(std::move(err));
  }
  const auto value = [&](CornerId c) {
    return tns ? snap.tns(mode, c) : snap.wns(mode, c);
  };
  std::ostringstream os;
  if (corner.has_value()) {
    os << str_format("%s %s = %.6f ps\n", what,
                     corner_label(snap, *corner).c_str(), value(*corner));
    return ok_result(os.str());
  }
  for (CornerId c = 0; c < snap.num_corners(); ++c) {
    os << str_format("%s %s = %.6f ps\n", what, corner_label(snap, c).c_str(),
                     value(c));
  }
  if (view.multi_corner()) {
    const double merged = tns ? snap.tns_merged(mode) : snap.wns_merged(mode);
    os << str_format("%s merged = %.6f ps\n", what, merged);
  }
  return ok_result(os.str());
}

CommandResult ShellInterpreter::cmd_report_worst_slack(
    const ParsedCommand& p, const SessionView& view) const {
  if (!view.loaded()) return no_design();
  const TimingSnapshot& snap = *view.snap;
  const Mode mode = p.has_flag("early") ? Mode::Early : Mode::Late;
  std::optional<CornerId> corner;
  if (std::string err = resolve_corner(p, view, corner); !err.empty()) {
    return args_fail(std::move(err));
  }
  if (corner.has_value()) {
    // Worst endpoint at one specific corner.
    NodeId worst = kInvalidNode;
    double worst_slack = 0.0;
    for (const NodeId e : snap.graph().endpoints()) {
      const double s = snap.slack(e, mode, *corner);
      if (worst == kInvalidNode || s < worst_slack) {
        worst = e;
        worst_slack = s;
      }
    }
    if (worst == kInvalidNode) return engine_fail("design has no endpoints");
    return ok_result(str_format("worst slack %s = %.6f ps at %s\n",
                                corner_label(snap, *corner).c_str(),
                                worst_slack, view.node_name(worst).c_str()));
  }
  const NodeId worst = snap.worst_endpoint_merged(mode);
  if (worst == kInvalidNode) return engine_fail("design has no endpoints");
  const CornerId at = snap.worst_slack_corner(worst, mode);
  return ok_result(str_format("worst slack = %.6f ps at %s (%s)\n",
                              snap.slack_merged(worst, mode),
                              view.node_name(worst).c_str(),
                              corner_label(snap, at).c_str()));
}

CommandResult ShellInterpreter::cmd_get_slack(const ParsedCommand& p,
                                              const SessionView& view) const {
  if (!view.loaded()) return no_design();
  const TimingSnapshot& snap = *view.snap;
  const std::string& name = p.positional[0];
  const auto endpoint = view.find_endpoint(name);
  if (!endpoint.has_value()) {
    return args_fail("no endpoint named '" + name + "'");
  }
  const Mode mode = p.has_flag("early") ? Mode::Early : Mode::Late;
  const char* mode_tag = p.has_flag("early") ? " early" : "";
  std::optional<CornerId> corner;
  if (std::string err = resolve_corner(p, view, corner); !err.empty()) {
    return args_fail(std::move(err));
  }
  std::ostringstream os;
  if (corner.has_value()) {
    os << str_format("slack(%s)%s %s = %.17g ps\n", name.c_str(), mode_tag,
                     corner_label(snap, *corner).c_str(),
                     snap.slack(*endpoint, mode, *corner));
    return ok_result(os.str());
  }
  for (CornerId c = 0; c < snap.num_corners(); ++c) {
    os << str_format("slack(%s)%s %s = %.17g ps\n", name.c_str(), mode_tag,
                     corner_label(snap, c).c_str(),
                     snap.slack(*endpoint, mode, c));
  }
  if (view.multi_corner()) {
    os << str_format("slack(%s)%s merged = %.17g ps\n", name.c_str(),
                     mode_tag, snap.slack_merged(*endpoint, mode));
  }
  return ok_result(os.str());
}

CommandResult ShellInterpreter::cmd_report_path(const ParsedCommand& p,
                                                const SessionView& view) const {
  if (!view.loaded()) return no_design();
  const TimingSnapshot& snap = *view.snap;
  NodeId endpoint = kInvalidNode;
  if (!p.positional.empty()) {
    const auto found = view.find_endpoint(p.positional[0]);
    if (!found.has_value()) {
      return args_fail("no endpoint named '" + p.positional[0] + "'");
    }
    endpoint = *found;
  } else {
    endpoint = snap.worst_endpoint_merged(Mode::Late);
    if (endpoint == kInvalidNode) {
      return engine_fail("design has no endpoints");
    }
  }
  std::optional<CornerId> corner;
  if (std::string err = resolve_corner(p, view, corner); !err.empty()) {
    return args_fail(std::move(err));
  }
  const CornerId at =
      corner.value_or(snap.worst_slack_corner(endpoint, Mode::Late));
  return ok_result(report_worst_path(
      snap, endpoint, at, [&view](NodeId n) { return view.node_name(n); }));
}

CommandResult ShellInterpreter::cmd_report_endpoints(
    const ParsedCommand& p, const SessionView& view) const {
  if (!view.loaded()) return no_design();
  const auto count =
      p.positional.empty() ? std::optional<std::size_t>(10)
                           : parse_count(p.positional[0]);
  if (!count) return args_fail("not a count: " + p.positional[0]);
  std::optional<CornerId> corner;
  if (std::string err = resolve_corner(p, view, corner); !err.empty()) {
    return args_fail(std::move(err));
  }
  return ok_result(report_endpoints(
      *view.snap, *count, corner.value_or(kDefaultCorner),
      [&view](NodeId n) { return view.node_name(n); }));
}

CommandResult ShellInterpreter::cmd_report_qor(const ParsedCommand& /*p*/) {
  if (!session_.loaded()) return no_design();
  const Timer& timer = session_.timer();
  std::ostringstream os;
  if (!session_.multi_corner()) {
    os << "qor: " << measure_qor(timer).to_string() << "\n";
    return ok_result(os.str());
  }
  for (CornerId c = 0; c < timer.num_corners(); ++c) {
    os << "qor " << corner_label(timer, c) << ": "
       << measure_qor(timer, c).to_string() << "\n";
  }
  os << "qor merged: " << measure_qor(timer).to_string() << "\n";
  return ok_result(os.str());
}

CommandResult ShellInterpreter::cmd_report_paths(const ParsedCommand& p) {
  if (!session_.loaded()) return no_design();
  const auto count = p.positional.empty() ? std::optional<std::size_t>(5)
                                          : parse_count(p.positional[0]);
  if (!count) return args_fail("not a count: " + p.positional[0]);
  std::size_t k = 8;
  std::string err;
  if ((err = read_size_option(p, "k", k)), !err.empty()) {
    return args_fail(std::move(err));
  }
  if (k == 0) return args_fail("option -k: must be positive");
  const Mode mode = p.has_flag("early") ? Mode::Early : Mode::Late;
  CornerId corner = kDefaultCorner;
  if (const std::string* name = p.value("corner")) {
    const auto c = session_.timer().find_corner(*name);
    if (!c.has_value()) return args_fail("no corner named '" + *name + "'");
    corner = *c;
  }
  // Served from the session's persistent engine: the first call cold-builds,
  // repeated calls after ECOs re-enumerate only the touched cone.
  PathEngine& engine = session_.path_hub()->engine(k, mode, corner);
  engine.sync();
  const std::vector<TimingPath> paths = engine.worst_paths(*count);
  const TimingSnapshot& snap = *engine.view();
  const TimingGraph& graph = session_.timer().graph();
  std::ostringstream os;
  os << str_format("worst %zu paths (k=%zu, %s, %s):\n", paths.size(), k,
                   mode == Mode::Late ? "late" : "early",
                   corner_label(snap, corner).c_str());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const TimingPath& path = paths[i];
    const NodeId endpoint = path.endpoint();
    const double required = snap.required(endpoint, mode, corner);
    const double slack = mode == Mode::Late ? required - path.gba_arrival_ps
                                            : path.gba_arrival_ps - required;
    os << str_format("  %zu: slack=%.6f ps  %s <- %s  (%zu nodes)\n", i + 1,
                     slack, graph.node_name(endpoint).c_str(),
                     graph.node_name(path.launch()).c_str(),
                     path.nodes.size());
  }
  return ok_result(os.str());
}

CommandResult ShellInterpreter::cmd_fit_mgba(const ParsedCommand& p) {
  MgbaFlowOptions options;
  if (p.has_flag("hold")) options.check_kind = CheckKind::Hold;
  std::string err;
  if ((err = read_size_option(p, "paths", options.paths_per_endpoint)),
      !err.empty()) {
    return args_fail(std::move(err));
  }
  options.candidate_paths_per_endpoint = std::max(
      options.candidate_paths_per_endpoint, options.paths_per_endpoint);
  std::vector<MgbaFlowResult> results;
  if ((err = session_.fit(options, p.has_flag("all_corners"), results)),
      !err.empty()) {
    return engine_fail(std::move(err));
  }
  std::ostringstream os;
  for (const MgbaFlowResult& fit : results) {
    os << fit_result_summary(session_.timer(), fit, options.check_kind);
  }
  return ok_result(os.str());
}

CommandResult ShellInterpreter::cmd_size_cell(const ParsedCommand& p) {
  std::string old_cell;
  if (session_.loaded()) {
    if (const auto inst = session_.design().find_instance(p.positional[0]);
        inst.has_value()) {
      old_cell = session_.design().cell_of(*inst).name;
    }
  }
  if (std::string err = session_.size_cell(p.positional[0], p.positional[1]);
      !err.empty()) {
    return engine_fail(std::move(err));
  }
  return ok_result(str_format("sized %s: %s -> %s\n", p.positional[0].c_str(),
                              old_cell.c_str(), p.positional[1].c_str()));
}

CommandResult ShellInterpreter::cmd_insert_buffer(const ParsedCommand& p) {
  const std::string* cell = p.value("cell");
  std::string buffer_name;
  if (std::string err =
          session_.insert_buffer(p.positional[0], p.positional[1],
                                 cell != nullptr ? *cell : "", buffer_name);
      !err.empty()) {
    return engine_fail(std::move(err));
  }
  const auto inst = session_.design().find_instance(buffer_name);
  return ok_result(
      str_format("inserted buffer %s (%s) before %s on net %s\n",
                 buffer_name.c_str(),
                 session_.design().cell_of(*inst).name.c_str(),
                 p.positional[1].c_str(), p.positional[0].c_str()));
}

CommandResult ShellInterpreter::cmd_optimize(const ParsedCommand& p) {
  OptimizerOptions options;
  std::string err;
  if ((err = read_size_option(p, "passes", options.max_passes)),
      !err.empty()) {
    return args_fail(std::move(err));
  }
  if ((err = read_size_option(p, "acceptable",
                              options.acceptable_violations)),
      !err.empty()) {
    return args_fail(std::move(err));
  }
  if (p.has_flag("mgba")) options.use_mgba = true;
  OptimizerReport report;
  if ((err = session_.optimize(options, report)), !err.empty()) {
    return engine_fail(std::move(err));
  }
  std::ostringstream os;
  os << str_format(
      "optimize: %zu passes, %zu upsizes, %zu downsizes, %zu buffers "
      "inserted (%zu reverted)\n",
      report.passes, report.upsizes, report.downsizes,
      report.buffers_inserted, report.buffers_reverted);
  os << "  initial: " << report.initial.to_string() << "\n";
  os << "  final:   " << report.final_qor.to_string() << "\n";
  if (session_.multi_corner()) {
    const Timer& timer = session_.timer();
    for (CornerId c = 0; c < timer.num_corners(); ++c) {
      os << "  final " << corner_label(timer, c) << ": "
         << report.final_per_corner[c].to_string() << "\n";
    }
  }
  return ok_result(os.str());
}

void ShellInterpreter::register_commands() {
  const auto add = [this](const std::string& name, Command cmd) {
    commands_.emplace(name, std::move(cmd));
  };
  // Wraps a read-only body into the Command::query slot.
  using QueryFn =
      std::function<CommandResult(const ParsedCommand&, const SessionView&)>;
  const auto query_cmd = [](std::string usage, std::string help,
                            std::size_t min_args, std::size_t max_args,
                            std::vector<std::string> value_options,
                            std::vector<std::string> flag_options,
                            QueryFn fn) {
    Command cmd;
    cmd.usage = std::move(usage);
    cmd.help = std::move(help);
    cmd.min_args = min_args;
    cmd.max_args = max_args;
    cmd.value_options = std::move(value_options);
    cmd.flag_options = std::move(flag_options);
    cmd.query = std::move(fn);
    return cmd;
  };
  const auto mutating_cmd =
      [](std::string usage, std::string help, std::size_t min_args,
         std::size_t max_args, std::vector<std::string> value_options,
         std::vector<std::string> flag_options,
         std::function<CommandResult(const ParsedCommand&)> fn) {
        Command cmd;
        cmd.usage = std::move(usage);
        cmd.help = std::move(help);
        cmd.min_args = min_args;
        cmd.max_args = max_args;
        cmd.value_options = std::move(value_options);
        cmd.flag_options = std::move(flag_options);
        cmd.handler = std::move(fn);
        return cmd;
      };

  add("help", query_cmd("help [command]", "list commands or describe one", 0,
                        1, {}, {},
                        [this](const ParsedCommand& p, const SessionView&) {
                          return cmd_help(p);
                        }));
  add("echo", query_cmd("echo [words...]", "print its arguments", 0, SIZE_MAX,
                        {}, {},
                        [](const ParsedCommand& p, const SessionView&) {
                          std::ostringstream os;
                          for (std::size_t i = 0; i < p.positional.size();
                               ++i) {
                            os << (i == 0 ? "" : " ") << p.positional[i];
                          }
                          os << "\n";
                          return ok_result(os.str());
                        }));
  add("source",
      mutating_cmd("source <file>", "run a script file in this session", 1, 1,
                   {}, {}, [this](const ParsedCommand& p) {
                     // Nested output (including nested "error:" lines,
                     // which run_line prints and counts as usual) is
                     // captured so the daemon can ship it as a payload;
                     // the stream drivers re-print it unchanged.
                     std::ostringstream capture;
                     std::ostream* saved = out_;
                     out_ = &capture;
                     const std::string err = run_script(p.positional[0]);
                     out_ = saved;
                     CommandResult r = ok_result(capture.str());
                     if (!err.empty()) {
                       r.status = CommandStatus::EngineError;
                       r.error = err;
                     }
                     return r;
                   }));

  // Loading.
  add("read_library",
      mutating_cmd("read_library <file>",
                   "replace the cell library (resets the design)", 1, 1, {},
                   {}, [this](const ParsedCommand& p) {
                     if (std::string err = session_.load_library(
                             p.positional[0]);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result(str_format(
                         "library: %zu cells\n",
                         session_.library().num_cells()));
                   }));
  add("read_derates",
      mutating_cmd("read_derates <file>", "replace the base AOCV derate table",
                   1, 1, {}, {}, [this](const ParsedCommand& p) {
                     if (std::string err = session_.load_derates(
                             p.positional[0]);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result();
                   }));
  add("read_netlist",
      mutating_cmd("read_netlist [file] [-design N | -gates N]",
                   "load a netlist/Verilog file or generate a design", 0, 1,
                   {"design", "gates", "flops", "seed", "depth", "period",
                    "utilization", "uncertainty", "clock_port"},
                   {},
                   [this](const ParsedCommand& p) {
                     return cmd_read_netlist(p);
                   }));
  add("read_corners",
      mutating_cmd("read_corners <file>",
                   "install an MCMM corner set from a spec file", 1, 1, {},
                   {}, [this](const ParsedCommand& p) {
                     if (std::string err = session_.load_corners(
                             p.positional[0]);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     std::ostringstream os;
                     os << str_format("%zu corners:",
                                      session_.setups().size());
                     for (const CornerSetup& s : session_.setups()) {
                       os << " '" << s.corner.name << "'";
                     }
                     os << "\n";
                     return ok_result(os.str());
                   }));

  // Queries (read-only: answered from a SessionView, never the live Timer).
  add("report_wns",
      query_cmd("report_wns [-corner C] [-early]",
                "worst negative slack per corner", 0, 0, {"corner"},
                {"early"},
                [this](const ParsedCommand& p, const SessionView& view) {
                  return cmd_report_wns_tns(p, view, false);
                }));
  add("report_tns",
      query_cmd("report_tns [-corner C] [-early]",
                "total negative slack per corner", 0, 0, {"corner"},
                {"early"},
                [this](const ParsedCommand& p, const SessionView& view) {
                  return cmd_report_wns_tns(p, view, true);
                }));
  add("report_worst_slack",
      query_cmd("report_worst_slack [-corner C] [-early]",
                "worst endpoint and its slack", 0, 0, {"corner"}, {"early"},
                [this](const ParsedCommand& p, const SessionView& view) {
                  return cmd_report_worst_slack(p, view);
                }));
  add("get_slack",
      query_cmd("get_slack <endpoint> [-corner C] [-early]",
                "full-precision slack of one endpoint", 1, 1, {"corner"},
                {"early"},
                [this](const ParsedCommand& p, const SessionView& view) {
                  return cmd_get_slack(p, view);
                }));
  add("report_path",
      query_cmd("report_path [endpoint] [-corner C]",
                "worst-path trace (default: worst endpoint)", 0, 1,
                {"corner"}, {},
                [this](const ParsedCommand& p, const SessionView& view) {
                  return cmd_report_path(p, view);
                }));
  add("report_endpoints",
      query_cmd("report_endpoints [count] [-corner C]",
                "table of the worst endpoints", 0, 1, {"corner"}, {},
                [this](const ParsedCommand& p, const SessionView& view) {
                  return cmd_report_endpoints(p, view);
                }));
  add("report_qor",
      mutating_cmd("report_qor", "WNS/TNS/area/leakage/buffer-count summary",
                   0, 0, {}, {},
                   [this](const ParsedCommand& p) {
                     return cmd_report_qor(p);
                   }));
  add("report_paths",
      mutating_cmd(
          "report_paths [count] [-k N] [-corner C] [-early]",
          "globally worst GBA paths from the persistent path engine "
          "(warm across ECOs)",
          0, 1, {"k", "corner"}, {"early"},
          [this](const ParsedCommand& p) { return cmd_report_paths(p); }));
  add("stats",
      mutating_cmd("stats",
                   "timing-update statistics (updates, frontier sizes, "
                   "delay-cache hit rate, buffer-trial rollbacks, memory "
                   "footprint)",
                   0, 0, {}, {}, [this](const ParsedCommand&) {
                     if (!session_.loaded()) return no_design();
                     const Timer& timer = session_.timer();
                     std::ostringstream os;
                     os << timer.update_stats().to_string() << "\n";
                     os << timer.memory_stats().to_string() << "\n";
                     // Engine counters appear only once something built an
                     // engine, keeping pre-existing golden transcripts
                     // byte-stable.
                     if (PathEngineHub* hub = session_.path_hub();
                         hub != nullptr && hub->num_engines() > 0) {
                       os << hub->to_string();
                     }
                     return ok_result(os.str());
                   }));

  // Fitting and transforms.
  add("fit_mgba",
      mutating_cmd("fit_mgba [-all_corners] [-hold] [-paths N]",
                   "fit and install mGBA weighting factors", 0, 0, {"paths"},
                   {"all_corners", "hold"},
                   [this](const ParsedCommand& p) { return cmd_fit_mgba(p); }));
  add("size_cell",
      mutating_cmd("size_cell <inst> <cell>",
                   "swap an instance within its footprint", 2, 2, {}, {},
                   [this](const ParsedCommand& p) {
                     return cmd_size_cell(p);
                   }));
  add("insert_buffer",
      mutating_cmd("insert_buffer <net> <sink> [-cell C]",
                   "splice a buffer in front of one sink", 2, 2, {"cell"}, {},
                   [this](const ParsedCommand& p) {
                     return cmd_insert_buffer(p);
                   }));
  add("optimize",
      mutating_cmd("optimize [-passes N] [-acceptable N] [-mgba]",
                   "run the timing-closure flow", 0, 0,
                   {"passes", "acceptable"}, {"mgba"},
                   [this](const ParsedCommand& p) { return cmd_optimize(p); }));

  // ECO journal.
  add("begin_eco",
      mutating_cmd("begin_eco", "open an ECO transaction", 0, 0, {}, {},
                   [this](const ParsedCommand&) {
                     if (std::string err = session_.begin_eco();
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result("eco: transaction opened\n");
                   }));
  add("end_eco",
      mutating_cmd("end_eco", "commit the open ECO transaction", 0, 0, {}, {},
                   [this](const ParsedCommand&) {
                     std::size_t records = 0;
                     if (std::string err = session_.end_eco(records);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result(str_format(
                         "eco: committed transaction %zu (%zu records)\n",
                         session_.journal().transactions().size(), records));
                   }));
  add("undo_eco",
      mutating_cmd("undo_eco",
                   "roll back the most recent committed transaction", 0, 0,
                   {}, {}, [this](const ParsedCommand&) {
                     if (std::string err = session_.undo_eco();
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result(str_format(
                         "eco: undone (%zu committed remain)\n",
                         session_.journal().transactions().size()));
                   }));
  add("write_eco",
      mutating_cmd("write_eco <file>", "serialize the committed transactions",
                   1, 1, {}, {}, [this](const ParsedCommand& p) {
                     if (std::string err = session_.write_eco(p.positional[0]);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result(str_format(
                         "eco: wrote %zu transactions to %s\n",
                         session_.journal().transactions().size(),
                         p.positional[0].c_str()));
                   }));
  // Versioned timing snapshots.
  add("snapshot",
      mutating_cmd("snapshot",
                   "pin the current timing state as a frozen snapshot", 0, 0,
                   {}, {}, [this](const ParsedCommand&) {
                     if (!session_.loaded()) return no_design();
                     const std::size_t id = session_.take_snapshot();
                     const Timer::MemoryStats m =
                         session_.timer().memory_stats();
                     return ok_result(str_format(
                         "snapshot %zu pinned (%zu live, %zu bytes "
                         "retained)\n",
                         id, m.live_snapshots, m.cow_retained_bytes));
                   }));
  add("release",
      mutating_cmd("release <snapshot>", "release a pinned timing snapshot",
                   1, 1, {}, {}, [this](const ParsedCommand& p) {
                     if (!session_.loaded()) return no_design();
                     const auto id = parse_count(p.positional[0]);
                     if (!id) {
                       return args_fail("not a snapshot id: " +
                                        p.positional[0]);
                     }
                     if (std::string err = session_.release_snapshot(*id);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     const Timer::MemoryStats m =
                         session_.timer().memory_stats();
                     return ok_result(str_format(
                         "snapshot %zu released (%zu live, %zu bytes "
                         "retained)\n",
                         *id, m.live_snapshots, m.cow_retained_bytes));
                   }));

  add("replay_eco",
      mutating_cmd("replay_eco <file>", "apply a journal file to this session",
                   1, 1, {}, {}, [this](const ParsedCommand& p) {
                     std::size_t transactions = 0;
                     std::size_t records = 0;
                     if (std::string err = session_.replay_eco(
                             p.positional[0], transactions, records);
                         !err.empty()) {
                       return engine_fail(std::move(err));
                     }
                     return ok_result(str_format(
                         "eco: replayed %zu transactions (%zu records) "
                         "from %s\n",
                         transactions, records, p.positional[0].c_str()));
                   }));
}

}  // namespace mgba::shell
