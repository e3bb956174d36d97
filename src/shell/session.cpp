#include "shell/session.hpp"

#include <algorithm>
#include <fstream>
#include <set>

#include "aocv/aocv_model.hpp"
#include "aocv/derate_io.hpp"
#include "liberty/default_library.hpp"
#include "liberty/liberty_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/verilog_io.hpp"
#include "sta/sdc.hpp"
#include "util/check.hpp"
#include "util/input.hpp"
#include "util/strings.hpp"

namespace mgba::shell {

namespace {

/// Tracks the largest "optbuf_<k>" suffix seen in a replayed journal so
/// buffers created afterwards keep unique names.
std::size_t optbuf_suffix_plus_one(const std::string& name) {
  const std::string prefix = "optbuf_";
  if (name.rfind(prefix, 0) != 0) return 0;
  std::size_t value = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    value = value * 10 + static_cast<std::size_t>(name[i] - '0');
  }
  return value + 1;
}

}  // namespace

ShellSession::ShellSession()
    : library_(make_default_library()),
      table_(default_aocv_table()),
      setups_(default_corner_setups(table_)) {}

// The loaders below read their file into locals, and build whatever the
// new input needs, before they tear anything down: a file they reject, by
// an InputError or an error string, leaves the session as it was.

std::string ShellSession::load_library(const std::string& path) try {
  if (journal_.in_transaction()) {
    return "read_library: close the open ECO transaction first";
  }
  std::ifstream in(path);
  if (!in) return "cannot open library " + path;
  Library library = read_library(in, path);
  eco_view_.reset();  // snapshots must not outlive the timer they reference
  pinned_snapshots_.clear();
  path_hub_.reset();  // engines pin snapshots of the old timer
  timer_.reset();  // references the old library via the design
  design_.reset();
  library_ = std::move(library);
  journal_ = EcoJournal{};
  committed_snapshots_.clear();
  return "";
} catch (const InputError& e) {
  return e.what();
}

std::string ShellSession::load_derates(const std::string& path) try {
  if (journal_.in_transaction()) {
    return "read_derates: close the open ECO transaction first";
  }
  if (multi_corner()) {
    return "read_derates: load derates before read_corners (corner tables "
           "are derived from the base table)";
  }
  std::ifstream in(path);
  if (!in) return "cannot open derate table " + path;
  table_ = read_derate_table(in, path);
  setups_ = default_corner_setups(table_);
  if (loaded()) {
    install_corner_derates(*timer_, setups_);
    timer_->update_timing();
  }
  return "";
} catch (const InputError& e) {
  return e.what();
}

std::string ShellSession::load(const LoadRequest& request) try {
  if (journal_.in_transaction()) {
    return "read_netlist: close the open ECO transaction first";
  }
  if (!(request.utilization > 0.0)) return "utilization must be > 0";

  // A design read from a file names it in the errors of its design rules.
  const std::string where =
      request.netlist_path.empty() ? "" : request.netlist_path + ": ";
  std::string clock_port = "CLK";
  std::unique_ptr<Design> design;
  if (!request.netlist_path.empty()) {
    const std::string& path = request.netlist_path;
    std::ifstream in(path);
    if (!in) return "cannot open netlist " + path;
    if (path.ends_with(".v")) {
      design = std::make_unique<Design>(read_verilog(library_, in, path));
      // Verilog carries no placement; synthesize one so wire delays exist.
      scatter_placement(*design, request.seed);
    } else {
      design = std::make_unique<Design>(read_netlist(library_, in, path));
    }
  } else if (request.design > 0) {
    if (request.design > 10) return "-design expects 1..10";
    GeneratedDesign generated =
        generate_design(library_, benchmark_design_options(request.design));
    design = std::make_unique<Design>(std::move(generated.design));
    clock_port = generated.clock_port;
  } else if (request.gates > 0) {
    GeneratorOptions options;
    options.num_gates = request.gates;
    if (request.flops > 0) options.num_flops = request.flops;
    if (request.depth > 0) options.target_depth = request.depth;
    options.seed = request.seed;
    GeneratedDesign generated = generate_design(library_, options);
    design = std::make_unique<Design>(std::move(generated.design));
    clock_port = generated.clock_port;
  } else {
    return "read_netlist: give a file, -design N, or -gates N";
  }

  TimingConstraints constraints;
  constraints.clock_port = clock_port;
  bool sdc_period = false;
  if (!request.sdc_path.empty()) {
    std::ifstream in(request.sdc_path);
    if (!in) return "cannot open SDC " + request.sdc_path;
    constraints = read_sdc(in, request.sdc_path, constraints, &sdc_period);
  }
  if (!request.clock_port.empty()) constraints.clock_port = request.clock_port;
  if (request.uncertainty_ps.has_value()) {
    constraints.clock_uncertainty_ps = *request.uncertainty_ps;
  }

  // The graph build rejects a missing clock port, a combinational cycle or
  // a clock pin off the clock tree, so the new timer is built before the
  // teardown.
  std::unique_ptr<Timer> timer;
  try {
    if (request.period_ps.has_value()) {
      constraints.clock_period_ps = *request.period_ps;
    } else if (!sdc_period) {
      // Derive the period from the golden critical path at the requested
      // utilization. An SDC's create_clock period stands.
      constraints.clock_period_ps = 1e9;
      Timer probe(*design, constraints);
      probe.set_instance_derates(compute_gba_derates(probe.graph(), table_));
      probe.update_timing();
      constraints.clock_period_ps =
          choose_clock_period(probe, table_, request.utilization);
    }
    timer = std::make_unique<Timer>(*design, constraints);
  } catch (const InputError& e) {
    return where + e.what();
  }

  // Tear down the old session before the new design replaces it. Any
  // pinned snapshots reference the old timer and must go first.
  eco_view_.reset();
  pinned_snapshots_.clear();
  path_hub_.reset();
  timer_.reset();
  design_ = std::move(design);
  timer_ = std::move(timer);
  constraints_ = std::move(constraints);
  journal_ = EcoJournal{};
  committed_snapshots_.clear();
  buffers_named_ = 0;
  setups_ = default_corner_setups(table_);
  install_corner_derates(*timer_, setups_);
  timer_->update_timing();
  return "";
} catch (const InputError& e) {
  return e.what();
}

std::string ShellSession::load_corners(const std::string& path) try {
  if (!loaded()) return "no design loaded (read_netlist first)";
  if (journal_.in_transaction()) {
    return "read_corners: close the open ECO transaction first";
  }
  std::ifstream in(path);
  if (!in) return "cannot open corner spec " + path;
  setups_ = read_corners(in, table_, path);
  // The corner set (and with it the arena shape) changes wholesale; any
  // existing engines were keyed against the old corner ids.
  path_hub_.reset();
  apply_corner_setups(*timer_, setups_);
  timer_->update_timing();
  return "";
} catch (const InputError& e) {
  return e.what();
}

std::string ShellSession::sink_spec(const Terminal& t) const {
  if (t.kind == Terminal::Kind::Port) return design_->port(t.id).name;
  const Instance& inst = design_->instance(t.id);
  const LibCell& cell = design_->library().cell(inst.cell);
  return inst.name + "/" + cell.pins[t.pin].name;
}

std::string ShellSession::resolve_sink(NetId net, const std::string& spec,
                                       Terminal& out) const {
  const auto slash = spec.rfind('/');
  if (slash == std::string::npos) {
    const auto port = design_->find_port(spec);
    if (!port.has_value()) return "no port named '" + spec + "'";
    out = Terminal::port(*port);
  } else {
    const std::string inst_name = spec.substr(0, slash);
    const std::string pin_name = spec.substr(slash + 1);
    const auto inst = design_->find_instance(inst_name);
    if (!inst.has_value()) return "no instance named '" + inst_name + "'";
    const LibCell& cell = design_->cell_of(*inst);
    const auto pin = cell.find_pin(pin_name);
    if (!pin.has_value()) {
      return "cell " + cell.name + " has no pin '" + pin_name + "'";
    }
    out = Terminal::instance_pin(*inst, static_cast<std::uint32_t>(*pin));
  }
  for (const Terminal& s : design_->net(net).sinks) {
    if (s == out) return "";
  }
  return "'" + spec + "' is not a sink of net '" + design_->net(net).name +
         "'";
}

std::string ShellSession::size_cell(const std::string& inst_name,
                                    const std::string& cell_name) {
  if (!loaded()) return "no design loaded (read_netlist first)";
  const auto inst = design_->find_instance(inst_name);
  if (!inst.has_value()) return "no instance named '" + inst_name + "'";
  const auto cell = library_.find_cell(cell_name);
  if (!cell.has_value()) return "no library cell named '" + cell_name + "'";
  const LibCell& old_cell = design_->cell_of(*inst);
  const LibCell& new_cell = library_.cell(*cell);
  if (old_cell.footprint != new_cell.footprint) {
    return str_format("cannot swap %s (%s) to %s: footprints differ",
                      inst_name.c_str(), old_cell.name.c_str(),
                      new_cell.name.c_str());
  }
  if (old_cell.kind == CellKind::FlipFlop) {
    return "refusing to size flip-flop " + inst_name;
  }
  if (std::string err = design_->resize_error(*inst, *cell); !err.empty()) {
    return err;
  }

  EcoRecord r;
  r.kind = EcoRecord::Kind::Resize;
  r.inst = inst_name;
  r.old_cell = old_cell.name;
  r.new_cell = new_cell.name;
  journal_.record(std::move(r));

  design_->resize_instance(*inst, *cell);
  timer_->invalidate_instance(*inst);
  timer_->update_timing();
  return "";
}

std::string ShellSession::insert_buffer(const std::string& net_name,
                                        const std::string& sink_spec_in,
                                        const std::string& cell_name,
                                        std::string& buffer_name) {
  if (!loaded()) return "no design loaded (read_netlist first)";
  const auto net = design_->find_net(net_name);
  if (!net.has_value()) return "no net named '" + net_name + "'";
  const Net& n = design_->net(*net);
  if (!n.driver.has_value()) return "net '" + net_name + "' has no driver";

  Terminal sink;
  if (std::string err = resolve_sink(*net, sink_spec_in, sink); !err.empty()) {
    return err;
  }

  std::optional<std::size_t> cell;
  if (cell_name.empty()) {
    cell = library_.strongest_buffer();
    if (!cell.has_value()) return "library has no buffer cell";
  } else {
    cell = library_.find_cell(cell_name);
    if (!cell.has_value()) return "no library cell named '" + cell_name + "'";
    if (library_.cell(*cell).kind != CellKind::Buffer) {
      return "cell " + cell_name + " is not a buffer";
    }
  }

  const Point driver_loc = design_->terminal_location(*n.driver);
  const Point sink_loc = design_->terminal_location(sink);
  const Point midpoint{(driver_loc.x + sink_loc.x) / 2.0,
                       (driver_loc.y + sink_loc.y) / 2.0};
  buffer_name = str_format("optbuf_%zu", buffers_named_++);

  EcoRecord r;
  r.kind = EcoRecord::Kind::InsertBuffer;
  r.net = net_name;
  r.sink = sink_spec_in;
  r.new_cell = library_.cell(*cell).name;
  r.inst = buffer_name;
  r.x = midpoint.x;
  r.y = midpoint.y;
  journal_.record(std::move(r));

  const InstanceId buffer =
      design_->insert_buffer_for_sink(*net, sink, *cell, buffer_name, midpoint);
  // One interactive buffer needs no persistent depth state: the graph is
  // patched, the derates are re-derived from scratch.
  timer_->buffer_inserted(buffer);
  install_corner_derates(*timer_, setups_);
  timer_->update_timing();
  return "";
}

std::string ShellSession::optimize(OptimizerOptions options,
                                   OptimizerReport& report) {
  if (!loaded()) return "no design loaded (read_netlist first)";
  options.buffer_name_prefix = "optbuf";
  options.buffer_name_start = buffers_named_;
  TimingCloser closer(*design_, *timer_, table_, std::move(options));
  closer.set_corner_setups(setups_);
  closer.set_transform_listener(this);
  report = closer.run();
  buffers_named_ = closer.buffers_named();
  return "";
}

std::string ShellSession::fit(MgbaFlowOptions options, bool all_corners,
                              std::vector<MgbaFlowResult>& results) {
  if (!loaded()) return "no design loaded (read_netlist first)";
  if (all_corners) {
    results = run_mgba_flow_all_corners(*timer_, setups_, options, path_hub());
  } else {
    options.corner = kDefaultCorner;
    results = {run_mgba_flow(*timer_, setups_[0].table, options, path_hub())};
  }
  return "";
}

PathEngineHub* ShellSession::path_hub() {
  if (!loaded()) return nullptr;
  if (path_hub_ == nullptr) {
    path_hub_ = std::make_unique<PathEngineHub>(*timer_);
  }
  return path_hub_.get();
}

ShellSession::WeightSnapshot ShellSession::snapshot_weights() const {
  WeightSnapshot s;
  for (CornerId c = 0; c < timer_->num_corners(); ++c) {
    s.late.push_back(timer_->instance_weights(c));
    s.early.push_back(timer_->instance_weights_early(c));
  }
  return s;
}

void ShellSession::restore_weights(const WeightSnapshot& snapshot) {
  for (CornerId c = 0; c < timer_->num_corners(); ++c) {
    timer_->set_instance_weights(c, snapshot.late[c]);
    timer_->set_instance_weights_early(c, snapshot.early[c]);
  }
}

std::string ShellSession::begin_eco() {
  if (!loaded()) return "no design loaded (read_netlist first)";
  if (!journal_.begin()) return "an ECO transaction is already open";
  open_snapshot_ = snapshot_weights();
  // Pin the pre-ECO timing version: queries issued while the transaction
  // is open read this frozen view, never the half-mutated head.
  eco_view_ = timer_->snapshot();
  return "";
}

std::string ShellSession::end_eco(std::size_t& num_records) {
  if (!journal_.in_transaction()) return "no open ECO transaction";
  // A fit inside the transaction changed the installed mGBA weights; the
  // final vectors are the replayable summary of those fits (intermediate
  // vectors never influence design mutations, which journal separately).
  for (CornerId c = 0; c < timer_->num_corners(); ++c) {
    if (timer_->instance_weights(c) != open_snapshot_.late[c]) {
      EcoRecord r;
      r.kind = EcoRecord::Kind::Weights;
      r.corner = timer_->corner(c).name;
      r.early = false;
      r.values = timer_->instance_weights(c);
      journal_.record(std::move(r));
    }
    if (timer_->instance_weights_early(c) != open_snapshot_.early[c]) {
      EcoRecord r;
      r.kind = EcoRecord::Kind::Weights;
      r.corner = timer_->corner(c).name;
      r.early = true;
      r.values = timer_->instance_weights_early(c);
      journal_.record(std::move(r));
    }
  }
  num_records = journal_.open_records();
  MGBA_CHECK(journal_.end());
  committed_snapshots_.push_back(std::move(open_snapshot_));
  open_snapshot_ = WeightSnapshot{};
  eco_view_.reset();  // queries go back to reading the (committed) head
  return "";
}

std::shared_ptr<const TimingSnapshot> ShellSession::timing_view() const {
  if (journal_.in_transaction() && eco_view_ != nullptr) return eco_view_;
  return timer_->snapshot();
}

std::size_t ShellSession::take_snapshot() {
  pinned_snapshots_.emplace_back(next_snapshot_id_++, timer_->snapshot());
  return pinned_snapshots_.back().first;
}

std::string ShellSession::release_snapshot(std::size_t id) {
  const auto it =
      std::find_if(pinned_snapshots_.begin(), pinned_snapshots_.end(),
                   [id](const auto& entry) { return entry.first == id; });
  if (it == pinned_snapshots_.end()) {
    return str_format("no pinned snapshot with id %zu", id);
  }
  pinned_snapshots_.erase(it);
  return "";
}

std::string ShellSession::undo_eco() {
  if (journal_.in_transaction()) {
    return "close the open ECO transaction before undo_eco";
  }
  if (journal_.transactions().empty()) return "no ECO transaction to undo";

  // Validate the insert/remove pairing before mutating anything: every
  // buffer removal must undo an insertion from the same transaction (the
  // only way the shell and optimizer produce removals).
  const EcoTransaction& txn = journal_.transactions().back();
  {
    std::set<std::string> inserted;
    for (const EcoRecord& r : txn.records) {
      if (r.kind == EcoRecord::Kind::InsertBuffer) {
        inserted.insert(r.inst);
      } else if (r.kind == EcoRecord::Kind::RemoveBuffer) {
        if (inserted.count(r.inst) == 0) {
          return "cannot undo: buffer '" + r.inst +
                 "' was removed but not inserted in this transaction";
        }
      }
    }
  }

  const EcoTransaction undone = journal_.pop_back();
  WeightSnapshot snapshot = std::move(committed_snapshots_.back());
  committed_snapshots_.pop_back();

  bool structural = false;
  bool weights_touched = false;
  std::set<std::string> removed_later;
  std::vector<InstanceId> resized;
  for (auto it = undone.records.rbegin(); it != undone.records.rend(); ++it) {
    const EcoRecord& r = *it;
    switch (r.kind) {
      case EcoRecord::Kind::Resize: {
        const auto inst = design_->find_instance(r.inst);
        const auto cell = library_.find_cell(r.old_cell);
        MGBA_CHECK(inst.has_value() && cell.has_value());
        design_->resize_instance(*inst, *cell);
        resized.push_back(*inst);
        break;
      }
      case EcoRecord::Kind::InsertBuffer: {
        if (removed_later.erase(r.inst) > 0) break;  // insert+remove cancel
        const auto inst = design_->find_instance(r.inst);
        const auto net = design_->find_net(r.net);
        MGBA_CHECK(inst.has_value() && net.has_value());
        design_->remove_buffer(*inst, *net);
        structural = true;
        break;
      }
      case EcoRecord::Kind::RemoveBuffer:
        removed_later.insert(r.inst);
        break;
      case EcoRecord::Kind::Weights:
        weights_touched = true;
        break;
    }
  }
  MGBA_CHECK(removed_later.empty());  // guaranteed by the prescan

  if (weights_touched) restore_weights(snapshot);
  if (structural) {
    timer_->rebuild_graph();
    install_corner_derates(*timer_, setups_);
  } else {
    for (const InstanceId inst : resized) timer_->invalidate_instance(inst);
  }
  timer_->update_timing();
  return "";
}

std::string ShellSession::write_eco(const std::string& path) {
  if (journal_.in_transaction()) return "end_eco before write_eco";
  std::ofstream out(path);
  if (!out) return "cannot write " + path;
  journal_.write(out);
  return "";
}

std::string ShellSession::apply_record(const EcoRecord& r, bool& structural,
                                       std::vector<InstanceId>& resized) {
  switch (r.kind) {
    case EcoRecord::Kind::Resize: {
      const auto inst = design_->find_instance(r.inst);
      if (!inst.has_value()) return "no instance named '" + r.inst + "'";
      const auto old_cell = library_.find_cell(r.old_cell);
      const auto new_cell = library_.find_cell(r.new_cell);
      if (!old_cell.has_value() || !new_cell.has_value()) {
        return "unknown cell in resize record";
      }
      if (design_->instance(*inst).cell != *old_cell) {
        return str_format("journal mismatch: %s is %s, record expects %s",
                          r.inst.c_str(),
                          design_->cell_of(*inst).name.c_str(),
                          r.old_cell.c_str());
      }
      if (library_.cell(*new_cell).footprint !=
          library_.cell(*old_cell).footprint) {
        return "resize record crosses footprint families";
      }
      if (std::string err = design_->resize_error(*inst, *new_cell);
          !err.empty()) {
        return err;
      }
      design_->resize_instance(*inst, *new_cell);
      resized.push_back(*inst);
      return "";
    }
    case EcoRecord::Kind::InsertBuffer: {
      const auto net = design_->find_net(r.net);
      if (!net.has_value()) return "no net named '" + r.net + "'";
      Terminal sink;
      if (std::string err = resolve_sink(*net, r.sink, sink); !err.empty()) {
        return err;
      }
      const auto cell = library_.find_cell(r.new_cell);
      if (!cell.has_value() ||
          library_.cell(*cell).kind != CellKind::Buffer) {
        return "'" + r.new_cell + "' is not a buffer cell";
      }
      design_->insert_buffer_for_sink(*net, sink, *cell, r.inst,
                                      Point{r.x, r.y});
      buffers_named_ =
          std::max(buffers_named_, optbuf_suffix_plus_one(r.inst));
      structural = true;
      return "";
    }
    case EcoRecord::Kind::RemoveBuffer: {
      const auto inst = design_->find_instance(r.inst);
      const auto net = design_->find_net(r.net);
      if (!inst.has_value() || !net.has_value()) {
        return "unknown buffer or net in unbuffer record";
      }
      if (std::string err = design_->remove_buffer_error(*inst, *net);
          !err.empty()) {
        return err;
      }
      design_->remove_buffer(*inst, *net);
      structural = true;
      return "";
    }
    case EcoRecord::Kind::Weights: {
      const auto corner = timer_->find_corner(r.corner);
      if (!corner.has_value()) return "no corner named '" + r.corner + "'";
      if (r.early) {
        timer_->set_instance_weights_early(*corner, r.values);
      } else {
        timer_->set_instance_weights(*corner, r.values);
      }
      return "";
    }
  }
  return "corrupt journal record";
}

std::string ShellSession::replay_eco(const std::string& path,
                                     std::size_t& transactions,
                                     std::size_t& records) try {
  if (!loaded()) return "no design loaded (read_netlist first)";
  if (journal_.in_transaction()) {
    return "close the open ECO transaction before replay_eco";
  }
  std::ifstream in(path);
  if (!in) return "cannot open ECO journal " + path;
  std::vector<EcoTransaction> parsed = EcoJournal::read(in, path);

  transactions = 0;
  records = 0;
  for (EcoTransaction& txn : parsed) {
    WeightSnapshot snapshot = snapshot_weights();
    MGBA_CHECK(journal_.begin());
    bool structural = false;
    std::vector<InstanceId> resized;
    for (EcoRecord& r : txn.records) {
      if (std::string err = apply_record(r, structural, resized);
          !err.empty()) {
        // Commit what has been applied so the session stays consistent;
        // the caller learns the replay stopped here.
        journal_.end();
        committed_snapshots_.push_back(std::move(snapshot));
        timer_->rebuild_graph();
        install_corner_derates(*timer_, setups_);
        timer_->update_timing();
        return str_format("%s:%zu: replay stopped: %s", path.c_str(), r.line,
                          err.c_str());
      }
      journal_.record(std::move(r));
      ++records;
    }
    MGBA_CHECK(journal_.end());
    committed_snapshots_.push_back(std::move(snapshot));
    if (structural) {
      timer_->rebuild_graph();
      install_corner_derates(*timer_, setups_);
    } else {
      for (const InstanceId inst : resized) {
        timer_->invalidate_instance(inst);
      }
    }
    timer_->update_timing();
    ++transactions;
  }
  return "";
} catch (const InputError& e) {
  return e.what();
}

void ShellSession::on_resize(InstanceId inst, std::size_t old_cell,
                             std::size_t new_cell) {
  if (!journal_.in_transaction()) return;
  EcoRecord r;
  r.kind = EcoRecord::Kind::Resize;
  r.inst = design_->instance(inst).name;
  r.old_cell = library_.cell(old_cell).name;
  r.new_cell = library_.cell(new_cell).name;
  journal_.record(std::move(r));
}

void ShellSession::on_buffer_inserted(InstanceId buffer, NetId net,
                                      const Terminal& sink, std::size_t cell,
                                      Point location) {
  if (!journal_.in_transaction()) return;
  EcoRecord r;
  r.kind = EcoRecord::Kind::InsertBuffer;
  r.net = design_->net(net).name;
  r.sink = sink_spec(sink);
  r.new_cell = library_.cell(cell).name;
  r.inst = design_->instance(buffer).name;
  r.x = location.x;
  r.y = location.y;
  journal_.record(std::move(r));
}

void ShellSession::on_buffer_removed(InstanceId buffer, NetId net) {
  if (!journal_.in_transaction()) return;
  EcoRecord r;
  r.kind = EcoRecord::Kind::RemoveBuffer;
  r.inst = design_->instance(buffer).name;
  r.net = design_->net(net).name;
  journal_.record(std::move(r));
}

}  // namespace mgba::shell
