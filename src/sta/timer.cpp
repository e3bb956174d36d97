#include "sta/timer.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>

#include "sta/kernels.hpp"
#include "sta/query_ops.hpp"
#include "sta/snapshot.hpp"
#include "util/check.hpp"
#include "util/float_bits.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

namespace {
/// Weight factors are clamped so a pathological solver iterate can never
/// drive an effective delay negative.
constexpr double kMinWeightFactor = 0.05;
/// Minimum incremental-frontier bucket chunk handed to the pool; smaller
/// buckets run inline on the caller's thread (most frontier levels are a
/// handful of nodes — dispatch would cost more than the recompute).
constexpr std::size_t kIncrementalGrain = 32;

/// True when \p next differs from \p prev only at the instances listed in
/// \p moved; entries past a vector's end are identity (the debug check of
/// the moved-instance derate installs).
[[maybe_unused]] bool derates_differ_only_at(
    const std::vector<DeratePair>& prev, const std::vector<DeratePair>& next,
    std::span<const InstanceId> moved) {
  std::vector<std::uint8_t> listed(std::max(prev.size(), next.size()), 0);
  for (const InstanceId i : moved) {
    if (i < listed.size()) listed[i] = 1;
  }
  const auto at = [](const std::vector<DeratePair>& v, std::size_t i) {
    return i < v.size() ? v[i] : DeratePair{};
  };
  for (std::size_t i = 0; i < listed.size(); ++i) {
    if (listed[i] != 0) continue;
    const DeratePair a = at(prev, i);
    const DeratePair b = at(next, i);
    if (float_bits(a.late) != float_bits(b.late) ||
        float_bits(a.early) != float_bits(b.early)) {
      return false;
    }
  }
  return true;
}
}  // namespace

/// Checkpoint state of one open TrialScope: a COW fork of the arena
/// (begin is O(1), and head writes privatize only the chunks they touch —
/// the same machinery snapshots use), plus the graph and every derived
/// table a buffer patch or rebuild_graph replaces; the graph, statics,
/// derates, launch sets and endpoint exceptions are refcounted, the
/// per-port delays are plain copies. Weights and the corner set are not
/// part of it: installing either while a trial is open is an
/// internal-invariant violation (MGBA_CHECK), so a rollback always
/// restores exactly.
struct Timer::TrialState {
  std::vector<InstanceId> dirty_at_begin;
  std::vector<NodeId> seed_forward_at_begin;
  std::vector<NodeId> seed_backward_at_begin;
  bool dirty_full_at_begin = false;
  TimingData data;
  std::shared_ptr<TimingGraph> graph;
  std::shared_ptr<GraphStatics> statics;
  std::vector<std::shared_ptr<const std::vector<DeratePair>>> derates;
  std::shared_ptr<const std::vector<std::uint64_t>> launch_sets;
  std::size_t launch_words = 0;
  std::vector<double> port_input_delay;
  std::vector<double> port_output_delay;
  std::shared_ptr<const EndpointExceptions> exceptions;
};

Timer::Timer(const Design& design, TimingConstraints constraints,
             WireModel wire)
    : design_(&design),
      constraints_(std::move(constraints)),
      delay_(design, wire) {
  derates_.assign(corners_.size(),
                  std::make_shared<const std::vector<DeratePair>>());
  weights_.resize(corners_.size());
  weights_early_.resize(corners_.size());
  rebuild_graph();
}

Timer::~Timer() = default;

void Timer::set_corners(std::vector<AnalysisCorner> corners) {
  MGBA_CHECK(!corners.empty());
  // The checkpoint's arena has the old lane count; no trial may span a
  // corner-set change.
  MGBA_CHECK(!trial_ && "corner-set change inside a trial");
  // Corner 0's configuration seeds every corner of the new set; callers
  // refine per corner afterwards (per-corner derate tables, fits).
  const std::shared_ptr<const std::vector<DeratePair>> seed_derates =
      derates_.empty() ? std::make_shared<const std::vector<DeratePair>>()
                       : derates_[0];
  const std::vector<double> seed_weights =
      weights_.empty() ? std::vector<double>{} : weights_[0];
  const std::vector<double> seed_weights_early =
      weights_early_.empty() ? std::vector<double>{} : weights_early_[0];
  corners_ = std::move(corners);
  derates_.assign(corners_.size(), seed_derates);
  weights_.assign(corners_.size(), seed_weights);
  weights_early_.assign(corners_.size(), seed_weights_early);
  allocate_storage();
  // Entries encode their lane's corner scaling: start the memo over.
  delay_cache_.resize(corners_.size() * kNumModes, graph_->num_arcs());
  dirty_full_ = true;
  clear_pending();
  poison_eco();  // per-corner golden slacks all moved
}

std::optional<CornerId> Timer::find_corner(std::string_view name) const {
  for (std::size_t c = 0; c < corners_.size(); ++c) {
    if (corners_[c].name == name) return static_cast<CornerId>(c);
  }
  return std::nullopt;
}

void Timer::set_instance_derates(
    std::vector<DeratePair> derates,
    std::optional<std::span<const InstanceId>> moved) {
  MGBA_DCHECK(!moved ||
              std::ranges::all_of(derates_, [&](const auto& per_corner) {
                return derates_differ_only_at(*per_corner, derates, *moved);
              }));
  // Published inner vectors are immutable (snapshots share them); install
  // one fresh shared vector across every corner.
  const auto shared =
      std::make_shared<const std::vector<DeratePair>>(std::move(derates));
  for (auto& per_corner : derates_) per_corner = shared;
  derates_installed(moved);
}

void Timer::set_corner_derates(
    CornerId corner, std::vector<DeratePair> derates,
    std::optional<std::span<const InstanceId>> moved) {
  MGBA_CHECK(corner < derates_.size());
  MGBA_DCHECK(!moved ||
              derates_differ_only_at(*derates_[corner], derates, *moved));
  derates_[corner] =
      std::make_shared<const std::vector<DeratePair>>(std::move(derates));
  derates_installed(moved);
}

void Timer::derates_installed(
    std::optional<std::span<const InstanceId>> moved) {
  fac_derate_dirty_ = true;
  poison_eco();  // every matrix entry a_ij = d_j * lambda_j moved
  if (!moved) {
    dirty_full_ = true;
    return;
  }
  // A derate scales the delays of the instance's own cell arcs, all of
  // which drive its output pins: re-evaluating those nodes re-applies it.
  // Clock-network delays feed the CRPR credits, which only the full
  // update recomputes.
  for (const InstanceId inst : *moved) {
    if (inst >= statics_->num_instances()) continue;
    for (const ArcId a : statics_->instance_arcs(inst)) {
      const NodeId to = graph_->arc(a).to;
      if (graph_->node(to).is_clock_network) {
        dirty_full_ = true;
        return;
      }
      seed_forward_.push_back(to);
    }
  }
}

void Timer::set_instance_weights(std::vector<double> weights) {
  set_instance_weights(kDefaultCorner, std::move(weights));
}

void Timer::set_instance_weights(CornerId corner,
                                 std::vector<double> weights) {
  MGBA_CHECK(corner < weights_.size());
  // Weights are not part of the checkpoint, so a rollback could not undo
  // them; no trial may span a weight install.
  MGBA_CHECK(!trial_ && "weight install inside a trial");
  weights_[corner] = std::move(weights);
  dirty_full_ = true;
  fac_weight_dirty_ = true;
}

void Timer::set_instance_weights_early(std::vector<double> weights) {
  set_instance_weights_early(kDefaultCorner, std::move(weights));
}

void Timer::set_instance_weights_early(CornerId corner,
                                       std::vector<double> weights) {
  MGBA_CHECK(corner < weights_early_.size());
  MGBA_CHECK(!trial_ && "weight install inside a trial");
  weights_early_[corner] = std::move(weights);
  dirty_full_ = true;
  fac_weight_dirty_ = true;
}

void Timer::invalidate_instance(InstanceId inst) {
  // Stale memo entries must be dropped even when this call escalates to a
  // full update below: the delay cache persists across full propagations.
  invalidate_cache_for(inst);
  // The instance's cell (and with it the arc keys / weight-gather indices
  // the full sweeps cache) may have changed.
  arc_statics_dirty_ = true;

  // CRPR credits are cached across incremental updates on the assumption
  // that clock-network delays do not change; a mutation touching a clock
  // cell — or changing the load on a net the clock network drives —
  // breaks that, so fall back to a full update (which recomputes the
  // credits).
  for (const ArcId a : statics_->instance_arcs(inst)) {
    if (graph_->node(graph_->arc(a).to).is_clock_network) {
      dirty_full_ = true;
      poison_eco();  // clock arrivals move: every row is stale
      return;
    }
  }
  const Instance& instance = design_->instance(inst);
  const LibCell& cell = design_->library().cell(instance.cell);
  for (std::size_t p = 0; p < instance.pin_nets.size(); ++p) {
    if (instance.pin_nets[p] == kInvalidId) continue;
    if (cell.pins[p].direction != PinDirection::Input) continue;
    const Net& net = design_->net(instance.pin_nets[p]);
    if (net.driver && net.driver->kind == Terminal::Kind::InstancePin) {
      const NodeId drv = graph_->node_of_pin(net.driver->id, net.driver->pin);
      if (drv != kInvalidNode && graph_->node(drv).is_clock_network) {
        dirty_full_ = true;
        poison_eco();
        return;
      }
    }
  }

  // Optimizer passes re-touch the same instance several times per pass
  // (trial, accept, neighborhood re-trial); without dedup the seed list —
  // and with it the incremental frontier — grows with every touch. A flag
  // per instance keeps a batch of k touches O(k).
  if (dirty_flag_.size() < design_->num_instances()) {
    dirty_flag_.resize(design_->num_instances(), 0);
  }
  if (!dirty_flag_[inst]) {
    dirty_flag_[inst] = 1;
    dirty_instances_.push_back(inst);
  }

  // The ECO record outlives update_timing(), so it keeps its own stamps.
  if (eco_touch_stamp_.size() < design_->num_instances()) {
    eco_touch_stamp_.resize(design_->num_instances(), 0);
  }
  eco_touch_stamp_[inst] = ++eco_clock_;
}

void Timer::clear_pending() {
  for (const InstanceId inst : dirty_instances_) dirty_flag_[inst] = 0;
  dirty_instances_.clear();
  seed_forward_.clear();
  seed_backward_.clear();
}

void Timer::eco_touched_since(EcoMark mark,
                              std::vector<InstanceId>& out) const {
  out.clear();
  for (std::size_t i = 0; i < eco_touch_stamp_.size(); ++i) {
    if (eco_touch_stamp_[i] > mark) out.push_back(static_cast<InstanceId>(i));
  }
}

void Timer::rebuild_graph() {
  // Node/arc ids change wholesale, and a consumer's rows speak in the old
  // ids — poison the ECO record. An open trial holds the old graph and
  // tables and stays valid.
  poison_eco();
  // Fresh graph object: snapshots taken against the old one keep it alive.
  const std::shared_ptr<const TimingGraph> old_graph = graph_;
  graph_ = std::make_shared<TimingGraph>(*design_, constraints_.clock_port);
  ++state_version_;
  if (old_graph) {
    carry_delay_memo(*old_graph);
  } else {
    delay_cache_.resize(corners_.size() * kNumModes, graph_->num_arcs());
  }
  allocate_storage();
  compute_instance_arcs();
  compute_launch_sets();

  // Resolve per-port external delays once per structure.
  port_input_delay_.assign(design_->num_ports(), constraints_.input_delay_ps);
  port_output_delay_.assign(design_->num_ports(),
                            constraints_.output_delay_ps);
  for (std::size_t p = 0; p < design_->num_ports(); ++p) {
    const std::string& name = design_->port(static_cast<PortId>(p)).name;
    if (const auto it = constraints_.input_delay_overrides.find(name);
        it != constraints_.input_delay_overrides.end()) {
      port_input_delay_[p] = it->second;
    }
    if (const auto it = constraints_.output_delay_overrides.find(name);
        it != constraints_.output_delay_overrides.end()) {
      port_output_delay_[p] = it->second;
    }
  }

  // Resolve endpoint-scoped timing exceptions by name, per check and per
  // output port.
  const auto& checks = graph_->checks();
  auto exceptions = std::make_shared<EndpointExceptions>();
  exceptions->check.assign(checks.size(), {});
  exceptions->port.assign(design_->num_ports(), {});
  if (!constraints_.false_path_endpoints.empty() ||
      !constraints_.multicycle_endpoints.empty()) {
    const auto resolve = [&](NodeId endpoint, EndpointException& out) {
      const std::string name = graph_->node_name(endpoint);
      out.false_path = constraints_.false_path_endpoints.count(name) > 0;
      if (const auto it = constraints_.multicycle_endpoints.find(name);
          it != constraints_.multicycle_endpoints.end()) {
        MGBA_CHECK(it->second >= 1);
        out.multicycle = it->second;
      }
    };
    for (std::size_t c = 0; c < checks.size(); ++c) {
      resolve(checks[c].data_node, exceptions->check[c]);
    }
    for (std::size_t p = 0; p < design_->num_ports(); ++p) {
      const auto port = static_cast<PortId>(p);
      const NodeId node = graph_->node_of_port(port);
      if (node != kInvalidNode &&
          design_->port(port).direction == PortDirection::Output) {
        resolve(node, exceptions->port[p]);
      }
    }
  }
  exceptions_ = std::move(exceptions);

  dirty_full_ = true;
  clear_pending();
}

std::optional<BufferPatch> Timer::buffer_inserted(InstanceId buffer) {
  if (!graph_->buffer_site(buffer).has_value()) {
    rebuild_graph();
    return std::nullopt;
  }
  // rebuild_graph's bookkeeping: ids move, so the ECO record is poisoned;
  // an open trial keeps the old tables.
  poison_eco();
  BufferPatch patch;
  graph_ = std::make_shared<TimingGraph>(*graph_, buffer, patch);
  ++state_version_;
  patch_delay_memo(patch);
  // The arena and its pending work (told resizes, seeds) carry over; when
  // a full update is due anyway, it rewrites every slot and clears them.
  carry_storage(std::move(data_), patch);
  patch_instance_arcs(patch);
  // A data-net buffer changes neither which launches reach a check nor
  // the check order: the CRPR launch-set table stays valid as it is, and
  // so do the per-port delays and the endpoint exceptions.

  // Seeds of the next update. Forward: D (its load moved), and A, Y and S,
  // whose fanin is new — A and Y start from the fill values. N's other
  // sinks keep their wires; the frontier reaches them through D when D
  // moves. Backward: the from-nodes of the three new arcs, explicitly —
  // the arc-changed flag misses a new arc whose delay equals the fill
  // value 0.0 (a zero-length wire). A data-net buffer changes neither the
  // clock network nor the checks, so the CRPR credits and launch sets need
  // nothing.
  for (NodeId& u : seed_forward_) u = patch.node_map[u];
  for (NodeId& u : seed_backward_) u = patch.node_map[u];
  seed_forward_.push_back(patch.driver);
  seed_forward_.push_back(patch.buf_in);
  seed_forward_.push_back(patch.buf_out);
  seed_forward_.push_back(patch.sink);
  seed_backward_.push_back(patch.driver);
  seed_backward_.push_back(patch.buf_in);
  seed_backward_.push_back(patch.buf_out);
  return patch;
}

void Timer::allocate_storage() {
  const std::size_t n = graph_->num_nodes();
  const std::size_t a = graph_->num_arcs();
  data_.resize(corners_.size(), n, a, graph_->checks().size());
  for (std::size_t c = 0; c < corners_.size(); ++c) {
    const double boundary_slew =
        constraints_.input_slew_ps * corners_[c].scaling.slew;
    for (int m = 0; m < kNumModes; ++m) {
      const std::size_t base = data_.node_index(c, m, 0);
      const double req_init = m == idx(Mode::Late) ? kInfPs : -kInfPs;
      data_.slew.fill_range(base, base + n, boundary_slew);
      data_.required.fill_range(base, base + n, req_init);
    }
  }
  resize_incremental_scratch();
}

void Timer::carry_storage(TimingData before, const BufferPatch& patch) {
  const std::size_t lanes = corners_.size() * kNumModes;
  const std::size_t n = graph_->num_nodes();
  const std::size_t a = graph_->num_arcs();
  MGBA_DCHECK(before.num_nodes == patch.node_map.size() &&
              before.num_arcs == patch.arc_map.size() &&
              before.num_checks == graph_->checks().size());
  data_.num_corners = corners_.size();
  data_.num_nodes = n;
  data_.num_arcs = a;
  data_.num_checks = graph_->checks().size();
  data_.check = std::move(before.check);  // the check order is unchanged

  // Maximal runs of consecutive old ids mapped to consecutive new ids:
  // the unmoved ids, the moved range in the few runs its re-sorted levels
  // leave, and the tail; a lane moves in a handful of copies, and whole
  // chunks at unmoved offsets are shared, not copied.
  struct Run {
    std::size_t from, to, len;
  };
  const auto runs_of = [](std::span<const std::uint32_t> map,
                          std::size_t first, std::size_t tail,
                          std::size_t shift) {
    std::vector<Run> runs;
    if (first > 0) runs.push_back({0, 0, first});
    for (std::size_t o = first; o < tail;) {
      if (map[o] == kInvalidArc) {
        ++o;
        continue;
      }
      std::size_t len = 1;
      while (o + len < tail && map[o + len] == map[o] + len) ++len;
      runs.push_back({o, map[o], len});
      o += len;
    }
    if (tail < map.size()) {
      runs.push_back({tail, tail + shift, map.size() - tail});
    }
    return runs;
  };
  const std::vector<Run> node_runs =
      runs_of(patch.node_map, patch.first_moved_node, patch.tail_node, 2);
  const std::vector<Run> arc_runs =
      runs_of(patch.arc_map, patch.first_moved_arc, patch.tail_arc,
              patch.arc_shift());
  const auto carry = [&](CowVec<double>& to, const CowVec<double>& from,
                         const std::vector<Run>& runs, std::size_t old_size,
                         std::size_t new_size) {
    to.assign_for_overwrite(lanes * new_size);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (const Run& r : runs) {
        to.copy_from(from, lane * old_size + r.from, lane * new_size + r.to,
                     r.len);
      }
    }
  };
  carry(data_.arrival, before.arrival, node_runs, before.num_nodes, n);
  carry(data_.slew, before.slew, node_runs, before.num_nodes, n);
  carry(data_.required, before.required, node_runs, before.num_nodes, n);
  carry(data_.arc_delay, before.arc_delay, arc_runs, before.num_arcs, a);
  carry(data_.arc_delay_base, before.arc_delay_base, arc_runs,
        before.num_arcs, a);

  // A, Y and the new arcs (the fanins of A, Y and S) take the fill values
  // allocate_storage writes.
  for (std::size_t c = 0; c < corners_.size(); ++c) {
    const double boundary_slew =
        constraints_.input_slew_ps * corners_[c].scaling.slew;
    for (int m = 0; m < kNumModes; ++m) {
      const double req_init = m == idx(Mode::Late) ? kInfPs : -kInfPs;
      for (const NodeId u : {patch.buf_in, patch.buf_out}) {
        const std::size_t at = data_.node_index(c, m, u);
        data_.arrival.fill_range(at, at + 1, 0.0);
        data_.slew.fill_range(at, at + 1, boundary_slew);
        data_.required.fill_range(at, at + 1, req_init);
      }
      for (const NodeId u : {patch.buf_in, patch.buf_out, patch.sink}) {
        const std::size_t a0 = data_.arc_index(c, m, graph_->fanin_begin(u));
        const std::size_t a1 =
            data_.arc_index(c, m, graph_->fanin_begin(u + 1));
        data_.arc_delay.fill_range(a0, a1, 0.0);
        data_.arc_delay_base.fill_range(a0, a1, 0.0);
      }
    }
  }
  resize_incremental_scratch();
}

void Timer::carry_delay_memo(const TimingGraph& old_graph) {
  MGBA_DCHECK(delay_cache_.num_arcs() == old_graph.num_arcs());
  std::vector<ArcId> carried_from(graph_->num_arcs(), kInvalidArc);
  // An arc survives when the old graph has an arc of the same kind between
  // the same two terminals over the same instance and lib arc (cell) or
  // the same net (net). Its entries move only if the inputs the memo key
  // leaves out are bit-equal to the ones they were computed under; the
  // cell and input slew are re-checked by every lookup.
  std::vector<NodeId> old_node(graph_->num_nodes());
  for (NodeId u = 0; u < graph_->num_nodes(); ++u) {
    old_node[u] = old_graph.find_node(graph_->node(u).terminal);
  }
  // Arcs are ordered by destination, and the cell arcs into one output pin
  // all drive its net: cell_in holds that load for node cell_in_to.
  NodeId cell_in_to = kInvalidNode;
  ArcInputs cell_in;
  for (ArcId a = 0; a < graph_->num_arcs(); ++a) {
    const TimingArc& arc = graph_->arc(a);
    const NodeId to = old_node[arc.to];
    const NodeId from = old_node[arc.from];
    if (to == kInvalidNode || from == kInvalidNode) continue;
    for (const ArcId o : old_graph.fanin(to)) {
      const TimingArc& old = old_graph.arc(o);
      if (old.from != from || old.kind != arc.kind) continue;
      const bool same = arc.kind == TimingArc::Kind::Cell
                            ? old.inst == arc.inst && old.lib_arc == arc.lib_arc
                            : old.net == arc.net;
      if (!same) continue;
      ArcInputs now;
      if (arc.kind == TimingArc::Kind::Net) {
        now = delay_.inputs(*graph_, a);
      } else {
        if (cell_in_to != arc.to) {
          cell_in = delay_.inputs(*graph_, a);
          cell_in_to = arc.to;
        }
        now = cell_in;
      }
      if (delay_cache_.inputs[o].same_bits(now)) carried_from[a] = o;
      break;
    }
  }
  delay_cache_.carry(corners_.size() * kNumModes, carried_from);
}

void Timer::patch_delay_memo(const BufferPatch& patch) {
  const std::size_t lanes = corners_.size() * kNumModes;
  delay_cache_.patch(lanes, patch);
  // Every entry carry_delay_memo would keep moved with its arc. Live
  // entries were computed under their arc's current inputs (invalidation
  // drops an arc whose inputs move, record and all), and of those inputs
  // only net N's load moved: D's cell arcs, which all drive N, keep their
  // entries only if their record still matches.
  const auto driver_arcs = graph_->fanin(patch.driver);
  if (driver_arcs.empty()) return;  // D is an input port
  const ArcInputs now = delay_.inputs(*graph_, driver_arcs.front());
  for (const ArcId a : driver_arcs) {
    if (!delay_cache_.inputs[a].same_bits(now)) {
      delay_cache_.invalidate_arc(lanes, a);
    }
  }
}

void Timer::resize_incremental_scratch() {
  // The level buckets are empty between sweeps; keeping them keeps their
  // capacity.
  frontier_.resize(graph_->num_levels());
  on_frontier_.assign(graph_->num_nodes(), false);
  arc_changed_scratch_.assign(graph_->num_arcs(), 0);
  backward_seeded_.assign(graph_->num_nodes(), false);
  backward_seeds_.clear();
  touched_checks_.clear();
  sweep_tables_stale_ = true;
}

void Timer::size_sweep_tables() {
  sweep_tables_stale_ = false;
  const std::size_t lanes = corners_.size() * kNumModes;
  const std::size_t num_arcs = graph_->num_arcs();
  arc_from_.resize(num_arcs);
  arc_key_.assign(num_arcs, DelayCache::kEmptyKey);
  arc_widx_.assign(num_arcs, 0);
  for (ArcId a = 0; a < num_arcs; ++a) arc_from_[a] = graph_->arc(a).from;
  const std::span<const ArcId> pool = graph_->fanout_pool();
  fo_to_.resize(pool.size());
  for (std::size_t p = 0; p < pool.size(); ++p) {
    fo_to_[p] = graph_->arc(pool[p]).to;
  }
  max_level_fanin_ = 0;
  max_level_fanout_ = 0;
  for (std::size_t l = 0; l < graph_->num_levels(); ++l) {
    const auto [a0, a1] = graph_->level_arc_range(l);
    max_level_fanin_ = std::max(max_level_fanin_, std::size_t{a1 - a0});
    const auto [u0, u1] = graph_->level_range(l);
    max_level_fanout_ = std::max(
        max_level_fanout_,
        std::size_t{graph_->fanout_begin(u1) - graph_->fanout_begin(u0)});
  }
  const std::size_t wide = std::max(max_level_fanin_, max_level_fanout_);
  lvl_a_.resize(wide);
  lvl_b_.resize(wide);
  lvl_c_.resize(wide);
  lvl_d_.resize(max_level_fanin_);
  lvl_e_.resize(max_level_fanin_);
  lvl_f_.resize(max_level_fanin_);
  lvl_hit_.resize(max_level_fanin_);
  fac_derate_.assign(lanes * num_arcs, 1.0);
  fac_weight_.assign(lanes * num_arcs, 1.0);
  fac_derate_dirty_ = true;
  fac_weight_dirty_ = true;
  arc_statics_dirty_ = true;
}

void Timer::compute_instance_arcs() {
  // Fresh bundle every structural pass: snapshots holding the previous
  // one keep it alive by refcount; the head never mutates a shared one.
  // Counting placement in ascending arc id: each instance's run ascends.
  auto statics = std::make_shared<GraphStatics>();
  const std::size_t num_instances = design_->num_instances();
  std::vector<std::uint32_t>& begin = statics->arc_begin;
  begin.assign(num_instances + 1, 0);
  for (ArcId a = 0; a < graph_->num_arcs(); ++a) {
    const TimingArc& arc = graph_->arc(a);
    if (arc.kind == TimingArc::Kind::Cell) ++begin[arc.inst + 1];
  }
  for (std::size_t i = 0; i < num_instances; ++i) begin[i + 1] += begin[i];
  statics->arcs.resize(begin.back());
  std::vector<std::uint32_t> pos(begin.begin(), begin.end() - 1);
  for (ArcId a = 0; a < graph_->num_arcs(); ++a) {
    const TimingArc& arc = graph_->arc(a);
    if (arc.kind == TimingArc::Kind::Cell) statics->arcs[pos[arc.inst]++] = a;
  }
  statics->check_of_ff.assign(num_instances, -1);
  const auto& checks = graph_->checks();
  for (std::size_t c = 0; c < checks.size(); ++c) {
    statics->check_of_ff[checks[c].inst] = static_cast<std::int32_t>(c);
  }
  statics_ = std::move(statics);
}

void Timer::patch_instance_arcs(const BufferPatch& patch) {
  // Instance ids do not move and the buffer is the newest instance: the
  // old bundle, copied, with the run of each instance that owns a moved
  // arc rewritten from its old run through the arc map (and re-sorted
  // where the patch reordered the instance's output pins), and the
  // buffer's cell arcs appended.
  const GraphStatics& old = *statics_;
  MGBA_CHECK(old.num_instances() == patch.buffer);
  auto statics = std::make_shared<GraphStatics>(old);
  InstanceId last = kInvalidId;
  for (ArcId a = patch.first_moved_arc; a < graph_->num_arcs(); ++a) {
    const TimingArc& arc = graph_->arc(a);
    if (arc.kind != TimingArc::Kind::Cell || arc.inst == patch.buffer ||
        arc.inst == last) {
      continue;
    }
    last = arc.inst;
    const std::uint32_t k0 = old.arc_begin[arc.inst];
    const std::uint32_t k1 = old.arc_begin[arc.inst + 1];
    for (std::uint32_t k = k0; k < k1; ++k) {
      const ArcId o = old.arcs[k];
      statics->arcs[k] = o < patch.first_moved_arc ? o : patch.arc_map[o];
    }
    const auto run = std::span(statics->arcs).subspan(k0, k1 - k0);
    if (!std::ranges::is_sorted(run)) std::ranges::sort(run);
  }
  for (const ArcId a : patch.new_arcs) {
    if (graph_->arc(a).kind == TimingArc::Kind::Cell) {
      statics->arcs.push_back(a);
    }
  }
  statics->arc_begin.push_back(
      static_cast<std::uint32_t>(statics->arcs.size()));
  statics->check_of_ff.push_back(-1);
  statics_ = std::move(statics);
}

void Timer::compute_launch_sets() {
  // With GBA CRPR disabled the credits path writes 0.0 without reading the
  // sets and crpr_credit_exact returns early, so the O(nodes x checks/64)
  // bitset DP — the engine's largest allocation at 1M+ instances by an
  // order of magnitude — is skipped entirely.
  if (!constraints_.enable_crpr) {
    launch_words_ = 0;
    launch_sets_.reset();
    return;
  }
  const std::size_t n = graph_->num_nodes();
  const auto& checks = graph_->checks();
  const std::size_t num_checks = checks.size();
  // One bit per launch check, plus the port-launch bit at index
  // num_checks; node u's set is the DP row [u * launch_words_,
  // +launch_words_).
  launch_words_ = (num_checks + 1 + 63) / 64;
  const std::size_t port_word = num_checks / 64;
  const std::uint64_t port_bit = std::uint64_t{1} << (num_checks % 64);
  launch_dp_.assign(n * launch_words_, 0);
  std::uint64_t* const rows = launch_dp_.data();

  // Node ids ascend in topological order: every fanin is merged before
  // its node is read.
  for (NodeId u = 0; u < n; ++u) {
    const TimingNode& node = graph_->node(u);
    std::uint64_t* const src = rows + u * launch_words_;
    // Seed: data input ports carry the "no clock path" marker; FF Q pins
    // carry their own flip-flop's launch bit.
    if (node.terminal.kind == Terminal::Kind::Port) {
      const Port& port = design_->port(node.terminal.id);
      if (port.direction == PortDirection::Input && u != graph_->clock_source()) {
        src[port_word] |= port_bit;
      }
    } else {
      const Instance& inst = design_->instance(node.terminal.id);
      const LibCell& cell = design_->library().cell(inst.cell);
      if (cell.kind == CellKind::FlipFlop &&
          node.terminal.pin == cell.output_pin()) {
        const std::int32_t check = statics_->check_of_ff[node.terminal.id];
        if (check >= 0) {
          src[static_cast<std::size_t>(check) / 64] |=
              std::uint64_t{1} << (static_cast<std::size_t>(check) % 64);
        }
      }
    }
    // Merge into fanout. Clock-network internal edges never carry launch
    // bits (clock nodes have empty sets until the CK->Q boundary).
    for (const ArcId a : graph_->fanout(u)) {
      std::uint64_t* const dst = rows + graph_->arc(a).to * launch_words_;
      for (std::size_t w = 0; w < launch_words_; ++w) dst[w] |= src[w];
    }
  }
  // The credits read only the checks' data-pin rows; keep those.
  auto sets =
      std::make_shared<std::vector<std::uint64_t>>(num_checks * launch_words_);
  for (std::size_t c = 0; c < num_checks; ++c) {
    std::copy_n(rows + checks[c].data_node * launch_words_, launch_words_,
                sets->data() + c * launch_words_);
  }
  launch_sets_ = std::move(sets);
}

double Timer::derate_for(const TimingArc& arc, Mode mode,
                         CornerId corner) const {
  if (arc.kind != TimingArc::Kind::Cell) return 1.0;
  const DeratePair d = instance_derate(arc.inst, corner);
  return mode == Mode::Late ? d.late : d.early;
}

bool Timer::recompute_node(NodeId node, CornerId corner, CacheTally& tally) {
  const auto& fanin = graph_->fanin(node);
  const LibraryScaling& scaling = corners_[corner].scaling;
  bool changed = false;

  if (fanin.empty()) {
    // Source node: clock origin or input port boundary condition.
    const Terminal& terminal = graph_->node(node).terminal;
    for (int m = 0; m < kNumModes; ++m) {
      double arr = 0.0;
      if (node != graph_->clock_source() &&
          terminal.kind == Terminal::Kind::Port) {
        arr = port_input_delay_[terminal.id];
      }
      const double sl = constraints_.input_slew_ps * scaling.slew;
      const std::size_t at = data_.node_index(corner, m, node);
      changed = changed || float_bits(data_.arrival[at]) != float_bits(arr) ||
                float_bits(data_.slew[at]) != float_bits(sl);
      data_.arrival.mut(at) = arr;
      data_.slew.mut(at) = sl;
    }
    return changed;
  }

  const auto& weights = weights_[corner];
  const auto& weights_early = weights_early_[corner];
  for (int m = 0; m < kNumModes; ++m) {
    const Mode mode = static_cast<Mode>(m);
    const bool late = mode == Mode::Late;
    const std::size_t node_base = data_.node_index(corner, m, 0);
    const std::size_t arc_base = data_.arc_index(corner, m, 0);
    double best_arr = late ? -kInfPs : kInfPs;
    double best_slew = late ? -kInfPs : kInfPs;
    for (const ArcId a : fanin) {
      const TimingArc& arc = graph_->arc(a);
      const ArcTiming timing =
          arc_timing(a, arc, data_.slew[node_base + arc.from], corner, m, tally);
      double eff = timing.delay_ps * derate_for(arc, mode, corner);
      if (late && query::is_weighted(*graph_, arc) &&
          arc.inst < weights.size()) {
        eff *= std::max(kMinWeightFactor, 1.0 + weights[arc.inst]);
      } else if (!late && query::is_weighted(*graph_, arc) &&
                 arc.inst < weights_early.size()) {
        eff *= std::max(kMinWeightFactor, 1.0 + weights_early[arc.inst]);
      }
      data_.arc_delay_base.mut(arc_base + a) = timing.delay_ps;
      if (data_.arc_delay[arc_base + a] != eff) {
        // The flag is per arc, not per (corner, arc): in a multi-corner
        // full sweep two corners recomputing the same node both store 1
        // here. Relaxed atomic keeps the same-value stores race-free; the
        // consumers read serially after the pool joins.
        std::atomic_ref<std::uint8_t>(arc_changed_scratch_[a])
            .store(1, std::memory_order_relaxed);
      }
      data_.arc_delay.mut(arc_base + a) = eff;
      const double cand = data_.arrival[node_base + arc.from] + eff;
      if (late) {
        best_arr = std::max(best_arr, cand);
        best_slew = std::max(best_slew, timing.slew_ps);
      } else {
        best_arr = std::min(best_arr, cand);
        best_slew = std::min(best_slew, timing.slew_ps);
      }
    }
    const std::size_t at = node_base + node;
    changed = changed ||
              float_bits(data_.arrival[at]) != float_bits(best_arr) ||
              float_bits(data_.slew[at]) != float_bits(best_slew);
    data_.arrival.mut(at) = best_arr;
    data_.slew.mut(at) = best_slew;
  }
  return changed;
}

ArcTiming Timer::arc_timing(ArcId a, const TimingArc& arc, double input_slew,
                            CornerId corner, int mode, CacheTally& tally) {
  // Memo key: driving cell + exact input-slew bits. Base timings are
  // independent of derates/weights (those multiply afterwards), so entries
  // survive full re-propagations triggered by solver weight updates —
  // where nearly every lookup hits. Load is deliberately not part of the
  // key (recomputing it per lookup would cost what the lookup saves); load
  // changes are handled by explicit invalidation (invalidate_cache_for).
  const std::size_t at =
      TimingData::lane(corner, mode) * data_.num_arcs + a;
  const std::uint64_t bits = float_bits(input_slew);
  const std::uint32_t key =
      arc.kind == TimingArc::Kind::Cell
          ? static_cast<std::uint32_t>(design_->instance(arc.inst).cell)
          : DelayCache::kNetArcKey;
  if (delay_cache_.cell_key[at] == key && delay_cache_.slew_bits[at] == bits) {
    ++tally.hits;
    return ArcTiming{delay_cache_.delay_ps[at], delay_cache_.slew_ps[at]};
  }
  ++tally.misses;
  const ArcInputs in = delay_.inputs(*graph_, a);
  const ArcTiming timing =
      delay_.evaluate(*graph_, a, input_slew, in, corners_[corner].scaling);
  delay_cache_.slew_bits[at] = bits;
  delay_cache_.cell_key[at] = key;
  delay_cache_.delay_ps[at] = timing.delay_ps;
  delay_cache_.slew_ps[at] = timing.slew_ps;
  delay_cache_.inputs[a] = in;
  return timing;
}

void Timer::invalidate_cache_for(InstanceId inst) {
  if (delay_cache_.empty() || inst >= statics_->num_instances()) return;
  // Arcs whose memoized timing can be stale after a value-only edit of
  // this instance: its own cell arcs (cell footprint changed), the cell
  // arcs of each input net's driver instance (its output load changed),
  // and every net arc of those input nets (this instance's pin caps feed
  // their Elmore terms). The neighborhood itself comes from the same walk
  // the frontier seeds use (visit_eco_neighborhood).
  const std::span<const ArcId> own = statics_->instance_arcs(inst);
  std::vector<ArcId> arcs(own.begin(), own.end());
  visit_eco_neighborhood(
      inst, [](NodeId) {},
      [&](const Terminal& t, NodeId drv) {
        if (t.kind == Terminal::Kind::InstancePin &&
            t.id < statics_->num_instances()) {
          for (const ArcId a : statics_->instance_arcs(t.id)) arcs.push_back(a);
        }
        if (drv == kInvalidNode) return;
        for (const ArcId a : graph_->fanout(drv)) arcs.push_back(a);
      },
      [](NodeId) {});
  const std::size_t lanes = corners_.size() * kNumModes;
  for (const ArcId a : arcs) delay_cache_.invalidate_arc(lanes, a);
}

// --- full sweeps -------------------------------------------------------------

void Timer::refresh_arc_statics() {
  if (!arc_statics_dirty_) return;
  arc_statics_dirty_ = false;
  const std::size_t num_arcs = graph_->num_arcs();
  const std::uint32_t sentinel =
      static_cast<std::uint32_t>(design_->num_instances());
  bool widx_moved = false;
  for (ArcId a = 0; a < num_arcs; ++a) {
    const TimingArc& arc = graph_->arc(a);
    arc_key_[a] =
        arc.kind == TimingArc::Kind::Cell
            ? static_cast<std::uint32_t>(design_->instance(arc.inst).cell)
            : DelayCache::kNetArcKey;
    const std::uint32_t widx =
        query::is_weighted(*graph_, arc) ? arc.inst : sentinel;
    if (arc_widx_[a] != widx) {
      arc_widx_[a] = widx;
      widx_moved = true;
    }
  }
  // A moved index — a resize_instance cell swap flipping the flip-flop
  // test, or reverted-trial tombstones shifting the sentinel slot — makes
  // the gathered weight-factor lanes stale.
  if (widx_moved) fac_weight_dirty_ = true;
}

void Timer::refresh_factors() {
  const std::size_t num_arcs = graph_->num_arcs();
  if (fac_derate_dirty_) {
    for (CornerId c = 0; c < corners_.size(); ++c) {
      for (int m = 0; m < kNumModes; ++m) {
        const Mode mode = static_cast<Mode>(m);
        double* fd = fac_derate_.data() + TimingData::lane(c, m) * num_arcs;
        for (ArcId a = 0; a < num_arcs; ++a) {
          fd[a] = derate_for(graph_->arc(a), mode, c);
        }
      }
    }
    fac_derate_dirty_ = false;
  }
  if (fac_weight_dirty_) {
    const std::size_t num_inst = design_->num_instances();
    wfac_.resize(num_inst + 1);
    for (CornerId c = 0; c < corners_.size(); ++c) {
      for (int m = 0; m < kNumModes; ++m) {
        const auto& w = m == idx(Mode::Late) ? weights_[c] : weights_early_[c];
        // Clamp per instance once, then gather per arc — O(instances +
        // arcs) instead of a lookup chain per (lane, arc).
        const std::size_t nw = std::min(w.size(), num_inst);
        kernels::weight_factor(w.data(), kMinWeightFactor, wfac_.data(), nw);
        // Instances past the weight vector and the sentinel slot that
        // unweighted arcs index multiply by exactly 1.0, matching
        // recompute_node's skipped multiply bit-for-bit.
        std::fill(wfac_.begin() + static_cast<std::ptrdiff_t>(nw), wfac_.end(),
                  1.0);
        kernels::gather(wfac_.data(), arc_widx_.data(),
                        fac_weight_.data() + TimingData::lane(c, m) * num_arcs,
                        num_arcs);
      }
    }
    fac_weight_dirty_ = false;
  }
}

void Timer::full_forward() {
  // Same math as the per-node recompute_node, restructured around the
  // kernels: per (corner, mode) lane, each level's fanin arcs form one
  // dense range, so the sweep gathers the arc inputs into level scratch,
  // resolves base delays with one memo probe pass (NLDM fixup for
  // the misses), applies derate x weight with eff_cand, and folds per node
  // with recompute_node's expressions in the same ascending-arc order —
  // bit-identical to recompute_node at every thread count.
  // Workers touch only their own nodes' slots in the flat lane shadows and
  // their own arcs' slots in the scratch; the coordinator lands results in
  // the COW arena with contiguous write_range calls.
  refresh_arc_statics();
  refresh_factors();
  const std::size_t n = graph_->num_nodes();
  const std::size_t num_levels = graph_->num_levels();
  shadow_a_.resize(n);
  shadow_b_.resize(n);

  for (CornerId corner = 0; corner < corners_.size(); ++corner) {
    const LibraryScaling& scaling = corners_[corner].scaling;
    const double boundary_slew = constraints_.input_slew_ps * scaling.slew;
    for (int m = 0; m < kNumModes; ++m) {
      const bool late = m == idx(Mode::Late);
      const std::size_t node_base = data_.node_index(corner, m, 0);
      const std::size_t arc_lane = data_.arc_index(corner, m, 0);

      // Boundary conditions: level 0 is exactly the empty-fanin nodes
      // (levelize assigns level 0 to zero-in-degree nodes and only them).
      const auto [b0, b1] = graph_->level_range(0);
      for (NodeId u = b0; u < b1; ++u) {
        const Terminal& terminal = graph_->node(u).terminal;
        double arr = 0.0;
        if (u != graph_->clock_source() &&
            terminal.kind == Terminal::Kind::Port) {
          arr = port_input_delay_[terminal.id];
        }
        shadow_a_[u] = arr;
        shadow_b_[u] = boundary_slew;
      }

      for (std::size_t l = 1; l < num_levels; ++l) {
        const auto [lu0, lu1] = graph_->level_range(l);
        const auto [la0, la1] = graph_->level_arc_range(l);
        const NodeId u0 = lu0;
        const ArcId a0 = la0;
        const std::size_t level_arcs = la1 - la0;
        if (lu0 == lu1) continue;
        parallel_for(lu1 - lu0, 256, [&](std::size_t wb, std::size_t we) {
          const std::size_t k0 =
              graph_->fanin_begin(static_cast<NodeId>(u0 + wb));
          const std::size_t k1 =
              graph_->fanin_begin(static_cast<NodeId>(u0 + we));
          const std::size_t cnt = k1 - k0;
          const std::size_t off = k0 - a0;
          double* inslew = lvl_a_.data() + off;
          double* arr_in = lvl_b_.data() + off;
          double* base = lvl_c_.data() + off;
          double* oslew = lvl_d_.data() + off;
          double* eff = lvl_e_.data() + off;
          double* cand = lvl_f_.data() + off;
          kernels::gather(shadow_b_.data(), arc_from_.data() + k0, inslew,
                          cnt);
          kernels::gather(shadow_a_.data(), arc_from_.data() + k0, arr_in,
                          cnt);
          // Base delays: one memo probe pass over the worker's arc
          // run, then a scalar fixup pass for the misses (each miss is an
          // NLDM evaluation — inherently scalar).
          std::uint8_t* hit = lvl_hit_.data() + off;
          const std::size_t mbase = arc_lane + k0;
          const std::size_t hits = kernels::probe(
              inslew, delay_cache_.slew_bits.data() + mbase,
              delay_cache_.cell_key.data() + mbase, arc_key_.data() + k0,
              hit, cnt);
          if (hits == cnt) {
            // Steady state of the solver loop (weights do not move base
            // delays): every arc hits, and the memo's SoA layout makes
            // the result harvest two contiguous copies.
            std::memcpy(base, delay_cache_.delay_ps.data() + mbase,
                        cnt * sizeof(double));
            std::memcpy(oslew, delay_cache_.slew_ps.data() + mbase,
                        cnt * sizeof(double));
          } else {
            for (std::size_t i = 0; i < cnt; ++i) {
              const std::size_t at = mbase + i;
              if (hit[i] != 0) {
                base[i] = delay_cache_.delay_ps[at];
                oslew[i] = delay_cache_.slew_ps[at];
              } else {
                const ArcId a = static_cast<ArcId>(k0 + i);
                const ArcInputs in = delay_.inputs(*graph_, a);
                const ArcTiming t =
                    delay_.evaluate(*graph_, a, inslew[i], in, scaling);
                delay_cache_.slew_bits[at] = float_bits(inslew[i]);
                delay_cache_.cell_key[at] = arc_key_[a];
                delay_cache_.delay_ps[at] = t.delay_ps;
                delay_cache_.slew_ps[at] = t.slew_ps;
                delay_cache_.inputs[a] = in;
                base[i] = t.delay_ps;
                oslew[i] = t.slew_ps;
              }
            }
          }
          delay_cache_.add_counts(hits, cnt - hits);
          kernels::eff_cand(base, fac_derate_.data() + arc_lane + k0,
                            fac_weight_.data() + arc_lane + k0, arr_in, eff,
                            cand, cnt);
          // Per-node fold: recompute_node's expressions verbatim, same
          // ascending fanin-arc order (scratch index i is arc k0 + i).
          // Single-fanin nodes — net-arc sinks, the majority — fold to the
          // lone candidate itself (every candidate is finite, so the ±inf
          // seed never survives a one-arc fold), and a run of them maps
          // consecutive arcs to consecutive nodes: two contiguous copies.
          std::size_t ui = wb;
          while (ui < we) {
            const NodeId u = static_cast<NodeId>(u0 + ui);
            const std::size_t f0 = graph_->fanin_begin(u) - k0;
            const std::size_t f1 = graph_->fanin_begin(u + 1) - k0;
            if (f1 - f0 == 1) {
              std::size_t uj = ui + 1;
              while (uj < we && graph_->fanin_begin(static_cast<NodeId>(
                                    u0 + uj + 1)) -
                                        graph_->fanin_begin(static_cast<NodeId>(
                                            u0 + uj)) ==
                                    1) {
                ++uj;
              }
              const std::size_t len = uj - ui;
              std::memcpy(shadow_a_.data() + u0 + ui, cand + f0,
                          len * sizeof(double));
              std::memcpy(shadow_b_.data() + u0 + ui, oslew + f0,
                          len * sizeof(double));
              ui = uj;
              continue;
            }
            double best_arr = late ? -kInfPs : kInfPs;
            double best_slew = late ? -kInfPs : kInfPs;
            for (std::size_t i = f0; i < f1; ++i) {
              if (late) {
                best_arr = std::max(best_arr, cand[i]);
                best_slew = std::max(best_slew, oslew[i]);
              } else {
                best_arr = std::min(best_arr, cand[i]);
                best_slew = std::min(best_slew, oslew[i]);
              }
            }
            shadow_a_[u] = best_arr;
            shadow_b_[u] = best_slew;
            ++ui;
          }
        });
        // The level's arc results are lane-contiguous: two bulk writes.
        data_.arc_delay_base.write_range(arc_lane + a0, lvl_c_.data(),
                                         level_arcs);
        data_.arc_delay.write_range(arc_lane + a0, lvl_e_.data(), level_arcs);
      }
      data_.arrival.write_range(node_base, shadow_a_.data(), n);
      data_.slew.write_range(node_base, shadow_b_.data(), n);
    }
  }
}

void Timer::seed_nodes_for(std::span<const InstanceId> instances,
                           std::vector<NodeId>& out) const {
  // Seed the frontier: every pin node of each dirty instance, plus the
  // output node of each driver feeding it (that driver's load changed, so
  // its cell-arc delay and output slew must be re-evaluated), plus the
  // sibling sinks of those nets (their input slew may change). The walk
  // itself is shared with the delay-cache invalidation.
  const auto add_seed = [&](NodeId n) {
    if (n != kInvalidNode) out.push_back(n);
  };
  for (const InstanceId inst_id : instances) {
    visit_eco_neighborhood(
        inst_id, add_seed,
        [&](const Terminal& t, NodeId drv) {
          if (t.kind == Terminal::Kind::InstancePin) add_seed(drv);
        },
        add_seed);
  }
}

void Timer::incremental_update() {
  seed_scratch_.clear();
  seed_nodes_for(dirty_instances_, seed_scratch_);
  seed_scratch_.insert(seed_scratch_.end(), seed_forward_.begin(),
                       seed_forward_.end());
  // One corner at a time: each corner's frontiers stop where that corner's
  // values converge, so a change that settles early at one corner does not
  // drag the others along.
  for (CornerId c = 0; c < corners_.size(); ++c) {
    incremental_forward_corner(c);
    incremental_backward_corner(c);
  }
}

void Timer::incremental_forward_corner(CornerId c) {
  const std::size_t late_lane = TimingData::lane(c, idx(Mode::Late));
  const std::size_t early_lane = TimingData::lane(c, idx(Mode::Early));
  const std::size_t late_node = late_lane * data_.num_nodes;
  const std::size_t early_node = early_lane * data_.num_nodes;
  const std::size_t late_arc = late_lane * data_.num_arcs;
  const std::size_t early_arc = early_lane * data_.num_arcs;
  const std::size_t num_levels = frontier_.size();

  std::size_t min_level = num_levels;
  std::size_t max_level = 0;
  const auto push = [&](NodeId n) {
    if (on_frontier_[n]) return;
    on_frontier_[n] = true;
    const std::size_t l = graph_->node(n).level;
    frontier_[l].push_back(n);
    min_level = std::min(min_level, l);
    max_level = std::max(max_level, l);
  };
  for (const NodeId s : seed_scratch_) push(s);

  const bool guard = cow_writes_guarded();
  // Level-synchronous frontier sweep. Fanouts land on strictly higher
  // levels, so a bucket never regrows once processed, and nodes within one
  // bucket have no mutual dependencies — the same invariant full_forward's
  // parallel sweep rests on. Per-node work is identical to the serial
  // order, so results are bit-identical at any thread count.
  for (std::size_t lvl = min_level; lvl < num_levels && lvl <= max_level;
       ++lvl) {
    auto& bucket = frontier_[lvl];
    if (bucket.empty()) continue;
    // COW choke point: when a snapshot or trial fork shares chunks,
    // privatize every slot the sweep may overwrite — serially, before
    // dispatch (privatization is not thread-safe; workers only write
    // already-private chunks).
    if (guard) {
      for (const NodeId u : bucket) {
        data_.arrival.privatize(late_node + u);
        data_.arrival.privatize(early_node + u);
        data_.slew.privatize(late_node + u);
        data_.slew.privatize(early_node + u);
        for (const ArcId a : graph_->fanin(u)) {
          data_.arc_delay.privatize(late_arc + a);
          data_.arc_delay.privatize(early_arc + a);
          data_.arc_delay_base.privatize(late_arc + a);
          data_.arc_delay_base.privatize(early_arc + a);
        }
      }
    }
    changed_scratch_.assign(bucket.size(), 0);
    parallel_for(bucket.size(), kIncrementalGrain,
                 [&](std::size_t b, std::size_t e) {
      CacheTally tally;
      for (std::size_t i = b; i < e; ++i) {
        changed_scratch_[i] = recompute_node(bucket[i], c, tally) ? 1 : 0;
      }
      delay_cache_.add_counts(tally.hits, tally.misses);
    });
    stat_forward_nodes_ += bucket.size();
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const NodeId u = bucket[i];
      on_frontier_[u] = false;
      if (const auto chk = graph_->check_at(u)) touched_checks_.push_back(*chk);
      if (changed_scratch_[i] != 0) {
        for (const ArcId a : graph_->fanout(u)) push(graph_->arc(a).to);
      }
      // Arcs whose *stored* delay moved bit-wise (recompute_node flags
      // them) re-root the backward pass at their from node: its required
      // time is derived through that delay. Clearing the flag here keeps
      // the scratch all-zero between sweeps.
      for (const ArcId a : graph_->fanin(u)) {
        if (arc_changed_scratch_[a] == 0) continue;
        arc_changed_scratch_[a] = 0;
        const NodeId from = graph_->arc(a).from;
        if (!backward_seeded_[from]) {
          backward_seeded_[from] = true;
          backward_seeds_.push_back(from);
        }
      }
    }
    bucket.clear();
  }
}

bool Timer::recompute_required(NodeId u, CornerId c) {
  const std::size_t late_node = data_.node_index(c, idx(Mode::Late), 0);
  const std::size_t early_node = data_.node_index(c, idx(Mode::Early), 0);
  const std::size_t late_arc = data_.arc_index(c, idx(Mode::Late), 0);
  const std::size_t early_arc = data_.arc_index(c, idx(Mode::Early), 0);
  // Pull over final fanout values — the exact computation the full
  // backward sweep performs for a non-endpoint node starting from the
  // +/-inf fill, so a visited node lands on the same bits the full pass
  // would produce (min/max folds are order-independent here: the fanout
  // iteration order is the same).
  double req_late = kInfPs;
  double req_early = -kInfPs;
  for (const ArcId a : graph_->fanout(u)) {
    const NodeId v = graph_->arc(a).to;
    if (data_.required[late_node + v] != kInfPs) {
      req_late = std::min(
          req_late, data_.required[late_node + v] - data_.arc_delay[late_arc + a]);
    }
    if (data_.required[early_node + v] != -kInfPs) {
      req_early = std::max(req_early, data_.required[early_node + v] -
                                          data_.arc_delay[early_arc + a]);
    }
  }
  const bool changed = data_.required[late_node + u] != req_late ||
                       data_.required[early_node + u] != req_early;
  data_.required.mut(late_node + u) = req_late;
  data_.required.mut(early_node + u) = req_early;
  return changed;
}

void Timer::incremental_backward_corner(CornerId c) {
  const int late = idx(Mode::Late);
  const int early = idx(Mode::Early);
  const std::size_t late_lane = TimingData::lane(c, late);
  const std::size_t early_lane = TimingData::lane(c, early);
  const std::size_t late_node = late_lane * data_.num_nodes;
  const std::size_t early_node = early_lane * data_.num_nodes;
  const auto& checks = graph_->checks();
  const bool guard = cow_writes_guarded();
  const std::size_t num_levels = frontier_.size();

  std::size_t min_level = num_levels;
  std::size_t max_level = 0;
  const auto push = [&](NodeId n) {
    if (on_frontier_[n]) return;
    on_frontier_[n] = true;
    const std::size_t l = graph_->node(n).level;
    frontier_[l].push_back(n);
    min_level = std::min(min_level, l);
    max_level = std::max(max_level, l);
  };

  // 1. Refresh the boundary conditions of every check whose data node the
  // forward frontier visited. Clock arrivals and CRPR credits are
  // invariant on the incremental path (clock-touching edits escalate to a
  // full update), so the only moving inputs are the data slew feeding the
  // setup/hold constraint lookups — and through them the endpoint required
  // times. FF data pins have no fanout, so the boundary value is final.
  for (const std::size_t ci : touched_checks_) {
    const TimingCheck& check = checks[ci];
    if (guard) {
      // Serial COW choke point for this check's slots (the slack-cache
      // refresh below reuses the privatized check slot).
      data_.check.privatize(data_.check_index(c, ci));
      data_.required.privatize(late_node + check.data_node);
      data_.required.privatize(early_node + check.data_node);
    }
    CheckTiming& ct = data_.check.mut(data_.check_index(c, ci));
    const auto [req_late, req_early] = check_boundary(ci, c, ct);
    ++stat_backward_nodes_;
    if (data_.required[late_node + check.data_node] != req_late ||
        data_.required[early_node + check.data_node] != req_early) {
      data_.required.mut(late_node + check.data_node) = req_late;
      data_.required.mut(early_node + check.data_node) = req_early;
      for (const ArcId a : graph_->fanin(check.data_node)) {
        push(graph_->arc(a).from);
      }
    }
  }
  // Output-port endpoints never move on the incremental path: their
  // required time depends only on the period and the port's output delay.

  // 2. From-nodes of arcs whose stored delay changed during the forward
  // sweep: their required times are derived through those delays even when
  // no endpoint boundary moved.
  for (const NodeId u : backward_seeds_) {
    backward_seeded_[u] = false;
    push(u);
  }
  backward_seeds_.clear();
  // Plus the explicit seeds (buffer_inserted's new arcs).
  for (const NodeId u : seed_backward_) push(u);

  // 3. Bounded level-descending sweep — the mirror image of the forward
  // frontier. Fanins land on strictly lower levels, required times differ
  // from the full pass's fixed point only inside the cone rooted at the
  // pushed nodes, and the sweep stops the moment no value moves bit-wise.
  if (min_level < num_levels) {
    for (std::size_t lvl = max_level + 1; lvl-- > 0;) {
      auto& bucket = frontier_[lvl];
      if (bucket.empty()) continue;
      // COW choke point: the pull writes only required times.
      if (guard) {
        for (const NodeId u : bucket) {
          data_.required.privatize(late_node + u);
          data_.required.privatize(early_node + u);
        }
      }
      changed_scratch_.assign(bucket.size(), 0);
      parallel_for(bucket.size(), kIncrementalGrain,
                   [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          changed_scratch_[i] = recompute_required(bucket[i], c) ? 1 : 0;
        }
      });
      stat_backward_nodes_ += bucket.size();
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const NodeId u = bucket[i];
        on_frontier_[u] = false;
        if (changed_scratch_[i] != 0) {
          for (const ArcId a : graph_->fanin(u)) push(graph_->arc(a).from);
        }
      }
      bucket.clear();
    }
  }

  // 4. Refresh the endpoint slack caches of every *visited* check, so the
  // caches equal the arrays bit-for-bit, exactly as the full pass leaves
  // them.
  for (const std::size_t ci : touched_checks_) {
    CheckTiming& ct = data_.check.mut(data_.check_index(c, ci));
    const NodeId d = checks[ci].data_node;
    ct.setup_slack_ps =
        data_.required[late_node + d] - data_.arrival[late_node + d];
    ct.hold_slack_ps =
        data_.arrival[early_node + d] - data_.required[early_node + d];
  }
  touched_checks_.clear();
}

void Timer::compute_crpr_credits() {
  const auto& checks = graph_->checks();
  const std::size_t num_corners = corners_.size();
  // Each (corner, check) pair derives its credit independently from the
  // (now stable) launch sets and that corner's arc delays, and writes only
  // its own record.
  parallel_for(checks.size() * num_corners, 8,
               [&](std::size_t cb, std::size_t ce) {
  for (std::size_t i = cb; i < ce; ++i) {
    const CornerId corner = static_cast<CornerId>(i / checks.size());
    const std::size_t c = i % checks.size();
    double credit = 0.0;
    if (constraints_.enable_crpr) {
      const std::uint64_t* const set = launch_sets_->data() + c * launch_words_;
      const std::size_t port_bit = checks.size();
      if ((set[port_bit / 64] >> (port_bit % 64)) & 1) {
        credit = 0.0;  // some launch has no clock path: no safe credit
      } else {
        credit = kInfPs;
        for (std::size_t w = 0; w < launch_words_; ++w) {
          std::uint64_t bits = set[w];
          while (bits != 0) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            const std::size_t launch = w * 64 + static_cast<std::size_t>(b);
            credit = std::min(
                credit, query::common_path_credit(data_, *graph_, *statics_,
                                                  launch, c, corner));
          }
        }
        if (credit == kInfPs) credit = 0.0;  // endpoint unreachable from FFs
      }
    }
    data_.check.mut(data_.check_index(corner, c)).crpr_credit_ps = credit;
  }
  });
}

std::pair<double, double> Timer::check_boundary(std::size_t ci,
                                                CornerId corner,
                                                CheckTiming& ct) const {
  const TimingCheck& check = graph_->checks()[ci];
  const LibraryScaling& scaling = corners_[corner].scaling;
  // Check values use the conservative slew pairing: both setup and hold
  // margins grow with slew, so the worst (max = late) data slew bounds
  // them; PBA's per-path slew can then only shrink the requirement.
  const double data_slew = slew(check.data_node, Mode::Late, corner);
  ct.setup_ps = delay_.setup_time(
      check, slew(check.clock_node, Mode::Early, corner), data_slew, scaling);
  ct.hold_ps = delay_.hold_time(
      check, slew(check.clock_node, Mode::Late, corner), data_slew, scaling);
  const EndpointException& exception = exceptions_->check[ci];
  return {check_required(Mode::Late, constraints_, exception,
                         arrival(check.clock_node, Mode::Early, corner),
                         ct.setup_ps, ct.crpr_credit_ps),
          check_required(Mode::Early, constraints_, exception,
                         arrival(check.clock_node, Mode::Late, corner),
                         ct.hold_ps, ct.crpr_credit_ps)};
}

void Timer::backward_required() {
  // The mirror image of the forward sweep. Required times build up
  // in flat per-node shadows (late in shadow_a_, early in shadow_b_); per
  // level, a node's fanout entries form one dense run of the fanout pool,
  // so the sweep gathers the downstream requireds and arc delays, forms
  // contrib = req[to] - delay with one subtract, and folds per node in
  // pool order. recompute_required's +-infinity guards are not needed: an
  // unreached downstream required is +-kInfPs, its contrib is the same
  // infinity (delays are finite), and folding an infinity into min/max is
  // the identity — bit-for-bit what skipping the entry produces.
  const int late = idx(Mode::Late);
  const int early = idx(Mode::Early);
  const std::size_t n = graph_->num_nodes();
  const std::size_t num_arcs = graph_->num_arcs();
  const auto& checks = graph_->checks();
  const std::size_t num_levels = graph_->num_levels();
  const ArcId* pool = graph_->fanout_pool().data();
  const std::size_t num_corners = corners_.size();
  shadow_a_.resize(n);
  shadow_b_.resize(n);
  dly_late_.resize(num_arcs);
  dly_early_.resize(num_arcs);

  for (CornerId corner = 0; corner < num_corners; ++corner) {
    std::fill(shadow_a_.begin(), shadow_a_.end(), kInfPs);
    std::fill(shadow_b_.begin(), shadow_b_.end(), -kInfPs);

    // Endpoint boundary conditions.
    for (std::size_t c = 0; c < checks.size(); ++c) {
      CheckTiming& ct = data_.check.mut(data_.check_index(corner, c));
      const auto [req_late, req_early] = check_boundary(c, corner, ct);
      const NodeId d = checks[c].data_node;
      shadow_a_[d] = std::min(shadow_a_[d], req_late);
      shadow_b_[d] = std::max(shadow_b_[d], req_early);
    }
    for (std::size_t p = 0; p < design_->num_ports(); ++p) {
      const Port& port = design_->port(static_cast<PortId>(p));
      if (port.direction != PortDirection::Output) continue;
      const NodeId node = graph_->node_of_port(static_cast<PortId>(p));
      if (node == kInvalidNode) continue;
      shadow_a_[node] = std::min(
          shadow_a_[node], output_required(constraints_, exceptions_->port[p],
                                           port_output_delay_[p]));
    }

    // Flat mirrors of this corner's arc-delay lanes (gather sources).
    data_.arc_delay.read_range(data_.arc_index(corner, late, 0),
                               dly_late_.data(), num_arcs);
    data_.arc_delay.read_range(data_.arc_index(corner, early, 0),
                               dly_early_.data(), num_arcs);

    for (std::size_t l = num_levels; l-- > 0;) {
      const auto [lu0, lu1] = graph_->level_range(l);
      const NodeId u0 = lu0;
      if (lu0 == lu1) continue;
      const std::size_t p0 = graph_->fanout_begin(lu0);
      if (graph_->fanout_begin(lu1) == p0) continue;  // no fanout anywhere
      parallel_for(lu1 - lu0, 256, [&](std::size_t wb, std::size_t we) {
        const std::size_t q0 =
            graph_->fanout_begin(static_cast<NodeId>(u0 + wb));
        const std::size_t q1 =
            graph_->fanout_begin(static_cast<NodeId>(u0 + we));
        const std::size_t cnt = q1 - q0;
        const std::size_t off = q0 - p0;
        double* req_at_to = lvl_a_.data() + off;
        double* dly = lvl_b_.data() + off;
        double* contrib = lvl_c_.data() + off;
        // Late then early; fanout targets live on strictly higher levels,
        // so the shadow slots gathered here are final — no same-level
        // writer ever touches them.
        for (int pass = 0; pass < 2; ++pass) {
          const bool is_late = pass == 0;
          double* shadow = is_late ? shadow_a_.data() : shadow_b_.data();
          kernels::gather(shadow, fo_to_.data() + q0, req_at_to, cnt);
          kernels::gather(is_late ? dly_late_.data() : dly_early_.data(),
                          pool + q0, dly, cnt);
          kernels::subtract(req_at_to, dly, contrib, cnt);
          for (std::size_t ui = wb; ui < we; ++ui) {
            const NodeId u = static_cast<NodeId>(u0 + ui);
            const std::size_t f0 = graph_->fanout_begin(u) - q0;
            const std::size_t f1 = graph_->fanout_begin(u + 1) - q0;
            double r = shadow[u];
            if (is_late) {
              for (std::size_t i = f0; i < f1; ++i) r = std::min(r, contrib[i]);
            } else {
              for (std::size_t i = f0; i < f1; ++i) r = std::max(r, contrib[i]);
            }
            shadow[u] = r;
          }
        }
      });
    }
    data_.required.write_range(data_.node_index(corner, late, 0),
                               shadow_a_.data(), n);
    data_.required.write_range(data_.node_index(corner, early, 0),
                               shadow_b_.data(), n);
  }

  // Cache endpoint slacks on the check records.
  for (CornerId corner = 0; corner < num_corners; ++corner) {
    const std::size_t late_base = data_.node_index(corner, late, 0);
    const std::size_t early_base = data_.node_index(corner, early, 0);
    for (std::size_t c = 0; c < checks.size(); ++c) {
      const NodeId d = checks[c].data_node;
      CheckTiming& ct = data_.check.mut(data_.check_index(corner, c));
      ct.setup_slack_ps =
          data_.required[late_base + d] - data_.arrival[late_base + d];
      ct.hold_slack_ps =
          data_.arrival[early_base + d] - data_.required[early_base + d];
    }
  }
}

void Timer::update_timing() {
  const bool pending = !dirty_instances_.empty() || !seed_forward_.empty() ||
                       !seed_backward_.empty();
  if (!incremental_enabled_ && pending) dirty_full_ = true;
  if (dirty_full_) {
    // A full pass rewrites every slot: the whole arena is privatized up
    // front when snapshots or a trial fork still share chunks — O(arena)
    // once, instead of per-slot checks in the sweeps.
    if (cow_writes_guarded()) data_.privatize_all();
    ++state_version_;
    if (sweep_tables_stale_) size_sweep_tables();
    full_forward();
    compute_crpr_credits();
    backward_required();
    // A full sweep flags changed arcs wholesale but never scans them;
    // reset so the next incremental pass seeds only its own changes.
    std::fill(arc_changed_scratch_.begin(), arc_changed_scratch_.end(), 0);
    dirty_full_ = false;
    clear_pending();
    ++full_updates_;
    return;
  }
  if (!pending) return;
  ++state_version_;
  incremental_update();
  clear_pending();
  ++incremental_updates_;
}

// Every const query delegates to query_ops so Timer (head) and
// TimingSnapshot (frozen fork) answer with the same code.

double Timer::arrival(NodeId node, Mode mode, CornerId corner) const {
  return query::arrival(data_, node, mode, corner);
}

double Timer::slew(NodeId node, Mode mode, CornerId corner) const {
  return query::slew(data_, node, mode, corner);
}

double Timer::required(NodeId node, Mode mode, CornerId corner) const {
  return query::required(data_, node, mode, corner);
}

double Timer::slack(NodeId node, Mode mode, CornerId corner) const {
  return query::slack(data_, node, mode, corner);
}

double Timer::slack_merged(NodeId node, Mode mode) const {
  return query::slack_merged(data_, node, mode);
}

CornerId Timer::worst_slack_corner(NodeId node, Mode mode) const {
  return query::worst_slack_corner(data_, node, mode);
}

double Timer::arc_delay(ArcId arc, Mode mode, CornerId corner) const {
  return query::arc_delay(data_, arc, mode, corner);
}

double Timer::arc_delay_base(ArcId arc, Mode mode, CornerId corner) const {
  return query::arc_delay_base(data_, arc, mode, corner);
}

const CheckTiming& Timer::check_timing(std::size_t i, CornerId corner) const {
  return query::check_timing(data_, i, corner);
}

double Timer::wns(Mode mode, CornerId corner) const {
  return query::wns(data_, *graph_, mode, corner);
}

double Timer::tns(Mode mode, CornerId corner) const {
  return query::tns(data_, *graph_, mode, corner);
}

std::size_t Timer::num_violations(Mode mode, CornerId corner) const {
  return query::num_violations(data_, *graph_, mode, corner);
}

double Timer::wns_merged(Mode mode) const {
  return query::wns_merged(data_, *graph_, mode);
}

double Timer::tns_merged(Mode mode) const {
  return query::tns_merged(data_, *graph_, mode);
}

std::size_t Timer::num_violations_merged(Mode mode) const {
  return query::num_violations_merged(data_, *graph_, mode);
}

std::vector<NodeId> Timer::worst_path(NodeId endpoint, CornerId corner) const {
  return query::worst_path(data_, *graph_, endpoint, corner);
}

NodeId Timer::worst_endpoint_merged(Mode mode) const {
  return query::worst_endpoint_merged(data_, *graph_, mode);
}

// --- snapshots --------------------------------------------------------------

std::shared_ptr<const TimingSnapshot> Timer::snapshot() const {
  prune_snapshots();
  // Private constructor: reachable here via friendship, so no make_shared.
  std::shared_ptr<const TimingSnapshot> snap(new TimingSnapshot(*this));
  snapshots_.push_back(snap);
  return snap;
}

std::size_t Timer::live_snapshots() const {
  prune_snapshots();
  return snapshots_.size();
}

void Timer::prune_snapshots() const {
  std::erase_if(snapshots_,
                [](const std::weak_ptr<const TimingSnapshot>& w) {
                  return w.expired();
                });
}

bool Timer::cow_writes_guarded() const {
  if (trial_) return true;
  prune_snapshots();
  return !snapshots_.empty();
}

// --- trial checkpoints ------------------------------------------------------

void Timer::begin_trial() {
  MGBA_CHECK(!trial_ && "trial scopes must not nest");
  trial_ = std::make_unique<TrialState>();
  trial_->dirty_at_begin = dirty_instances_;
  trial_->seed_forward_at_begin = seed_forward_;
  trial_->seed_backward_at_begin = seed_backward_;
  trial_->dirty_full_at_begin = dirty_full_;
  // COW fork of the whole arena: O(1) per array, rollback is a move-back.
  // Head writes between begin and rollback privatize the chunks they
  // touch (cow_writes_guarded() sees the open trial), so the fork keeps
  // the begin-time bits.
  trial_->data = data_;
  trial_->graph = graph_;
  trial_->statics = statics_;
  trial_->derates = derates_;
  trial_->launch_sets = launch_sets_;
  trial_->launch_words = launch_words_;
  trial_->port_input_delay = port_input_delay_;
  trial_->port_output_delay = port_output_delay_;
  trial_->exceptions = exceptions_;
}

void Timer::commit_trial() { trial_.reset(); }

void Timer::rollback_trial() {
  MGBA_CHECK(trial_ != nullptr);
  const std::shared_ptr<const TimingGraph> trial_graph = std::move(graph_);
  graph_ = std::move(trial_->graph);
  data_ = std::move(trial_->data);
  derates_ = std::move(trial_->derates);
  statics_ = std::move(trial_->statics);
  launch_sets_ = std::move(trial_->launch_sets);
  launch_words_ = trial_->launch_words;
  port_input_delay_ = std::move(trial_->port_input_delay);
  port_output_delay_ = std::move(trial_->port_output_delay);
  exceptions_ = std::move(trial_->exceptions);
  // A reverted buffer survives in the design as a disconnected tombstone
  // instance; extend instance-indexed lookups over it so queries stay in
  // bounds (its pins resolve to kInvalidNode). The restored graph/statics
  // may still back a live snapshot — clone before padding rather than
  // mutate a shared bundle.
  if (graph_.use_count() > 1) graph_ = std::make_shared<TimingGraph>(*graph_);
  graph_->pad_instances(design_->num_instances());
  if (statics_->num_instances() < design_->num_instances()) {
    auto fresh = std::make_shared<GraphStatics>(*statics_);
    fresh->arc_begin.resize(design_->num_instances() + 1,
                            fresh->arc_begin.back());
    fresh->check_of_ff.resize(design_->num_instances(), -1);
    statics_ = std::move(fresh);
  }
  // The memo follows the restored graph by the rebuild's rule: the design
  // is back to its pre-trial state, so every arc but D's cell arcs and the
  // restored D->S arc finds its trial entry.
  carry_delay_memo(*trial_graph);
  resize_incremental_scratch();
  ++state_version_;
  dirty_full_ = trial_->dirty_full_at_begin;
  clear_pending();
  dirty_instances_ = std::move(trial_->dirty_at_begin);
  for (const InstanceId inst : dirty_instances_) dirty_flag_[inst] = 1;
  seed_forward_ = std::move(trial_->seed_forward_at_begin);
  seed_backward_ = std::move(trial_->seed_backward_at_begin);
  trial_.reset();
  ++stat_trial_rollbacks_;
}

Timer::TrialScope::TrialScope(Timer& timer) : timer_(&timer) {
  timer_->begin_trial();
}

Timer::TrialScope::~TrialScope() {
  if (open_) timer_->commit_trial();
}

void Timer::TrialScope::commit() {
  if (!open_) return;
  open_ = false;
  timer_->commit_trial();
}

void Timer::TrialScope::rollback() {
  if (!open_) return;
  open_ = false;
  timer_->rollback_trial();
}

// --- update statistics ------------------------------------------------------

Timer::UpdateStats Timer::update_stats() const {
  UpdateStats s;
  s.full_updates = full_updates_;
  s.incremental_updates = incremental_updates_;
  s.forward_nodes = stat_forward_nodes_;
  s.backward_nodes = stat_backward_nodes_;
  s.delay_cache_hits = delay_cache_.hits.load(std::memory_order_relaxed);
  s.delay_cache_misses = delay_cache_.misses.load(std::memory_order_relaxed);
  s.trial_rollbacks = stat_trial_rollbacks_;
  return s;
}

std::string Timer::UpdateStats::to_string() const {
  return str_format(
      "updates            : %zu full, %zu incremental\n"
      "incremental touch  : %zu forward node recomputes, %zu backward node "
      "visits\n"
      "delay cache        : %llu hits, %llu misses (%.1f%% hit rate)\n"
      "trial checkpoints  : %zu rollbacks",
      full_updates, incremental_updates, forward_nodes, backward_nodes,
      static_cast<unsigned long long>(delay_cache_hits),
      static_cast<unsigned long long>(delay_cache_misses),
      100.0 * delay_cache_hit_rate(), trial_rollbacks);
}

std::size_t Timer::sweep_bytes() const {
  return (arc_from_.capacity() + arc_key_.capacity() + arc_widx_.capacity() +
          fo_to_.capacity()) *
             sizeof(std::uint32_t) +
         (fac_derate_.capacity() + fac_weight_.capacity() + wfac_.capacity() +
          shadow_a_.capacity() + shadow_b_.capacity() + dly_late_.capacity() +
          dly_early_.capacity() + lvl_a_.capacity() + lvl_b_.capacity() +
          lvl_c_.capacity() + lvl_d_.capacity() + lvl_e_.capacity() +
          lvl_f_.capacity()) *
             sizeof(double) +
         lvl_hit_.capacity();
}

Timer::MemoryStats Timer::memory_stats() const {
  MemoryStats m;
  m.num_nodes = graph_ ? graph_->num_nodes() : 0;
  m.num_arcs = graph_ ? graph_->num_arcs() : 0;
  m.num_corners = corners_.size();
  m.arena_bytes = data_.bytes();
  const std::size_t lanes = corners_.size() * kNumModes;
  m.arena_bytes_per_lane = lanes == 0 ? 0 : m.arena_bytes / lanes;
  m.delay_cache_entries = delay_cache_.size();
  m.delay_cache_bytes = delay_cache_.bytes();
  // The per-check table is counted once (a trial that shares it adds
  // nothing), plus the per-node DP scratch that derives it.
  m.launch_set_bytes =
      ((launch_sets_ ? launch_sets_->capacity() : 0) + launch_dp_.capacity()) *
      sizeof(std::uint64_t);
  m.kernel_scratch_bytes = sweep_bytes();
  const TimingData::CowStats cs = data_.cow_stats();
  m.cow_chunks = cs.chunks;
  m.cow_shared_chunks = cs.shared_chunks;
  prune_snapshots();
  m.live_snapshots = snapshots_.size();
  for (const auto& w : snapshots_) {
    if (const auto snap = w.lock()) {
      m.cow_retained_bytes += snap->data_.diverged_bytes(data_);
    }
  }
  return m;
}

std::string Timer::MemoryStats::to_string() const {
  const auto mb = [](std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  return str_format(
      "graph              : %zu nodes, %zu arcs, %zu corners\n"
      "timing arena       : %.1f MB (%.1f MB per lane)\n"
      "delay cache        : %zu entries, %.1f MB\n"
      "crpr launch sets   : %.1f MB\n"
      "kernel scratch     : %.1f MB\n"
      "cow arena          : %zu chunks (%zu shared), %zu live snapshots, "
      "%.1f MB retained\n"
      "total tracked      : %.1f MB",
      num_nodes, num_arcs, num_corners, mb(arena_bytes),
      mb(arena_bytes_per_lane), delay_cache_entries, mb(delay_cache_bytes),
      mb(launch_set_bytes), mb(kernel_scratch_bytes), cow_chunks,
      cow_shared_chunks, live_snapshots, mb(cow_retained_bytes),
      mb(total_bytes()));
}

}  // namespace mgba
