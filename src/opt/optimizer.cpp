#include "opt/optimizer.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "pba/path_eval.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace mgba {

TimingCloser::TimingCloser(Design& design, Timer& timer,
                           const DerateTable& table, OptimizerOptions options)
    : design_(&design),
      timer_(&timer),
      options_(std::move(options)),
      corner_setups_(default_corner_setups(table)),
      path_hub_(timer),
      buffer_counter_(options_.buffer_name_start) {}

void TimingCloser::set_corner_setups(std::vector<CornerSetup> setups) {
  MGBA_CHECK(setups.size() == timer_->num_corners());
  corner_setups_ = std::move(setups);
  // Sessions hold pointers into the previous setups' derate tables.
  mgba_sessions_.clear();
}

std::vector<RefitStats> TimingCloser::mgba_refit_stats() const {
  std::vector<RefitStats> stats;
  stats.reserve(mgba_sessions_.size());
  for (const MgbaRefitSession& s : mgba_sessions_) stats.push_back(s.stats());
  return stats;
}

void TimingCloser::refresh_mgba(OptimizerReport& report) {
  const Stopwatch mgba_watch;
  if (mgba_sessions_.empty()) {
    mgba_sessions_.reserve(corner_setups_.size());
    for (std::size_t c = 0; c < corner_setups_.size(); ++c) {
      MgbaFlowOptions per_corner = options_.mgba_options;
      per_corner.corner = static_cast<CornerId>(c);
      mgba_sessions_.emplace_back(*timer_, corner_setups_[c].table,
                                  per_corner);
    }
    // Cold fits (the first refresh and every poisoned-log fallback)
    // enumerate through the closer's persistent engines.
    for (MgbaRefitSession& session : mgba_sessions_) {
      session.set_path_hub(&path_hub_);
    }
  }
  // refit() serves the steady state O(touched); the first call of a run
  // (the derate refresh stamps the ECO poison) and any pass after a
  // structural edit fall back to a cold fit automatically, every corner's
  // session alike.
  for (MgbaRefitSession& session : mgba_sessions_) session.refit();
  report.mgba_seconds += mgba_watch.seconds();
}

double TimingCloser::current_tns() {
  timer_->update_timing();
  return timer_->tns_merged(Mode::Late);
}

void TimingCloser::refresh_derates() {
  // One depth analysis serves every corner's table; the closer keeps it
  // so buffer trials can patch it (patch_derates).
  depths_.emplace(timer_->graph());
  // Structural edits renumber instances: rebuild each corner's derate
  // vector from that corner's own table.
  for (std::size_t c = 0; c < corner_setups_.size(); ++c) {
    timer_->set_corner_derates(static_cast<CornerId>(c),
                               gba_derates(*depths_, corner_setups_[c].table));
  }
}

void TimingCloser::patch_derates(const BufferPatch& patch,
                                 const DepthAnalysis& before) {
  std::vector<InstanceId> moved;
  depths_ = before.with_buffer(timer_->graph(), patch, moved);
  // Every other instance keeps its depth and distance, hence its derates;
  // the vectors grow over the buffer (and any reverted trial's tombstone,
  // at identity). Naming the moved instances keeps the update that follows
  // on the incremental frontier.
  const auto patched = [&](CornerId c, const DerateTable& table) {
    const std::vector<DeratePair>& installed = timer_->instance_derates(c);
    std::vector<DeratePair> derates;
    derates.reserve(design_->num_instances());
    derates.assign(installed.begin(), installed.end());
    derates.resize(design_->num_instances());
    for (const InstanceId i : moved) {
      derates[i] = gba_derate(depths_->info(i), table);
    }
    return derates;
  };
  for (std::size_t c = 0; c < corner_setups_.size(); ++c) {
    const auto corner = static_cast<CornerId>(c);
    timer_->set_corner_derates(
        corner, patched(corner, corner_setups_[c].table), moved);
  }
}

bool TimingCloser::is_sizable(InstanceId inst) const {
  const LibCell& cell = design_->cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return false;
  if (design_->is_disconnected(inst)) return false;
  // Never touch the clock network: mGBA weights and the optimizer both
  // operate on the data path only, keeping CRPR credits valid.
  const NodeId out = timer_->graph().node_of_pin(
      inst, static_cast<std::uint32_t>(cell.output_pin()));
  if (out == kInvalidNode) return false;
  return !timer_->graph().node(out).is_clock_network;
}

const std::vector<std::size_t>& TimingCloser::family_of(
    std::size_t cell_id) const {
  const Library& library = design_->library();
  if (family_cache_.size() < library.num_cells()) {
    family_cache_.resize(library.num_cells());
  }
  std::vector<std::size_t>& family = family_cache_[cell_id];
  if (family.empty()) {
    family = library.footprint_family(library.cell(cell_id).footprint);
  }
  return family;
}

bool TimingCloser::try_upsize(InstanceId inst, OptimizerReport& report) {
  const auto& family = family_of(design_->instance(inst).cell);
  const auto it = std::find(family.begin(), family.end(),
                            design_->instance(inst).cell);
  MGBA_CHECK(it != family.end());
  if (it + 1 == family.end()) return false;  // already at max drive
  const std::size_t bigger = *(it + 1);
  const std::size_t original = design_->instance(inst).cell;

  ++report.transforms_attempted;
  const double tns_before = current_tns();

  design_->resize_instance(inst, bigger);
  if (listener_) listener_->on_resize(inst, original, bigger);
  timer_->invalidate_instance(inst);
  const double tns_after = current_tns();
  if (tns_after > tns_before + options_.min_improvement_ps) {
    ++report.upsizes;
    return true;
  }
  // The incremental frontier is bit-exact: the next update re-propagates
  // the resize back onto the pre-trial bits.
  design_->resize_instance(inst, original);
  if (listener_) listener_->on_resize(inst, bigger, original);
  timer_->invalidate_instance(inst);
  return false;
}

bool TimingCloser::try_insert_buffer(ArcId net_arc, OptimizerReport& report) {
  const TimingArc& arc = timer_->graph().arc(net_arc);
  MGBA_CHECK(arc.kind == TimingArc::Kind::Net);
  const NetId net = arc.net;
  const auto buffer_cell = design_->library().strongest_buffer();
  if (!buffer_cell.has_value()) return false;

  const Net& n = design_->net(net);
  if (n.sinks.empty() || !n.driver.has_value()) return false;

  // Targeted rebuffer of the critical wire: move only this arc's sink onto
  // a buffer placed at the wire midpoint, halving both RC segments (wire
  // delay is quadratic in length, so the split roughly halves it).
  const Terminal sink = timer_->graph().node(arc.to).terminal;
  const Point driver_loc = design_->terminal_location(*n.driver);
  const Point sink_loc = design_->terminal_location(sink);
  const Point midpoint{(driver_loc.x + sink_loc.x) / 2.0,
                       (driver_loc.y + sink_loc.y) / 2.0};

  ++report.transforms_attempted;
  const double tns_before = current_tns();

  // Buffer insertion changes the graph, so the trial runs under a
  // checkpoint: a rejected trial restores graph + arena wholesale instead
  // of rebuilding and re-propagating a second time. The depth state is
  // restored alongside.
  Timer::TrialScope scope(*timer_);
  std::optional<DepthAnalysis> depths_before =
      std::exchange(depths_, std::nullopt);
  const InstanceId buffer = design_->insert_buffer_for_sink(
      net, sink, *buffer_cell,
      str_format("%s_%zu", options_.buffer_name_prefix.c_str(),
                 buffer_counter_++),
      midpoint);
  if (listener_) {
    listener_->on_buffer_inserted(buffer, net, sink, *buffer_cell, midpoint);
  }
  if (const std::optional<BufferPatch> patch =
          timer_->buffer_inserted(buffer);
      patch.has_value() && depths_before.has_value()) {
    patch_derates(*patch, *depths_before);
  } else {
    refresh_derates();
  }
  const double tns_after = current_tns();
  if (tns_after > tns_before + options_.min_improvement_ps) {
    scope.commit();
    ++report.buffers_inserted;
    return true;
  }
  design_->remove_buffer(buffer, net);
  if (listener_) listener_->on_buffer_removed(buffer, net);
  scope.rollback();
  depths_ = std::move(depths_before);
  ++report.buffers_reverted;
  return false;
}

bool TimingCloser::optimize_endpoint(NodeId endpoint,
                                     OptimizerReport& report) {
  timer_->update_timing();
  if (timer_->slack_merged(endpoint, Mode::Late) >= 0.0) return false;

  // The endpoint may have been renumbered by a buffer between selection
  // and optimization; callers pass fresh ids, so this is the live path.
  // Attack the path of the corner realizing the merged worst slack — that
  // is the corner blocking signoff at this endpoint.
  const CornerId worst_corner =
      timer_->worst_slack_corner(endpoint, Mode::Late);
  const std::vector<NodeId> path =
      timer_->worst_path(endpoint, worst_corner);

  // Collect per-stage delays along the path: cell arcs are sizing
  // candidates, net arcs are buffering candidates.
  struct Stage {
    ArcId arc = kInvalidArc;
    double delay = 0.0;
    bool is_net = false;
  };
  std::vector<Stage> stages;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId from = path[i];
    const NodeId to = path[i + 1];
    for (const ArcId a : timer_->graph().fanin(to)) {
      if (timer_->graph().arc(a).from != from) continue;
      Stage stage;
      stage.arc = a;
      stage.delay = timer_->arc_delay(a, Mode::Late, worst_corner);
      stage.is_net = timer_->graph().arc(a).kind == TimingArc::Kind::Net;
      stages.push_back(stage);
      break;
    }
  }
  std::sort(stages.begin(), stages.end(),
            [](const Stage& a, const Stage& b) { return a.delay > b.delay; });

  std::size_t buffers_this_endpoint = 0;
  for (const Stage& stage : stages) {
    const TimingArc& arc = timer_->graph().arc(stage.arc);
    if (!stage.is_net && options_.enable_sizing) {
      if (!is_sizable(arc.inst)) continue;
      if (try_upsize(arc.inst, report)) return true;
    } else if (stage.is_net && options_.enable_buffering &&
               stage.delay > options_.buffer_wire_threshold_ps &&
               buffers_this_endpoint < options_.max_buffers_per_pass) {
      // Buffering a clock net would break the CRPR tree invariants.
      if (timer_->graph().node(arc.to).is_clock_network) continue;
      ++buffers_this_endpoint;
      if (try_insert_buffer(stage.arc, report)) return true;
      // The graph was renumbered; the cached path/stage arc ids are stale.
      return false;
    }
  }
  return false;
}

void TimingCloser::area_recovery(OptimizerReport& report) {
  // Batched recovery: downsize every comfortably-slack gate in one sweep
  // (one timing update for the whole batch), then repair any endpoint the
  // sweep broke by reverting the downsized gates on its worst path. This
  // is how production flows recover area — per-gate accept/reject updates
  // would dominate the flow runtime.
  const double tns_target = current_tns() - options_.min_improvement_ps;
  // Per instance, 1 + its index into the round's downsized list (0: not
  // downsized this round), so a path node finds its record in O(1).
  std::vector<std::uint32_t> slot(design_->num_instances(), 0);

  for (int round = 0; round < 3; ++round) {
    timer_->update_timing();
    std::vector<std::pair<InstanceId, std::size_t>> downsized;  // (inst, old)
    for (std::size_t i = 0; i < design_->num_instances(); ++i) {
      const InstanceId inst = static_cast<InstanceId>(i);
      if (!is_sizable(inst)) continue;
      const LibCell& cell = design_->cell_of(inst);
      const auto& family = family_of(design_->instance(inst).cell);
      const auto it = std::find(family.begin(), family.end(),
                                design_->instance(inst).cell);
      if (it == family.begin()) continue;  // already smallest
      const NodeId out = timer_->graph().node_of_pin(
          inst, static_cast<std::uint32_t>(cell.output_pin()));
      if (timer_->slack_merged(out, Mode::Late) <
          options_.recovery_margin_ps) {
        continue;
      }
      ++report.transforms_attempted;
      downsized.emplace_back(inst, design_->instance(inst).cell);
      slot[inst] = static_cast<std::uint32_t>(downsized.size());
      design_->resize_instance(inst, *(it - 1));
      if (listener_) listener_->on_resize(inst, downsized.back().second,
                                          *(it - 1));
      timer_->invalidate_instance(inst);
    }
    if (downsized.empty()) break;

    // Repair loop: while the sweep regressed TNS, revert downsized gates
    // on the worst violating paths.
    std::size_t reverted = 0;
    while (current_tns() < tns_target) {
      bool any_revert = false;
      for (const NodeId e : timer_->graph().endpoints()) {
        if (timer_->slack_merged(e, Mode::Late) >= 0.0) continue;
        for (const NodeId node :
             timer_->worst_path(e, timer_->worst_slack_corner(e, Mode::Late))) {
          const Terminal& t = timer_->graph().node(node).terminal;
          if (t.kind != Terminal::Kind::InstancePin) continue;
          if (t.id >= slot.size() || slot[t.id] == 0) continue;
          auto& [inst, old_cell] = downsized[slot[t.id] - 1];
          if (old_cell == kInvalidId) continue;
          if (design_->instance(inst).cell == old_cell) continue;
          const std::size_t small_cell = design_->instance(inst).cell;
          design_->resize_instance(inst, old_cell);
          if (listener_) listener_->on_resize(inst, small_cell, old_cell);
          timer_->invalidate_instance(inst);
          old_cell = kInvalidId;  // mark as reverted
          any_revert = true;
          ++reverted;
        }
      }
      if (!any_revert) break;  // nothing left to revert on violating paths
    }
    for (const auto& entry : downsized) slot[entry.first] = 0;
    report.downsizes += downsized.size() - reverted;
    if (downsized.size() == reverted) break;  // no net progress
  }
  timer_->update_timing();
}

OptimizerReport TimingCloser::run() {
  const Stopwatch watch;
  OptimizerReport report;
  // A multi-corner timer needs set_corner_setups before the first run.
  MGBA_CHECK(corner_setups_.size() == timer_->num_corners());

  refresh_derates();
  timer_->update_timing();
  report.initial = measure_qor(*timer_);

  // Endpoints are tracked by their Terminal (instance/port id), which is
  // stable across structural edits — node ids are not. Each pass walks the
  // violating endpoints worst-first, re-resolving after every transform so
  // buffer insertions (which renumber the graph) do not truncate the pass.
  const auto endpoint_key = [&](NodeId node) {
    return timer_->graph().node(node).terminal;
  };

  for (std::size_t pass = 0; pass < options_.max_passes; ++pass) {
    report.passes = pass + 1;

    if (options_.use_mgba && pass % options_.mgba_refresh_passes == 0) {
      refresh_mgba(report);
    }
    timer_->update_timing();
    if (timer_->num_violations_merged(Mode::Late) <=
        options_.acceptable_violations) {
      break;
    }

    bool improved = false;
    std::vector<Terminal> tried;
    const auto was_tried = [&](const Terminal& t) {
      for (const Terminal& seen : tried) {
        if (seen == t) return true;
      }
      return false;
    };

    for (std::size_t budget = options_.endpoints_per_pass; budget > 0;
         --budget) {
      timer_->update_timing();
      NodeId target = kInvalidNode;
      double worst = 0.0;
      for (const NodeId e : timer_->graph().endpoints()) {
        const double s = timer_->slack_merged(e, Mode::Late);
        if (s < worst && !was_tried(endpoint_key(e))) {
          worst = s;
          target = e;
        }
      }
      if (target == kInvalidNode) break;
      tried.push_back(endpoint_key(target));
      improved = optimize_endpoint(target, report) || improved;
    }
    if (!improved) break;
  }

  if (options_.enable_area_recovery) area_recovery(report);

  timer_->update_timing();
  report.final_qor = measure_qor(*timer_);
  report.final_per_corner = measure_qor_per_corner(*timer_);
  report.seconds = watch.seconds();
  MGBA_LOG_INFO("closure done: passes=%zu upsizes=%zu buffers=%zu "
                "downsizes=%zu  %s",
                report.passes, report.upsizes, report.buffers_inserted,
                report.downsizes, report.final_qor.to_string().c_str());
  return report;
}

double choose_clock_period(Timer& timer, const DerateTable& table,
                           double utilization) {
  MGBA_CHECK(utilization > 0.0);
  // A throwaway engine enumerates; the evaluator shares its pinned view.
  PathEngine engine(timer, 4);
  engine.sync();
  const PathEvaluator evaluator(engine.view(), table);
  double worst_arrival = 0.0;
  double worst_margin = 0.0;
  for (const NodeId endpoint : timer.graph().endpoints()) {
    for (const TimingPath& path : engine.paths_to(endpoint)) {
      const PathTiming pt = evaluator.evaluate(path);
      if (pt.pba_arrival_ps > worst_arrival) {
        worst_arrival = pt.pba_arrival_ps;
        // Setup + clock-skew margin the period must additionally absorb:
        // required = period + capture_early - setup (+credit), so the
        // period needs arrival - (capture_early - setup) at slack 0.
        const auto check = timer.graph().check_at(endpoint);
        if (check.has_value()) {
          const TimingCheck& tc = timer.graph().checks()[*check];
          worst_margin = timer.check_timing(*check).setup_ps -
                         timer.arrival(tc.clock_node, Mode::Early);
        } else {
          worst_margin = timer.constraints().output_delay_ps;
        }
      }
    }
  }
  return (worst_arrival + worst_margin) / utilization;
}

}  // namespace mgba
