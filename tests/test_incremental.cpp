/// Incremental-engine tests: the bounded backward pass and delay-calc
/// memoization must be bit-identical to full re-propagation at any thread
/// count, trial checkpoints must restore rejected transforms exactly, and
/// the headline property — a randomized ECO sequence evaluated through the
/// fast path matches a twin session running full rebuilds after every
/// mutation, and the journal it writes replays bit-identically at 1 and 4
/// threads across two corners. The tier-1 script re-runs the Incremental*
/// suites under both ASan+UBSan and TSan.

#include <cstddef>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aocv/aocv_model.hpp"
#include "aocv/corner_io.hpp"
#include "netlist/design.hpp"
#include "opt/optimizer.hpp"
#include "shell/session.hpp"
#include "sta/snapshot.hpp"
#include "sta/state_signature.hpp"
#include "sta/timer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using shell::LoadRequest;
using shell::ShellSession;
using testing_helpers::BufferSinkKind;
using testing_helpers::GeneratedStack;
using testing_helpers::pick_buffer_site;
using testing_helpers::small_options;

/// Restores the ambient thread count on scope exit so test order doesn't
/// leak configuration across suites.
struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

/// Per-endpoint slack keyed by endpoint name across every corner and both
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

/// A same-footprint sibling cell the instance can be resized to, or
/// nullopt (flip-flops are excluded; footprint families never mix kinds).
std::optional<std::size_t> sizable_sibling(const Library& library,
                                           const Design& design,
                                           InstanceId inst) {
  const LibCell& cell = design.cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return std::nullopt;
  for (std::size_t j = 0; j < library.num_cells(); ++j) {
    const LibCell& c = library.cell(j);
    if (c.footprint == cell.footprint && c.name != cell.name) return j;
  }
  return std::nullopt;
}

/// Applies the same resize to two independently-updated stacks and brings
/// both timers up to date.
void resize_both(GeneratedStack& a, GeneratedStack& b, InstanceId inst,
                 std::size_t cell) {
  a.design().resize_instance(inst, cell);
  a.timer->invalidate_instance(inst);
  a.timer->update_timing();
  b.design().resize_instance(inst, cell);
  b.timer->invalidate_instance(inst);
  b.timer->update_timing();
}

/// A deterministic sequence of sizable (instance, sibling cell) pairs.
std::vector<std::pair<InstanceId, std::size_t>> resize_plan(
    const Library& library, const Design& design, std::size_t count,
    std::uint64_t seed) {
  std::vector<std::pair<InstanceId, std::size_t>> plan;
  Rng rng(seed);
  while (plan.size() < count) {
    const auto inst =
        static_cast<InstanceId>(rng.uniform_index(design.num_instances()));
    const auto sibling = sizable_sibling(library, design, inst);
    if (!sibling.has_value()) continue;
    if (design.instance(inst).cell == *sibling) continue;
    plan.emplace_back(inst, *sibling);
  }
  return plan;
}

// --- fast path vs. full re-propagation -------------------------------------

TEST(IncrementalFastpath, MatchesFullRebuildAfterResizes) {
  GeneratedStack fast(small_options(301));
  GeneratedStack full(small_options(301));
  full.timer->set_incremental_enabled(false);

  ASSERT_EQ(state_signature(*fast.timer), state_signature(*full.timer));
  for (const auto& [inst, cell] :
       resize_plan(fast.library, fast.design(), 12, 7001)) {
    resize_both(fast, full, inst, cell);
    ASSERT_EQ(state_signature(*fast.timer), state_signature(*full.timer));
  }
  EXPECT_GT(fast.timer->incremental_updates(), 0u);
  EXPECT_GT(full.timer->full_updates(), fast.timer->full_updates());
}

TEST(IncrementalFastpath, ThreadCountInvariance) {
  ThreadGuard guard;
  const auto run = [](std::size_t threads) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(303));
    for (const auto& [inst, cell] :
         resize_plan(stack.library, stack.design(), 10, 7003)) {
      stack.design().resize_instance(inst, cell);
      stack.timer->invalidate_instance(inst);
      stack.timer->update_timing();
    }
    return state_signature(*stack.timer);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(IncrementalFastpath, BoundedBackwardTouchesLessThanGraph) {
  GeneratedStack stack(small_options(304));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7004);
  const Timer::UpdateStats before = stack.timer->update_stats();
  stack.design().resize_instance(plan[0].first, plan[0].second);
  stack.timer->invalidate_instance(plan[0].first);
  stack.timer->update_timing();
  const Timer::UpdateStats after = stack.timer->update_stats();

  EXPECT_EQ(after.incremental_updates, before.incremental_updates + 1);
  const std::size_t forward = after.forward_nodes - before.forward_nodes;
  const std::size_t backward = after.backward_nodes - before.backward_nodes;
  EXPECT_GT(forward, 0u);
  // One corner: a single resize must not touch anywhere near the whole
  // graph in either direction.
  EXPECT_LT(forward, stack.timer->graph().num_nodes());
  EXPECT_LT(backward, stack.timer->graph().num_nodes());
}

TEST(IncrementalFastpath, RepeatedInvalidationIsDeduplicated) {
  GeneratedStack once(small_options(305));
  GeneratedStack thrice(small_options(305));
  const auto plan = resize_plan(once.library, once.design(), 1, 7005);

  once.design().resize_instance(plan[0].first, plan[0].second);
  once.timer->invalidate_instance(plan[0].first);
  thrice.design().resize_instance(plan[0].first, plan[0].second);
  thrice.timer->invalidate_instance(plan[0].first);
  thrice.timer->invalidate_instance(plan[0].first);
  thrice.timer->invalidate_instance(plan[0].first);

  const std::size_t f0 = once.timer->update_stats().forward_nodes;
  const std::size_t f1 = thrice.timer->update_stats().forward_nodes;
  once.timer->update_timing();
  thrice.timer->update_timing();
  // Duplicate dirty entries would seed (and recompute) the same frontier
  // nodes repeatedly.
  EXPECT_EQ(once.timer->update_stats().forward_nodes - f0,
            thrice.timer->update_stats().forward_nodes - f1);
  EXPECT_EQ(state_signature(*once.timer), state_signature(*thrice.timer));
}

TEST(IncrementalTrial, RolledBackDirtyListKeepsDedup) {
  // The dirty list dedups with a per-instance flag; a rollback restores
  // the list as it was at begin, and the flags with it: a restored
  // instance is not listed twice, and one the trial added (and the
  // rollback dropped) is listed again when touched.
  GeneratedStack stack(small_options(343));
  Timer& timer = *stack.timer;
  Design& design = stack.design();
  const auto plan = resize_plan(stack.library, design, 2, 7043);
  const auto [x, x_cell] = plan[0];
  const auto [y, y_cell] = plan[1];
  ASSERT_NE(x, y);
  const auto pending = [&] {
    return std::vector<InstanceId>(timer.pending_instances().begin(),
                                   timer.pending_instances().end());
  };
  design.resize_instance(x, x_cell);
  timer.invalidate_instance(x);
  timer.invalidate_instance(x);
  ASSERT_EQ(pending(), std::vector<InstanceId>{x});
  for (const bool timed : {false, true}) {
    const std::size_t y_old = design.instance(y).cell;
    {
      Timer::TrialScope scope(timer);
      design.resize_instance(y, y_cell);
      timer.invalidate_instance(y);
      timer.invalidate_instance(x);
      ASSERT_EQ(pending(), (std::vector<InstanceId>{x, y}));
      if (timed) timer.update_timing();
      design.resize_instance(y, y_old);
      ASSERT_TRUE(scope.rollback());
    }
    ASSERT_EQ(pending(), std::vector<InstanceId>{x}) << "timed " << timed;
    timer.invalidate_instance(x);
    ASSERT_EQ(pending(), std::vector<InstanceId>{x});
  }
  timer.invalidate_instance(y);
  ASSERT_EQ(pending(), (std::vector<InstanceId>{x, y}));
  timer.update_timing();
  ASSERT_TRUE(pending().empty());
  timer.invalidate_instance(x);
  ASSERT_EQ(pending(), std::vector<InstanceId>{x});
}

// --- delay-calc memoization -------------------------------------------------

TEST(IncrementalCache, WeightOnlyFullUpdateHitsEveryArc) {
  GeneratedStack stack(small_options(306));
  const Timer::UpdateStats before = stack.timer->update_stats();

  // Weights change effective delays but not the base timings the cache
  // memoizes, and no slew moves on the first fill (slews come from the
  // cached base timings) — the weight-driven full update must be all hits.
  std::vector<double> weights(stack.design().num_instances(), 0.01);
  stack.timer->set_instance_weights(std::move(weights));
  stack.timer->update_timing();

  const Timer::UpdateStats after = stack.timer->update_stats();
  EXPECT_EQ(after.full_updates, before.full_updates + 1);
  EXPECT_EQ(after.delay_cache_misses, before.delay_cache_misses);
  EXPECT_GT(after.delay_cache_hits, before.delay_cache_hits);
  EXPECT_GT(after.delay_cache_hit_rate(), 0.0);
}

TEST(IncrementalCache, ResizeInvalidatesOnlyTouchedEntries) {
  GeneratedStack stack(small_options(307));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7007);
  const Timer::UpdateStats before = stack.timer->update_stats();
  stack.design().resize_instance(plan[0].first, plan[0].second);
  stack.timer->invalidate_instance(plan[0].first);
  stack.timer->update_timing();
  const Timer::UpdateStats after = stack.timer->update_stats();

  // The resized instance's arcs (and its input nets' driver/net arcs) must
  // be re-evaluated — but only a sliver of the graph's arc population.
  EXPECT_GT(after.delay_cache_misses, before.delay_cache_misses);
  EXPECT_LT(after.delay_cache_misses - before.delay_cache_misses,
            stack.timer->graph().num_arcs() / 4);

  // And the memoized state must equal a from-scratch evaluation.
  Timer fresh(stack.design(), stack.timer->constraints());
  fresh.set_instance_derates(compute_gba_derates(fresh.graph(), stack.table));
  fresh.update_timing();
  EXPECT_EQ(state_signature(*stack.timer), state_signature(fresh));
}

TEST(IncrementalStats, CountersAdvanceAndReportRenders) {
  GeneratedStack stack(small_options(308));
  const auto plan = resize_plan(stack.library, stack.design(), 2, 7008);
  for (const auto& [inst, cell] : plan) {
    stack.design().resize_instance(inst, cell);
    stack.timer->invalidate_instance(inst);
    stack.timer->update_timing();
  }
  const Timer::UpdateStats stats = stack.timer->update_stats();
  EXPECT_GE(stats.full_updates, 1u);  // construction
  EXPECT_GE(stats.incremental_updates, 2u);
  EXPECT_GT(stats.forward_nodes, 0u);
  EXPECT_GT(stats.delay_cache_misses, 0u);

  const std::string text = stats.to_string();
  EXPECT_NE(text.find("incremental"), std::string::npos);
  EXPECT_NE(text.find("delay cache"), std::string::npos);
  EXPECT_NE(text.find("trial checkpoints"), std::string::npos);
}

// --- trial checkpoints ------------------------------------------------------

TEST(IncrementalTrial, ValueRollbackIsBitIdentical) {
  GeneratedStack stack(small_options(309));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7009);
  const InstanceId inst = plan[0].first;
  const std::size_t old_cell = stack.design().instance(inst).cell;
  const std::vector<double> before = state_signature(*stack.timer);
  const std::size_t rollbacks = stack.timer->update_stats().trial_rollbacks;

  {
    Timer::TrialScope scope(*stack.timer);
    stack.design().resize_instance(inst, plan[0].second);
    stack.timer->invalidate_instance(inst);
    stack.timer->update_timing();
    stack.design().resize_instance(inst, old_cell);
    ASSERT_TRUE(scope.rollback());
  }

  EXPECT_EQ(state_signature(*stack.timer), before);
  EXPECT_EQ(stack.timer->update_stats().trial_rollbacks, rollbacks + 1);
  // The rolled-back timer is not left dirty: another update is a no-op.
  stack.timer->update_timing();
  EXPECT_EQ(state_signature(*stack.timer), before);
}

TEST(IncrementalTrial, CommittedTrialKeepsTheNewState) {
  GeneratedStack stack(small_options(310));
  GeneratedStack twin(small_options(310));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7010);

  {
    Timer::TrialScope scope(*stack.timer);
    stack.design().resize_instance(plan[0].first, plan[0].second);
    stack.timer->invalidate_instance(plan[0].first);
    stack.timer->update_timing();
    scope.commit();
  }
  twin.design().resize_instance(plan[0].first, plan[0].second);
  twin.timer->invalidate_instance(plan[0].first);
  twin.timer->update_timing();
  EXPECT_EQ(state_signature(*stack.timer), state_signature(*twin.timer));
}

TEST(IncrementalTrial, StructuralRollbackIsBitIdentical) {
  GeneratedStack stack(small_options(311));
  Design& design = stack.design();
  const std::vector<double> before = state_signature(*stack.timer);

  // A data net with an instance driver and at least one sink.
  std::optional<NetId> target;
  for (std::size_t n = 0; n < design.num_nets() && !target; ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    if (net.driver->kind != Terminal::Kind::InstancePin) continue;
    const NodeId driver_node =
        stack.timer->graph().node_of_pin(net.driver->id, net.driver->pin);
    if (stack.timer->graph().node(driver_node).is_clock_network) continue;
    target = static_cast<NetId>(n);
  }
  ASSERT_TRUE(target.has_value());
  const std::size_t buffer_cell = *stack.library.strongest_buffer();

  {
    Timer::TrialScope scope(*stack.timer,
                            Timer::TrialScope::Kind::Structural);
    const Net net_before = design.net(*target);
    const InstanceId buffer = design.insert_buffer_for_sink(
        *target, net_before.sinks[0], buffer_cell, "trialbuf", {0.0, 0.0});
    stack.timer->rebuild_graph();
    stack.timer->set_instance_derates(
        compute_gba_derates(stack.timer->graph(), stack.table));
    stack.timer->update_timing();
    EXPECT_NE(state_signature(*stack.timer), before);
    design.remove_buffer(buffer, *target);
    ASSERT_TRUE(scope.rollback());
  }

  EXPECT_EQ(state_signature(*stack.timer), before);

  // The rejected trial leaves a disconnected tombstone instance; later
  // value-only work must still run (and match a from-scratch timer that
  // skips the tombstone).
  const auto plan = resize_plan(stack.library, design, 1, 7011);
  design.resize_instance(plan[0].first, plan[0].second);
  stack.timer->invalidate_instance(plan[0].first);
  stack.timer->update_timing();

  Timer fresh(design, stack.timer->constraints());
  fresh.set_instance_derates(compute_gba_derates(fresh.graph(), stack.table));
  fresh.update_timing();
  EXPECT_EQ(state_signature(*stack.timer), state_signature(fresh));
}

TEST(IncrementalTrial, FullUpdateMidTrialFallsBackSafely) {
  GeneratedStack stack(small_options(312));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7012);
  const InstanceId inst = plan[0].first;
  const std::size_t old_cell = stack.design().instance(inst).cell;
  const std::size_t fallbacks = stack.timer->update_stats().trial_fallbacks;

  {
    Timer::TrialScope scope(*stack.timer);
    stack.design().resize_instance(inst, plan[0].second);
    stack.timer->invalidate_instance(inst);
    stack.timer->update_timing();
    // A derate refresh forces a full re-propagation, which a value journal
    // cannot undo — rollback must refuse and flag the timer dirty.
    stack.timer->set_instance_derates(
        compute_gba_derates(stack.timer->graph(), stack.table));
    stack.timer->update_timing();
    stack.design().resize_instance(inst, old_cell);
    EXPECT_FALSE(scope.rollback());
  }
  EXPECT_EQ(stack.timer->update_stats().trial_fallbacks, fallbacks + 1);

  // Re-propagation from here must converge to a fresh evaluation.
  stack.timer->invalidate_instance(inst);
  stack.timer->update_timing();
  Timer fresh(stack.design(), stack.timer->constraints());
  fresh.set_instance_derates(compute_gba_derates(fresh.graph(), stack.table));
  fresh.update_timing();
  EXPECT_EQ(state_signature(*stack.timer), state_signature(fresh));
}

TEST(IncrementalTrial, OptimizerCheckpointsMatchLegacyRejectPath) {
  // Every rejected optimizer trial rolls back through a checkpoint. The
  // state left behind must be bit-identical to a Timer built from scratch
  // on the final design: its memo cache starts empty and it never held
  // trial state, so it is independent of both fast paths.
  GeneratedStack stack(small_options(313), 1500.0);
  OptimizerOptions options;
  options.max_passes = 3;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  EXPECT_GT(report.transforms_attempted, 0u);
  EXPECT_GT(stack.timer->update_stats().trial_rollbacks, 0u);

  Timer fresh(stack.design(), stack.timer->constraints());
  fresh.set_instance_derates(compute_gba_derates(fresh.graph(), stack.table));
  fresh.update_timing();
  EXPECT_EQ(state_signature(*stack.timer), state_signature(fresh));
}

// --- memo carry-over across graph rebuilds ----------------------------------

/// A two-corner stack whose rebuilds re-derive every corner's derates on
/// the new graph — what a Timer built from scratch on the same design
/// computes — so its state can be compared against one bit for bit.
struct TwoCornerStack {
  GeneratedStack stack;
  std::vector<CornerSetup> setups;

  explicit TwoCornerStack(GeneratorOptions options)
      : stack(std::move(options)),
        setups(corners_from_string(
            "corner slow delay 1.15 slew 1.05 constraint 1.02 "
            "derate_margin 1.2\n"
            "corner fast delay 0.85 derate_margin 0.8\n",
            stack.table)) {
    apply_corner_setups(*stack.timer, setups);
    stack.timer->update_timing();
  }

  Design& design() { return stack.design(); }
  Timer& timer() { return *stack.timer; }

  /// rebuild_graph, re-derate and a full update — and nothing else: no
  /// instance is invalidated, as on the ECO undo and replay paths.
  void rebuild() {
    timer().rebuild_graph();
    for (std::size_t c = 0; c < setups.size(); ++c) {
      timer().set_corner_derates(
          static_cast<CornerId>(c),
          compute_gba_derates(timer().graph(), setups[c].table));
    }
    timer().update_timing();
  }

  /// A Timer built from scratch on the current design: empty memo.
  std::unique_ptr<Timer> fresh() {
    auto timer = std::make_unique<Timer>(design(), stack.timer->constraints());
    apply_corner_setups(*timer, setups);
    timer->update_timing();
    return timer;
  }

  [[nodiscard]] std::uint64_t misses() const {
    return stack.timer->update_stats().delay_cache_misses;
  }
};

TEST(IncrementalFastpath, ToldResizesMatchFreshTimer) {
  // The forward frontier stops only at nodes whose arrival and slew keep
  // their bits, so a slew that moves by a fraction of a femtosecond still
  // reaches the fanout. After every told resize (invalidate_instance +
  // update_timing) the two-corner state must equal a freshly built
  // Timer's bit for bit.
  for (const std::uint64_t seed : {104, 106, 108}) {
    GeneratorOptions o = small_options(seed);
    o.num_gates = 600;
    TwoCornerStack s(o);
    Rng rng(seed * 7 + 1);
    for (std::size_t step = 0; step < 60; ++step) {
      const auto [inst, cell] =
          resize_plan(s.stack.library, s.design(), 1, rng.next_u64()).front();
      s.design().resize_instance(inst, cell);
      s.timer().invalidate_instance(inst);
      s.timer().update_timing();
      ASSERT_TRUE(same_bits(state_signature(s.timer()),
                            state_signature(*s.fresh())))
          << "seed " << seed << " step " << step;
    }
  }
}

/// A data-net sink to buffer: instance driver outside the clock network.
std::optional<std::pair<NetId, Terminal>> pick_buffer_sink(
    const Design& design, const Timer& timer, Rng& rng) {
  const std::size_t start = rng.uniform_index(design.num_nets());
  for (std::size_t k = 0; k < design.num_nets(); ++k) {
    const auto n = static_cast<NetId>((start + k) % design.num_nets());
    const Net& net = design.net(n);
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    if (net.driver->kind != Terminal::Kind::InstancePin) continue;
    const NodeId driver =
        timer.graph().node_of_pin(net.driver->id, net.driver->pin);
    if (timer.graph().node(driver).is_clock_network) continue;
    return std::make_pair(n, net.sinks[rng.uniform_index(net.sinks.size())]);
  }
  return std::nullopt;
}

/// Two instance-pin sinks of one data net whose cells differ but share a
/// footprint, so they can trade cells: the driver's load may keep its bits
/// while each net arc's sink cap changes.
std::optional<std::pair<InstanceId, InstanceId>> pick_swap_pair(
    const Design& design, const Timer& timer, Rng& rng) {
  const Library& library = design.library();
  const std::size_t start = rng.uniform_index(design.num_nets());
  for (std::size_t k = 0; k < design.num_nets(); ++k) {
    const Net& net =
        design.net(static_cast<NetId>((start + k) % design.num_nets()));
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
      for (std::size_t j = i + 1; j < net.sinks.size(); ++j) {
        const Terminal& a = net.sinks[i];
        const Terminal& b = net.sinks[j];
        if (a.kind != Terminal::Kind::InstancePin ||
            b.kind != Terminal::Kind::InstancePin || a.id == b.id) {
          continue;
        }
        const std::size_t ca = design.instance(a.id).cell;
        const std::size_t cb = design.instance(b.id).cell;
        if (ca == cb || library.cell(ca).kind == CellKind::FlipFlop ||
            library.cell(ca).footprint != library.cell(cb).footprint) {
          continue;
        }
        if (timer.graph().node(timer.graph().node_of_pin(a.id, a.pin))
                .is_clock_network) {
          continue;
        }
        return std::make_pair(a.id, b.id);
      }
    }
  }
  return std::nullopt;
}

TEST(IncrementalRebuild, CarriedMemoMatchesFreshTimer) {
  // Every rebuild carries the memo entries of arcs that survive with
  // bit-equal unkeyed inputs. Whatever the mix of structural edits,
  // resizes the timer was never told about, cell swaps that keep a net's
  // load, moves and no-op rebuilds, the state must equal that of a Timer
  // built from scratch (empty memo), at 1 and 4 threads.
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    TwoCornerStack s(small_options(321));
    ASSERT_EQ(s.timer().num_corners(), 2u);
    Design& design = s.design();
    const std::size_t buffer_cell = *s.stack.library.strongest_buffer();
    std::vector<std::pair<InstanceId, NetId>> buffers;
    std::size_t swaps = 0;
    std::size_t trials = 0;
    std::size_t moves = 0;
    Rng rng(4242);
    for (std::size_t step = 0; step < 32; ++step) {
      const std::uint64_t kind = rng.uniform_index(8);
      if (kind == 0 || (kind == 1 && buffers.empty())) {
        const auto pick = pick_buffer_sink(design, s.timer(), rng);
        ASSERT_TRUE(pick.has_value());
        const InstanceId buffer = design.insert_buffer_for_sink(
            pick->first, pick->second, buffer_cell,
            "carrybuf" + std::to_string(step), {5.0, 5.0});
        buffers.emplace_back(buffer, pick->first);
        s.rebuild();
      } else if (kind == 1) {
        // Newest first: a later buffer may sit on an earlier one's net.
        design.remove_buffer(buffers.back().first, buffers.back().second);
        buffers.pop_back();
        s.rebuild();
      } else if (kind == 2) {
        // The undo path: cells change, then a rebuild without
        // invalidate_instance.
        const auto plan =
            resize_plan(s.stack.library, design, 1 + rng.uniform_index(3),
                        rng.next_u64());
        for (const auto& [inst, cell] : plan) {
          design.resize_instance(inst, cell);
        }
        s.rebuild();
      } else if (kind == 3) {
        // A resize the timer is told about: the incremental update
        // re-evaluates (and re-records) the touched arcs.
        const auto plan = resize_plan(s.stack.library, design, 1,
                                      rng.next_u64());
        design.resize_instance(plan[0].first, plan[0].second);
        s.timer().invalidate_instance(plan[0].first);
        s.timer().update_timing();
      } else if (kind == 4) {
        const auto pair = pick_swap_pair(design, s.timer(), rng);
        ASSERT_TRUE(pair.has_value());
        const std::size_t ca = design.instance(pair->first).cell;
        const std::size_t cb = design.instance(pair->second).cell;
        design.resize_instance(pair->first, cb);
        design.resize_instance(pair->second, ca);
        ++swaps;
        s.rebuild();
      } else if (kind == 5) {
        // A rejected value trial re-evaluates the resized neighborhood
        // and rolls the memo back; the same resize then arrives through
        // the undo path. The rollback must have restored what the entries
        // were computed under, not only the entries.
        const auto plan = resize_plan(s.stack.library, design, 1,
                                      rng.next_u64());
        const auto [inst, cell] = plan[0];
        const std::size_t old_cell = design.instance(inst).cell;
        {
          Timer::TrialScope scope(s.timer());
          design.resize_instance(inst, cell);
          s.timer().invalidate_instance(inst);
          s.timer().update_timing();
          design.resize_instance(inst, old_cell);
          if (!scope.rollback()) {
            s.timer().invalidate_instance(inst);
            s.timer().update_timing();
          }
        }
        design.resize_instance(inst, cell);
        ++trials;
        s.rebuild();
      } else if (kind == 6) {
        // A moved instance: wire lengths to and from it change, so do the
        // net loads its nets' drivers see.
        InstanceId inst = 0;
        do {
          inst = static_cast<InstanceId>(
              rng.uniform_index(design.num_instances()));
        } while (design.is_disconnected(inst));
        const Point at = design.instance(inst).location;
        design.set_location(inst, {at.x + 3.0, at.y});
        ++moves;
        s.rebuild();
      } else {
        s.rebuild();
      }
      ASSERT_TRUE(same_bits(state_signature(s.timer()),
                            state_signature(*s.fresh())))
          << "diverged at step " << step << " (kind " << kind << ") with "
          << threads << " thread(s)";
    }
    EXPECT_GT(swaps, 0u);
    EXPECT_GT(trials, 0u);
    EXPECT_GT(moves, 0u);
  }
}

TEST(IncrementalRebuild, NoOpRebuildHitsEveryEntry) {
  TwoCornerStack s(small_options(322));
  const std::uint64_t before = s.misses();
  s.rebuild();
  EXPECT_EQ(s.misses(), before);
  EXPECT_TRUE(
      same_bits(state_signature(s.timer()), state_signature(*s.fresh())));
}

TEST(IncrementalRebuild, BufferInsertionMissesOnlyItsCone) {
  TwoCornerStack s(small_options(323));
  const std::uint64_t cold = s.fresh()->update_stats().delay_cache_misses;
  Rng rng(9);
  const auto pick = pick_buffer_sink(s.design(), s.timer(), rng);
  ASSERT_TRUE(pick.has_value());
  const std::uint64_t before = s.misses();
  s.design().insert_buffer_for_sink(pick->first, pick->second,
                                    *s.stack.library.strongest_buffer(),
                                    "conebuf", {5.0, 5.0});
  s.rebuild();
  EXPECT_LT(s.misses() - before, cold / 10);
  EXPECT_TRUE(
      same_bits(state_signature(s.timer()), state_signature(*s.fresh())));
}

/// The derived tables of \p a equal those of \p b bit for bit: the delay
/// memo (entries, ArcInputs records, hit/miss counters), the update
/// counters, the statics and the CRPR launch-set table.
void expect_same_tables(const Timer& a, const Timer& b) {
  const DelayCache& x = a.delay_cache();
  const DelayCache& y = b.delay_cache();
  ASSERT_EQ(x.slew_bits, y.slew_bits);
  ASSERT_EQ(x.cell_key, y.cell_key);
  ASSERT_TRUE(same_bits(x.delay_ps, y.delay_ps));
  ASSERT_TRUE(same_bits(x.slew_ps, y.slew_ps));
  ASSERT_EQ(x.inputs.size(), y.inputs.size());
  for (std::size_t i = 0; i < x.inputs.size(); ++i) {
    ASSERT_TRUE(x.inputs[i].same_bits(y.inputs[i])) << "arc " << i;
  }
  const Timer::UpdateStats sa = a.update_stats();
  const Timer::UpdateStats sb = b.update_stats();
  ASSERT_EQ(sa.delay_cache_hits, sb.delay_cache_hits);
  ASSERT_EQ(sa.delay_cache_misses, sb.delay_cache_misses);
  ASSERT_EQ(sa.full_updates, sb.full_updates);
  ASSERT_EQ(sa.forward_nodes, sb.forward_nodes);
  ASSERT_EQ(sa.trial_rollbacks, sb.trial_rollbacks);
  ASSERT_EQ(a.statics().arc_begin, b.statics().arc_begin);
  ASSERT_EQ(a.statics().arcs, b.statics().arcs);
  ASSERT_EQ(a.statics().check_of_ff, b.statics().check_of_ff);
  ASSERT_EQ(a.launch_words(), b.launch_words());
  ASSERT_TRUE(std::ranges::equal(a.launch_sets(), b.launch_sets()));
  ASSERT_EQ(a.graph().num_nodes(), b.graph().num_nodes());
  ASSERT_EQ(a.graph().num_arcs(), b.graph().num_arcs());
}

/// A net driven from the clock network (buffering it changes the clock
/// tree), or nullopt.
std::optional<std::pair<NetId, Terminal>> pick_clock_site(
    const Design& design, const TimingGraph& graph) {
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    const NodeId driver = graph.find_node(*net.driver);
    if (driver != kInvalidNode && graph.node(driver).is_clock_network) {
      return std::make_pair(static_cast<NetId>(n), net.sinks.back());
    }
  }
  return std::nullopt;
}

TEST(IncrementalRebuild, BufferInsertedMatchesRebuildGraph) {
  // Twin timers over twin designs: one is told about every buffer through
  // buffer_inserted (the patch), the other through rebuild_graph. Both
  // must hold the same tables after the edit, after the full update that
  // follows, and after a rejected trial's rollback — two corners, endpoint
  // exceptions that follow renumbered nodes, a live snapshot across the
  // insertion, told resizes still pending at the insertion, committed and
  // rejected trials, one clock-net buffer (which the patch hands to
  // rebuild_graph), at 1 and 4 threads.
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " thread(s)");
    set_num_threads(threads);
    GeneratorOptions options = small_options(331);
    options.num_gates = 600;
    TwoCornerStack patched(options);
    TwoCornerStack rebuilt(options);
    TimingConstraints constraints = patched.timer().constraints();
    const TimingGraph& g0 = patched.timer().graph();
    constraints.false_path_endpoints.insert(g0.node_name(g0.endpoints()[1]));
    constraints.multicycle_endpoints[g0.node_name(g0.endpoints()[2])] = 2;
    for (TwoCornerStack* s : {&patched, &rebuilt}) {
      s->stack.timer = std::make_unique<Timer>(s->design(), constraints);
      apply_corner_setups(s->timer(), s->setups);
      s->timer().update_timing();
    }
    Timer& a = patched.timer();
    Timer& b = rebuilt.timer();
    const std::size_t buffer_cell =
        *patched.stack.library.strongest_buffer();
    Rng rng(77);
    std::size_t committed = 0;
    std::size_t rejected = 0;
    for (std::size_t step = 0; step < 24; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const bool clock = step == 10;
      const bool reject = !clock && step % 3 == 1;
      auto site = clock ? pick_clock_site(patched.design(), a.graph())
                        : pick_buffer_site(patched.design(), a.graph(), rng,
                                           static_cast<BufferSinkKind>(step % 5));
      if (!site.has_value()) {
        site = pick_buffer_site(patched.design(), a.graph(), rng,
                                BufferSinkKind::Any);
      }
      ASSERT_TRUE(site.has_value());
      const auto [net, sink] = *site;
      std::shared_ptr<const TimingSnapshot> snap;
      std::vector<double> snap_sig;
      if (step % 4 == 0) {
        snap = a.snapshot();
        snap_sig = state_signature(*snap);
      }
      if (step % 4 == 2) {
        // A told resize still pending at the insertion: its neighborhood's
        // entries are dropped, their records stale.
        const auto [inst, cell] = resize_plan(patched.stack.library,
                                              patched.design(), 1,
                                              rng.next_u64())
                                      .front();
        for (TwoCornerStack* s : {&patched, &rebuilt}) {
          s->design().resize_instance(inst, cell);
          s->timer().invalidate_instance(inst);
        }
      }
      {
        Timer::TrialScope trial_a(a, Timer::TrialScope::Kind::Structural);
        Timer::TrialScope trial_b(b, Timer::TrialScope::Kind::Structural);
        const std::string name = "twinbuf" + std::to_string(step);
        const InstanceId buffer = patched.design().insert_buffer_for_sink(
            net, sink, buffer_cell, name, {4.0, 4.0});
        ASSERT_EQ(rebuilt.design().insert_buffer_for_sink(
                      net, sink, buffer_cell, name, {4.0, 4.0}),
                  buffer);
        const bool was_patched = a.buffer_inserted(buffer).has_value();
        b.rebuild_graph();
        ASSERT_EQ(was_patched, !clock);
        expect_same_tables(a, b);
        if (HasFatalFailure()) return;
        for (TwoCornerStack* s : {&patched, &rebuilt}) {
          for (std::size_t c = 0; c < s->setups.size(); ++c) {
            s->timer().set_corner_derates(
                static_cast<CornerId>(c),
                compute_gba_derates(s->timer().graph(), s->setups[c].table));
          }
          s->timer().update_timing();
        }
        ASSERT_TRUE(same_bits(state_signature(a), state_signature(b)));
        expect_same_tables(a, b);
        if (HasFatalFailure()) return;
        if (reject) {
          patched.design().remove_buffer(buffer, net);
          rebuilt.design().remove_buffer(buffer, net);
          ASSERT_TRUE(trial_a.rollback());
          ASSERT_TRUE(trial_b.rollback());
          expect_same_tables(a, b);
          if (HasFatalFailure()) return;
          ++rejected;
        } else {
          trial_a.commit();
          trial_b.commit();
          ++committed;
        }
      }
      a.update_timing();
      b.update_timing();
      ASSERT_TRUE(same_bits(state_signature(a), state_signature(b)));
      if (snap) {
        ASSERT_TRUE(same_bits(state_signature(*snap), snap_sig));
      }
    }
    EXPECT_GT(committed, 0u);
    EXPECT_GT(rejected, 0u);
    Timer fresh(patched.design(), constraints);
    apply_corner_setups(fresh, patched.setups);
    fresh.update_timing();
    EXPECT_TRUE(same_bits(state_signature(a), state_signature(fresh)));
  }
}

TEST(IncrementalRebuild, RejectedBufferTrialKeepsMemo) {
  // A rejected buffer trial carries the memo back to the restored graph
  // instead of clearing it. Rejected before any update, only D's cell
  // arcs (their load moved in the trial) and the restored D->S arc miss
  // on the next full update; rejected after the trial's own update, the
  // entries that update re-keyed miss as well, still fewer than the whole
  // memo. Either way the state equals a freshly built Timer's.
  TwoCornerStack s(small_options(341));
  Design& design = s.design();
  const std::size_t lanes = s.timer().num_corners() * kNumModes;
  const std::size_t buffer_cell = *s.stack.library.strongest_buffer();
  Rng rng(5);
  for (const bool timed : {false, true}) {
    SCOPED_TRACE(timed ? "timed trial" : "untimed trial");
    const TimingGraph& graph = s.timer().graph();
    const auto site =
        pick_buffer_site(design, graph, rng, BufferSinkKind::OneOfMany);
    ASSERT_TRUE(site.has_value());
    const auto [net, sink] = *site;
    const NodeId driver = graph.find_node(*design.net(net).driver);
    const std::size_t bound = (graph.fanin(driver).size() + 1) * lanes;
    const std::size_t whole = graph.num_arcs() * lanes;
    {
      Timer::TrialScope scope(s.timer(), Timer::TrialScope::Kind::Structural);
      const InstanceId buffer = design.insert_buffer_for_sink(
          net, sink, buffer_cell, timed ? "keepbuf1" : "keepbuf0",
          {6.0, 6.0});
      ASSERT_TRUE(s.timer().buffer_inserted(buffer).has_value());
      if (timed) {
        for (std::size_t c = 0; c < s.setups.size(); ++c) {
          s.timer().set_corner_derates(
              static_cast<CornerId>(c),
              compute_gba_derates(s.timer().graph(), s.setups[c].table));
        }
        s.timer().update_timing();
      }
      design.remove_buffer(buffer, net);
      ASSERT_TRUE(scope.rollback());
    }
    // Force a full update over the restored graph.
    for (CornerId c = 0; c < s.timer().num_corners(); ++c) {
      s.timer().set_corner_derates(c, s.timer().instance_derates(c));
    }
    const std::uint64_t before = s.misses();
    s.timer().update_timing();
    const std::uint64_t misses = s.misses() - before;
    if (timed) {
      EXPECT_LT(misses, whole);
    } else {
      EXPECT_LE(misses, bound);
    }
    EXPECT_TRUE(
        same_bits(state_signature(s.timer()), state_signature(*s.fresh())));
  }
}

// --- randomized ECO property test -------------------------------------------

LoadRequest eco_request() {
  LoadRequest request;
  request.gates = 220;
  request.flops = 32;
  request.seed = 11;
  request.utilization = 1.05;
  return request;
}

std::string write_corner_spec(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << "corner slow delay 1.15 slew 1.05 constraint 1.02 derate_margin "
         "1.2\n"
      << "corner fast delay 0.85 derate_margin 0.8\n";
  return path;
}

/// A data net suitable for buffering: instance driver outside the clock
/// network, at least one sink. Scans from a random start for variety.
std::optional<NetId> pick_buffer_net(const ShellSession& session, Rng& rng) {
  const Design& design = session.design();
  const Timer& timer = session.timer();
  const std::size_t start = rng.uniform_index(design.num_nets());
  for (std::size_t k = 0; k < design.num_nets(); ++k) {
    const auto n = static_cast<NetId>((start + k) % design.num_nets());
    const Net& net = design.net(n);
    if (!net.driver.has_value() || net.sinks.empty()) continue;
    if (net.driver->kind != Terminal::Kind::InstancePin) continue;
    const NodeId driver =
        timer.graph().node_of_pin(net.driver->id, net.driver->pin);
    if (timer.graph().node(driver).is_clock_network) continue;
    return n;
  }
  return std::nullopt;
}

/// A Timer built from scratch on \p session's design, constraints and
/// corner set, fully updated.
std::unique_ptr<Timer> fresh_timer(const ShellSession& session) {
  auto timer =
      std::make_unique<Timer>(session.design(), session.timer().constraints());
  apply_corner_setups(*timer, session.setups());
  timer->update_timing();
  return timer;
}

TEST(IncrementalEco, RandomizedSequenceMatchesFullRebuildAndReplay) {
  const std::string corners =
      write_corner_spec("incremental_eco_corners.spec");
  const std::string journal = testing::TempDir() + "incremental_eco.eco";

  // Twin sessions over two corners: `fast` runs the incremental engine;
  // `full` re-propagates the whole graph after every mutation. Every
  // committed operation must leave them bit-identical, and `fast` must
  // match a Timer built from scratch on its design (fresh memo cache, no
  // trial state) — the oracle for the memo cache and trial checkpoints.
  ShellSession fast;
  ShellSession full;
  ASSERT_EQ(fast.load(eco_request()), "");
  ASSERT_EQ(full.load(eco_request()), "");
  ASSERT_EQ(fast.load_corners(corners), "");
  ASSERT_EQ(full.load_corners(corners), "");
  full.timer().set_incremental_enabled(false);
  ASSERT_EQ(fast.timer().num_corners(), 2u);
  ASSERT_EQ(slacks_by_name(fast.timer()), slacks_by_name(full.timer()));

  Rng rng(2026);
  const Design& design = fast.design();
  for (std::size_t txn = 0; txn < 3; ++txn) {
    ASSERT_EQ(fast.begin_eco(), "");
    ASSERT_EQ(full.begin_eco(), "");
    for (std::size_t op = 0; op < 6; ++op) {
      const std::uint64_t kind = rng.uniform_index(8);
      if (kind < 4) {
        // Random same-footprint resize (occasionally a clock cell, which
        // escalates the fast session to a full update — also a bit-identity
        // case worth covering).
        InstanceId inst = 0;
        std::optional<std::size_t> sibling;
        while (!sibling.has_value()) {
          inst = static_cast<InstanceId>(
              rng.uniform_index(design.num_instances()));
          if (design.is_disconnected(inst)) continue;
          sibling = sizable_sibling(fast.library(), design, inst);
        }
        const std::string name = design.instance(inst).name;
        const std::string cell = fast.library().cell(*sibling).name;
        ASSERT_EQ(fast.size_cell(name, cell), "");
        ASSERT_EQ(full.size_cell(name, cell), "");
      } else if (kind < 6) {
        // Random targeted rebuffering of a data net sink.
        const auto net = pick_buffer_net(fast, rng);
        ASSERT_TRUE(net.has_value());
        const Net& n = design.net(*net);
        const Terminal sink =
            n.sinks[rng.uniform_index(n.sinks.size())];
        std::string fast_name;
        std::string full_name;
        ASSERT_EQ(fast.insert_buffer(n.name, fast.sink_spec(sink), "",
                                     fast_name),
                  "");
        ASSERT_EQ(full.insert_buffer(n.name, full.sink_spec(sink), "",
                                     full_name),
                  "");
        ASSERT_EQ(fast_name, full_name);
      } else {
        // A short closure burst. The transform trajectories only agree if
        // every intermediate timing read agrees.
        OptimizerOptions options;
        options.max_passes = 1;
        options.endpoints_per_pass = 4;
        options.enable_area_recovery = false;
        OptimizerReport fast_report;
        OptimizerReport full_report;
        ASSERT_EQ(fast.optimize(options, fast_report), "");
        ASSERT_EQ(full.optimize(options, full_report), "");
        ASSERT_EQ(fast_report.transforms_attempted,
                  full_report.transforms_attempted);
      }
      ASSERT_EQ(slacks_by_name(fast.timer()), slacks_by_name(full.timer()))
          << "diverged at txn " << txn << " op " << op;
      ASSERT_EQ(state_signature(fast.timer()),
                state_signature(*fresh_timer(fast)))
          << "fresh timer diverged at txn " << txn << " op " << op;
    }
    std::size_t fast_records = 0;
    std::size_t full_records = 0;
    ASSERT_EQ(fast.end_eco(fast_records), "");
    ASSERT_EQ(full.end_eco(full_records), "");
    ASSERT_EQ(fast_records, full_records);

    if (txn == 1) {
      // Exercise undo through both engines mid-sequence.
      ASSERT_EQ(fast.undo_eco(), "");
      ASSERT_EQ(full.undo_eco(), "");
      ASSERT_EQ(slacks_by_name(fast.timer()), slacks_by_name(full.timer()));
    }
  }
  ASSERT_EQ(fast.write_eco(journal), "");
  const auto live = slacks_by_name(fast.timer());

  // The journal written from the fast session must replay bit-identically
  // on fresh sessions at 1 and at 4 threads.
  ThreadGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    ShellSession replayed;
    ASSERT_EQ(replayed.load(eco_request()), "");
    ASSERT_EQ(replayed.load_corners(corners), "");
    std::size_t transactions = 0;
    std::size_t applied = 0;
    ASSERT_EQ(replayed.replay_eco(journal, transactions, applied), "");
    EXPECT_EQ(transactions, 2u);  // txn 1 was undone
    EXPECT_EQ(slacks_by_name(replayed.timer()), live)
        << "replay diverged at " << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace mgba
