/// Incremental-engine tests: the bounded backward pass and delay-calc
/// memoization must be bit-identical to full re-propagation at any thread
/// count, a rejected resize must re-propagate onto the pre-trial bits and
/// the trial checkpoint restore a rejected buffer exactly, and
/// the headline property — a randomized ECO sequence evaluated through the
/// fast path matches a twin session running full rebuilds after every
/// mutation, and the journal it writes replays bit-identically at 1 and 4
/// threads across two corners. The tier-1 script re-runs the Incremental*
/// suites under both ASan+UBSan and TSan.

#include <cstddef>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
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
#include "util/float_bits.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using shell::LoadRequest;
using shell::ShellSession;
using testing_helpers::BufferSinkKind;
using testing_helpers::GeneratedStack;
using testing_helpers::sizable_sibling;
using testing_helpers::resize_plan;
using testing_helpers::pick_buffer_site;
using testing_helpers::MovedRangeExtreme;
using testing_helpers::pick_extreme_site;
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
      scope.rollback();
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
  // A rejected resize needs no checkpoint: resized back and passed to
  // invalidate_instance, it is re-propagated by the next update onto the
  // pre-trial bits, on the incremental frontier.
  GeneratedStack stack(small_options(309));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7009);
  const InstanceId inst = plan[0].first;
  const std::size_t old_cell = stack.design().instance(inst).cell;
  const std::vector<double> before = state_signature(*stack.timer);
  const Timer::UpdateStats stats = stack.timer->update_stats();

  stack.design().resize_instance(inst, plan[0].second);
  stack.timer->invalidate_instance(inst);
  stack.timer->update_timing();
  ASSERT_NE(state_signature(*stack.timer), before);
  stack.design().resize_instance(inst, old_cell);
  stack.timer->invalidate_instance(inst);
  stack.timer->update_timing();

  EXPECT_TRUE(same_bits(state_signature(*stack.timer), before));
  const Timer::UpdateStats after = stack.timer->update_stats();
  EXPECT_EQ(after.full_updates, stats.full_updates);
  EXPECT_EQ(after.incremental_updates, stats.incremental_updates + 2);
  EXPECT_EQ(after.trial_rollbacks, stats.trial_rollbacks);
  // The reverted timer is not left dirty: another update is a no-op.
  stack.timer->update_timing();
  EXPECT_EQ(stack.timer->update_stats().incremental_updates,
            after.incremental_updates);
  EXPECT_TRUE(same_bits(state_signature(*stack.timer), before));
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
    Timer::TrialScope scope(*stack.timer);
    const Net net_before = design.net(*target);
    const InstanceId buffer = design.insert_buffer_for_sink(
        *target, net_before.sinks[0], buffer_cell, "trialbuf", {0.0, 0.0});
    stack.timer->rebuild_graph();
    stack.timer->set_instance_derates(
        compute_gba_derates(stack.timer->graph(), stack.table));
    stack.timer->update_timing();
    EXPECT_NE(state_signature(*stack.timer), before);
    design.remove_buffer(buffer, *target);
    scope.rollback();
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
  // The checkpoint holds the arena, the graph, its tables and the
  // derates, so a full re-propagation mid-trial (a derate reload) rolls
  // back exactly. Weights and the corner set are not part of it; installing
  // either mid-trial aborts (IncrementalTrialDeathTest below).
  GeneratedStack stack(small_options(312));
  const auto plan = resize_plan(stack.library, stack.design(), 1, 7012);
  const InstanceId inst = plan[0].first;
  const std::size_t old_cell = stack.design().instance(inst).cell;
  const std::vector<double> before = state_signature(*stack.timer);
  const Timer::UpdateStats stats = stack.timer->update_stats();
  {
    Timer::TrialScope scope(*stack.timer);
    stack.design().resize_instance(inst, plan[0].second);
    stack.timer->invalidate_instance(inst);
    stack.timer->update_timing();
    stack.timer->set_instance_derates(
        compute_gba_derates(stack.timer->graph(), stack.table));
    stack.timer->update_timing();
    stack.design().resize_instance(inst, old_cell);
    scope.rollback();
  }
  EXPECT_EQ(stack.timer->update_stats().full_updates, stats.full_updates + 1);
  EXPECT_EQ(stack.timer->update_stats().trial_rollbacks,
            stats.trial_rollbacks + 1);
  EXPECT_TRUE(same_bits(state_signature(*stack.timer), before));
  stack.timer->update_timing();
  EXPECT_TRUE(same_bits(state_signature(*stack.timer), before));
}

TEST(IncrementalTrialDeathTest, WeightInstallInsideTrialAborts) {
  // A rollback cannot undo a weight install, so the timer refuses one
  // while a trial is open instead of degrading the trial.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  GeneratedStack stack(small_options(312));
  const std::vector<double> weights(stack.design().num_instances(), 0.05);
  EXPECT_DEATH(
      {
        Timer::TrialScope scope(*stack.timer);
        stack.timer->set_instance_weights(weights);
      },
      "MGBA_CHECK failed: .*weight install inside a trial");
  EXPECT_DEATH(
      {
        Timer::TrialScope scope(*stack.timer);
        stack.timer->set_instance_weights_early(weights);
      },
      "MGBA_CHECK failed: .*weight install inside a trial");
  EXPECT_DEATH(
      {
        Timer::TrialScope scope(*stack.timer);
        stack.timer->set_corners({stack.timer->corner(kDefaultCorner)});
      },
      "MGBA_CHECK failed: .*corner-set change inside a trial");
  // Outside a trial the same installs are ordinary.
  stack.timer->set_instance_weights(weights);
  stack.timer->update_timing();
  Timer fresh(stack.design(), stack.timer->constraints());
  fresh.set_instance_derates(compute_gba_derates(fresh.graph(), stack.table));
  fresh.set_instance_weights(weights);
  fresh.update_timing();
  EXPECT_TRUE(
      same_bits(state_signature(*stack.timer), state_signature(fresh)));
}

TEST(IncrementalTrial, OptimizerCheckpointsMatchLegacyRejectPath) {
  // Every rejected buffer trial rolls back through the checkpoint (with
  // sizing off and a low wire threshold the closer tries, and rejects,
  // buffers). The state left behind must be bit-identical to a Timer
  // built from scratch on the final design: its memo cache starts empty
  // and it never held trial state, so it is independent of the checkpoint
  // and of the frontier.
  GeneratedStack stack(small_options(313), 1500.0);
  OptimizerOptions options;
  options.max_passes = 3;
  options.enable_sizing = false;
  options.buffer_wire_threshold_ps = 0.5;
  TimingCloser closer(stack.design(), *stack.timer, stack.table, options);
  const OptimizerReport report = closer.run();
  EXPECT_GT(report.transforms_attempted, 0u);
  EXPECT_GT(report.buffers_reverted, 0u);
  EXPECT_EQ(stack.timer->update_stats().trial_rollbacks,
            report.buffers_reverted);

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

  /// Installs every corner's derates for the current graph through the
  /// moved-instance form, naming exactly the instances whose factors
  /// differ from the installed ones — so the next update stays on the
  /// incremental frontier.
  void rederate_moved() {
    for (std::size_t c = 0; c < setups.size(); ++c) {
      const auto corner = static_cast<CornerId>(c);
      std::vector<DeratePair> want =
          compute_gba_derates(timer().graph(), setups[c].table);
      std::vector<InstanceId> moved;
      for (InstanceId i = 0; i < want.size(); ++i) {
        const DeratePair have = timer().instance_derate(i, corner);
        if (std::memcmp(&have, &want[i], sizeof(DeratePair)) != 0) {
          moved.push_back(i);
        }
      }
      timer().set_corner_derates(corner, std::move(want), moved);
    }
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
        // A rejected resize re-evaluates the resized neighborhood twice,
        // re-propagated there and back; the same resize then arrives
        // through the undo path. The revert must have re-recorded what the
        // entries were computed under, not only the entries.
        const auto plan = resize_plan(s.stack.library, design, 1,
                                      rng.next_u64());
        const auto [inst, cell] = plan[0];
        const std::size_t old_cell = design.instance(inst).cell;
        design.resize_instance(inst, cell);
        s.timer().invalidate_instance(inst);
        s.timer().update_timing();
        design.resize_instance(inst, old_cell);
        s.timer().invalidate_instance(inst);
        s.timer().update_timing();
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

/// Every live delay-memo entry of \p t whose key is its arc's current
/// key holds what the delay calculator computes for that input slew under
/// the arc's current inputs, which its ArcInputs record equals.
void expect_memo_valid(const Timer& t) {
  const DelayCache& m = t.delay_cache();
  const TimingGraph& graph = t.graph();
  const std::size_t arcs = graph.num_arcs();
  ASSERT_EQ(m.cell_key.size(), arcs * t.num_corners() * kNumModes);
  for (std::size_t i = 0; i < m.cell_key.size(); ++i) {
    const auto a = static_cast<ArcId>(i % arcs);
    const TimingArc& arc = graph.arc(a);
    const std::uint32_t key =
        arc.kind == TimingArc::Kind::Cell
            ? static_cast<std::uint32_t>(graph.design().instance(arc.inst).cell)
            : DelayCache::kNetArcKey;
    if (m.cell_key[i] != key) continue;
    const ArcInputs now = t.delay_calc().inputs(graph, a);
    ASSERT_TRUE(m.inputs[a].same_bits(now)) << "arc " << a;
    double slew = 0.0;
    std::memcpy(&slew, &m.slew_bits[i], sizeof slew);
    const auto corner = static_cast<CornerId>(i / arcs / kNumModes);
    const ArcTiming want =
        t.delay_calc().evaluate(graph, a, slew, now, t.corner_scaling(corner));
    ASSERT_EQ(float_bits(m.delay_ps[i]), float_bits(want.delay_ps))
        << "entry " << i;
    ASSERT_EQ(float_bits(m.slew_ps[i]), float_bits(want.slew_ps))
        << "entry " << i;
  }
}

/// The derived tables of \p a equal those of \p b: every delay-memo
/// entry both hold under the same key bit for bit (values and the
/// ArcInputs record), the statics and the CRPR launch-set table. An update
/// on the incremental frontier looks up only the arcs it visits, so an
/// entry a full sweep re-keyed may still be empty, or hold an earlier
/// slew's equally valid value, on the frontier's side; expect_memo_valid
/// checks those against the delay calculator.
void expect_same_tables(const Timer& a, const Timer& b) {
  const DelayCache& x = a.delay_cache();
  const DelayCache& y = b.delay_cache();
  ASSERT_EQ(x.cell_key.size(), y.cell_key.size());
  ASSERT_EQ(x.inputs.size(), y.inputs.size());
  const std::size_t arcs = x.inputs.size();
  for (std::size_t i = 0; i < x.cell_key.size(); ++i) {
    if (x.cell_key[i] == DelayCache::kEmptyKey ||
        x.cell_key[i] != y.cell_key[i] || x.slew_bits[i] != y.slew_bits[i]) {
      continue;
    }
    ASSERT_EQ(float_bits(x.delay_ps[i]), float_bits(y.delay_ps[i]));
    ASSERT_EQ(float_bits(x.slew_ps[i]), float_bits(y.slew_ps[i]));
    ASSERT_TRUE(x.inputs[i % arcs].same_bits(y.inputs[i % arcs]))
        << "arc " << i % arcs;
  }
  ASSERT_EQ(a.update_stats().trial_rollbacks,
            b.update_stats().trial_rollbacks);
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

/// A told resize of a data-path instance (none of its arcs drive, and
/// none of its input nets is driven from, the clock network), which the
/// timer keeps on the incremental path.
std::pair<InstanceId, std::size_t> data_resize(const Library& library,
                                               const Design& design,
                                               const TimingGraph& graph,
                                               Rng& rng) {
  for (;;) {
    const auto [inst, cell] =
        resize_plan(library, design, 1, rng.next_u64()).front();
    bool clock = false;
    const Instance& instance = design.instance(inst);
    for (std::size_t p = 0; p < instance.pin_nets.size(); ++p) {
      if (instance.pin_nets[p] == kInvalidId) continue;
      const NodeId pin = graph.node_of_pin(inst, static_cast<std::uint32_t>(p));
      const Net& net = design.net(instance.pin_nets[p]);
      const NodeId drv = net.driver ? graph.find_node(*net.driver)
                                    : kInvalidNode;
      clock = clock || graph.node(pin).is_clock_network ||
              (drv != kInvalidNode && graph.node(drv).is_clock_network);
    }
    if (!clock) return {inst, cell};
  }
}

/// A told resize of a clock-tree cell (its arcs drive the clock network),
/// which makes a full update due.
std::pair<InstanceId, std::size_t> clock_resize(const Library& library,
                                                const Design& design,
                                                const TimingGraph& graph) {
  for (std::uint64_t seed = 1;; ++seed) {
    const auto [inst, cell] = resize_plan(library, design, 1, seed).front();
    const Instance& instance = design.instance(inst);
    const auto out =
        static_cast<std::uint32_t>(design.cell_of(inst).output_pin());
    if (instance.pin_nets[out] == kInvalidId) continue;
    if (graph.node(graph.node_of_pin(inst, out)).is_clock_network) {
      return {inst, cell};
    }
  }
}

TEST(IncrementalRebuild, BufferInsertedMatchesRebuildGraph) {
  // Twin timers over twin designs: one is told about every buffer through
  // buffer_inserted (the patch), installs its derates through the
  // moved-instance form and updates on the incremental frontier; the other
  // goes through rebuild_graph, whole-vector derates and the full sweep.
  // The state must be equal bit for bit after every update, and the tables
  // after the edit, after the update and after a rejected trial's rollback
  // — two corners, endpoint exceptions, a live snapshot across the
  // insertion, told resizes still pending at the insertion, committed and
  // rejected trials, one clock-net buffer (which the patch hands to
  // rebuild_graph), at 1 and 4 threads. The update counters part ways by
  // design: the patched twin takes no full sweep for a data-net buffer
  // unless a told resize made one due (step 6 resizes a clock-tree buffer;
  // the other resizes are resize_plan's picks, any sizable instance), and
  // never misses the memo more often. The moved range's extremes come
  // before 24 seeded steps: a sink whose raised cone lands on the top level
  // (no tail), a net driven from level 0 or 1 (nearly every id moves), a
  // rejected trial (a tombstone), an endpoint on the top level (two new
  // levels) and that sink again (one moved node).
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
    // One insertion on both twins at (net, sink); \p step picks the
    // snapshot and pending-resize variants. Returns the buffer.
    const auto insert = [&](std::size_t step, NetId net, const Terminal& sink,
                            bool clock, bool reject) {
      std::shared_ptr<const TimingSnapshot> snap;
      std::vector<double> snap_sig;
      if (step % 4 == 0) {
        snap = a.snapshot();
        snap_sig = state_signature(*snap);
      }
      bool full_due = false;
      if (step % 4 == 2) {
        // A told resize still pending at the insertion: its neighborhood's
        // entries are dropped, their records stale. One escalating into the
        // clock network poisons the ECO record and makes a full update due.
        const auto [inst, cell] =
            step == 6 ? clock_resize(patched.stack.library, patched.design(),
                                     a.graph())
                      : resize_plan(patched.stack.library, patched.design(), 1,
                                    rng.next_u64())
                            .front();
        const Timer::EcoMark mark = a.eco_mark();
        for (TwoCornerStack* s : {&patched, &rebuilt}) {
          s->design().resize_instance(inst, cell);
          s->timer().invalidate_instance(inst);
        }
        full_due = a.eco_poisoned_since(mark);
        if (step == 6) {
          EXPECT_TRUE(full_due);
        }
      }
      const std::string name = "twinbuf" + std::to_string(step);
      InstanceId buffer = kInvalidId;
      {
        Timer::TrialScope trial_a(a);
        Timer::TrialScope trial_b(b);
        buffer = patched.design().insert_buffer_for_sink(
            net, sink, buffer_cell, name, {4.0, 4.0});
        EXPECT_EQ(rebuilt.design().insert_buffer_for_sink(
                      net, sink, buffer_cell, name, {4.0, 4.0}),
                  buffer);
        const bool was_patched = a.buffer_inserted(buffer).has_value();
        b.rebuild_graph();
        EXPECT_EQ(was_patched, !clock);
        expect_same_tables(a, b);
        expect_memo_valid(a);
        if (HasFatalFailure()) return buffer;
        const std::size_t full_before = a.full_updates();
        patched.rederate_moved();
        a.update_timing();
        for (std::size_t c = 0; c < rebuilt.setups.size(); ++c) {
          b.set_corner_derates(
              static_cast<CornerId>(c),
              compute_gba_derates(b.graph(), rebuilt.setups[c].table));
        }
        b.update_timing();
        EXPECT_TRUE(same_bits(state_signature(a), state_signature(b)));
        if (!clock) {
          EXPECT_EQ(a.full_updates(), full_before + (full_due ? 1 : 0));
        }
        EXPECT_LE(patched.misses(), rebuilt.misses());
        expect_same_tables(a, b);
        expect_memo_valid(a);
        if (HasFatalFailure()) return buffer;
        if (reject) {
          patched.design().remove_buffer(buffer, net);
          rebuilt.design().remove_buffer(buffer, net);
          trial_a.rollback();
          trial_b.rollback();
          expect_same_tables(a, b);
          if (HasFatalFailure()) return buffer;
          ++rejected;
        } else {
          trial_a.commit();
          trial_b.commit();
          ++committed;
        }
      }
      a.update_timing();
      b.update_timing();
      EXPECT_TRUE(same_bits(state_signature(a), state_signature(b)));
      if (snap) {
        EXPECT_TRUE(same_bits(state_signature(*snap), snap_sig));
      }
      return buffer;
    };
    // The extremes first, on the generated design; step numbers from 24
    // give them the seeded steps' snapshot and pending-resize variants.
    std::size_t extreme_step = 24;
    for (const MovedRangeExtreme kind :
         {MovedRangeExtreme::NearTop, MovedRangeExtreme::NearlyAll}) {
      SCOPED_TRACE("extreme " + std::to_string(static_cast<int>(kind)));
      const auto site = pick_extreme_site(patched.design(), a.graph(), kind);
      ASSERT_TRUE(site.has_value());
      insert(extreme_step++, site->first, site->second, false, false);
      if (HasFailure()) return;
    }
    {
      SCOPED_TRACE("tombstone");
      const auto site = pick_buffer_site(patched.design(), a.graph(), rng,
                                         BufferSinkKind::Any);
      ASSERT_TRUE(site.has_value());
      insert(extreme_step++, site->first, site->second, false, true);
      if (HasFailure()) return;
    }
    {
      SCOPED_TRACE("top and the same sink again");
      const auto site = pick_extreme_site(patched.design(), a.graph(),
                                          MovedRangeExtreme::Top);
      ASSERT_TRUE(site.has_value());
      const std::size_t levels = a.graph().num_levels();
      const InstanceId top =
          insert(extreme_step++, site->first, site->second, false, false);
      if (HasFailure()) return;
      EXPECT_EQ(a.graph().num_levels(), levels + 2);
      const NetId out =
          patched.design()
              .instance(top)
              .pin_nets[patched.design().cell_of(top).output_pin()];
      insert(extreme_step++, out, site->second, false, false);
      if (HasFailure()) return;
      EXPECT_EQ(a.graph().num_levels(), levels + 4);
    }

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
      insert(step, site->first, site->second, clock, reject);
      if (HasFailure()) return;
    }

    EXPECT_GT(committed, 0u);
    EXPECT_GT(rejected, 0u);
    Timer fresh(patched.design(), constraints);
    apply_corner_setups(fresh, patched.setups);
    fresh.update_timing();
    EXPECT_TRUE(same_bits(state_signature(a), state_signature(fresh)));
  }
}

/// Every (corner, mode, arc) effective and base delay: the arc half of
/// the timing state, which state_signature leaves out.
std::vector<double> arc_delays(const Timer& timer) {
  std::vector<double> values;
  for (CornerId c = 0; c < timer.num_corners(); ++c) {
    for (const Mode mode : {Mode::Early, Mode::Late}) {
      for (ArcId a = 0; a < timer.graph().num_arcs(); ++a) {
        values.push_back(timer.arc_delay(a, mode, c));
        values.push_back(timer.arc_delay_base(a, mode, c));
      }
    }
  }
  return values;
}

/// Where a buffer goes: the wire midpoint, on the driver (a zero-length
/// D->A wire) or on the sink (a zero-length Y->S wire). A zero-length wire
/// has delay 0.0, the value a new arc starts from.
enum class BufferSpot { Midpoint, AtDriver, AtSink };

TEST(IncrementalRebuild, PatchedBufferRunsFrontier) {
  // A patched buffer carries the timing arena through the patch's id maps,
  // and the update after it runs the incremental frontier: seeded forward
  // at D, A, Y and S, backward at D, A and Y, and at the instances whose
  // derates moved. Cases on D1-D3 and a 600-gate design, two corners, 1
  // and 4 threads: S as a flip-flop D pin, an output port and one of many
  // sinks; buffers on the driver and on the sink; a told resize pending at
  // the insertion; two insertions before one update; committed and
  // rejected trials with a live snapshot across them. After each case the
  // state — node values, endpoint slacks and every arc delay — equals a
  // freshly built Timer's bit for bit, no full sweep ran, and the frontier
  // recomputed fewer nodes than the graph holds. A last case carries the
  // arena into a full update: a clock-tree resize pending at the insertion.
  ThreadGuard guard;
  std::vector<GeneratorOptions> designs;
  for (int d = 1; d <= 3; ++d) designs.push_back(benchmark_design_options(d));
  designs.push_back(small_options(351));
  designs.back().num_gates = 600;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    for (std::size_t k = 0; k < designs.size(); ++k) {
      SCOPED_TRACE("design " + std::to_string(k) + ", " +
                   std::to_string(threads) + " thread(s)");
      TwoCornerStack s(designs[k]);
      Design& design = s.design();
      Timer& timer = s.timer();
      const std::size_t buffer_cell = *s.stack.library.strongest_buffer();
      Rng rng(600 + k);
      std::size_t inserted = 0;

      // Inserts one buffer and checks the seeds buffer_inserted leaves.
      const auto insert = [&](BufferSinkKind kind, BufferSpot spot) {
        auto site = pick_buffer_site(design, timer.graph(), rng, kind);
        if (!site.has_value()) {
          site = pick_buffer_site(design, timer.graph(), rng,
                                  BufferSinkKind::Any);
        }
        EXPECT_TRUE(site.has_value());
        const auto [net, sink] = *site;
        const Point from = design.terminal_location(*design.net(net).driver);
        const Point to = design.terminal_location(sink);
        const Point mid{(from.x + to.x) / 2.0, (from.y + to.y) / 2.0};
        const Point at = spot == BufferSpot::AtDriver ? from
                         : spot == BufferSpot::AtSink ? to
                                                      : mid;
        const InstanceId buffer = design.insert_buffer_for_sink(
            net, sink, buffer_cell, "frontbuf" + std::to_string(inserted++),
            at);
        const std::optional<BufferPatch> patch = timer.buffer_inserted(buffer);
        EXPECT_TRUE(patch.has_value());
        if (!patch.has_value()) return std::make_pair(buffer, net);
        const TimingGraph& graph = timer.graph();
        const auto seeded = [](std::span<const NodeId> seeds, NodeId u) {
          return std::ranges::find(seeds, u) != seeds.end();
        };
        for (const NodeId u :
             {patch->driver, patch->buf_in, patch->buf_out, patch->sink}) {
          EXPECT_TRUE(seeded(timer.pending_forward_seeds(), u))
              << "forward seed " << graph.node_name(u);
        }
        for (const NodeId u :
             {patch->driver, patch->buf_in, patch->buf_out}) {
          EXPECT_TRUE(seeded(timer.pending_backward_seeds(), u))
              << "backward seed " << graph.node_name(u);
        }
        return std::make_pair(buffer, net);
      };
      // Installs the moved derates, updates and checks the result.
      const auto update_and_check = [&](const std::string& what,
                                        bool full = false) {
        SCOPED_TRACE(what);
        s.rederate_moved();
        const Timer::UpdateStats before = timer.update_stats();
        timer.update_timing();
        const Timer::UpdateStats after = timer.update_stats();
        EXPECT_EQ(after.full_updates, before.full_updates + (full ? 1 : 0));
        if (!full) {
          EXPECT_LT(after.forward_nodes - before.forward_nodes,
                    timer.graph().num_nodes());
        }
        const std::unique_ptr<Timer> fresh = s.fresh();
        EXPECT_TRUE(
            same_bits(state_signature(timer), state_signature(*fresh)));
        EXPECT_TRUE(same_bits(arc_delays(timer), arc_delays(*fresh)));
      };

      insert(BufferSinkKind::FlopData, BufferSpot::Midpoint);
      update_and_check("sink is a flip-flop D pin");
      insert(BufferSinkKind::OutputPort, BufferSpot::Midpoint);
      update_and_check("sink is an output port");
      insert(BufferSinkKind::OneOfMany, BufferSpot::AtDriver);
      update_and_check("one of many sinks, buffer on the driver");
      insert(BufferSinkKind::Any, BufferSpot::AtSink);
      update_and_check("buffer on the sink");

      const auto [inst, cell] =
          data_resize(s.stack.library, design, timer.graph(), rng);
      design.resize_instance(inst, cell);
      timer.invalidate_instance(inst);
      insert(BufferSinkKind::Deepest, BufferSpot::Midpoint);
      EXPECT_EQ(std::ranges::count(timer.pending_instances(), inst), 1);
      update_and_check("told resize pending at the insertion");

      insert(BufferSinkKind::OneOfMany, BufferSpot::Midpoint);
      insert(BufferSinkKind::Any, BufferSpot::AtDriver);
      update_and_check("two insertions before one update");

      const std::shared_ptr<const TimingSnapshot> snap = timer.snapshot();
      const std::vector<double> snap_sig = state_signature(*snap);
      {
        Timer::TrialScope trial(timer);
        insert(BufferSinkKind::FlopData, BufferSpot::Midpoint);
        update_and_check("committed trial");
        trial.commit();
      }
      {
        Timer::TrialScope trial(timer);
        const auto [buffer, net] =
            insert(BufferSinkKind::OneOfMany, BufferSpot::AtDriver);
        update_and_check("rejected trial");
        design.remove_buffer(buffer, net);
        trial.rollback();
      }
      timer.update_timing();
      EXPECT_TRUE(
          same_bits(state_signature(timer), state_signature(*s.fresh())));
      EXPECT_TRUE(same_bits(state_signature(*snap), snap_sig));

      const auto [clock_inst, clock_cell] =
          clock_resize(s.stack.library, design, timer.graph());
      design.resize_instance(clock_inst, clock_cell);
      timer.invalidate_instance(clock_inst);
      insert(BufferSinkKind::OneOfMany, BufferSpot::Midpoint);
      update_and_check("clock-tree resize pending at the insertion", true);
      if (HasFailure()) return;
    }
  }
}

TEST(IncrementalRebuild, DisabledIncrementalTakesFullSweep) {
  // Table 5's ablation switch: with incremental updates off, the update
  // after a patched buffer and after a moved-derate install is a full
  // sweep. Switched back on, the same install runs the frontier. Either
  // way the state equals a freshly built Timer's.
  TwoCornerStack s(small_options(352));
  Timer& timer = s.timer();
  Rng rng(8);
  const auto expect_update = [&](bool full, const Timer& want) {
    const Timer::UpdateStats before = timer.update_stats();
    timer.update_timing();
    const Timer::UpdateStats after = timer.update_stats();
    EXPECT_EQ(after.full_updates, before.full_updates + (full ? 1 : 0));
    EXPECT_EQ(after.incremental_updates,
              before.incremental_updates + (full ? 0 : 1));
    EXPECT_TRUE(same_bits(state_signature(timer), state_signature(want)));
  };

  timer.set_incremental_enabled(false);
  const auto site = pick_buffer_site(s.design(), timer.graph(), rng,
                                     BufferSinkKind::OneOfMany);
  ASSERT_TRUE(site.has_value());
  const InstanceId buffer = s.design().insert_buffer_for_sink(
      site->first, site->second, *s.stack.library.strongest_buffer(),
      "ablationbuf", {5.0, 5.0});
  ASSERT_TRUE(timer.buffer_inserted(buffer).has_value());
  s.rederate_moved();
  expect_update(true, *s.fresh());

  // A moved-derate install of one data instance at corner 0.
  const InstanceId inst =
      data_resize(s.stack.library, s.design(), timer.graph(), rng).first;
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental on" : "incremental off");
    timer.set_incremental_enabled(incremental);
    std::vector<DeratePair> derates = timer.instance_derates(0);
    derates.resize(s.design().num_instances());
    derates[inst].late *= 1.25;
    const std::unique_ptr<Timer> want = s.fresh();
    want->set_corner_derates(0, derates);
    want->update_timing();
    timer.set_corner_derates(0, std::move(derates), std::span(&inst, 1));
    expect_update(!incremental, *want);
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
      Timer::TrialScope scope(s.timer());
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
      scope.rollback();
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
