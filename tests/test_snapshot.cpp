/// Versioned-timing-state tests: a TimingSnapshot forked from a Timer must
/// stay bit-frozen while ECOs, trials, and parallel updates mutate the
/// head; releasing the last handle must return the retained COW chunks;
/// and concurrent readers on a live snapshot must never observe a torn
/// state. Byte-level claims go through TimingData::dump_bytes /
/// bytes_equal, query-level claims through the shared state_signature so
/// Timer and TimingSnapshot are compared on the exact same read path.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "netlist/design.hpp"
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
using testing_helpers::GeneratedStack;
using testing_helpers::resize_plan;
using testing_helpers::small_options;

/// Restores the ambient thread count on scope exit so test order doesn't
/// leak configuration across suites.
struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

/// Applies one resize to the stack and brings the timer up to date.
void apply_resize(GeneratedStack& stack, InstanceId inst, std::size_t cell) {
  stack.design().resize_instance(inst, cell);
  stack.timer->invalidate_instance(inst);
  stack.timer->update_timing();
}

// --- snapshot isolation -----------------------------------------------------

TEST(Snapshot, FrozenAcrossValueEcos) {
  GeneratedStack stack(small_options(501));
  GeneratedStack frozen(small_options(501));  // twin that never mutates

  const auto snap = stack.timer->snapshot();
  const std::vector<std::uint8_t> bytes_at_fork = snap->data().dump_bytes();
  const std::vector<double> sig_at_fork = state_signature(*snap);
  ASSERT_EQ(sig_at_fork, state_signature(*stack.timer));

  for (const auto& [inst, cell] :
       resize_plan(stack.library, stack.design(), 8, 7501)) {
    apply_resize(stack, inst, cell);
  }
  ASSERT_NE(state_signature(*stack.timer), sig_at_fork);

  // The snapshot is byte-frozen at the fork version while the head moved,
  // and answers queries bit-identically to a dedicated frozen Timer.
  EXPECT_EQ(snap->data().dump_bytes(), bytes_at_fork);
  EXPECT_EQ(state_signature(*snap), sig_at_fork);
  EXPECT_EQ(state_signature(*snap), state_signature(*frozen.timer));
  EXPECT_LT(snap->version(), stack.timer->state_version());
}

TEST(Snapshot, HeadAfterEcoMatchesFlatRebuild) {
  GeneratedStack live(small_options(502));
  GeneratedStack flat(small_options(502));
  flat.timer->set_incremental_enabled(false);  // full re-propagation twin

  // The live stack edits with a snapshot pinned the whole time — every
  // arena write goes down the COW-guarded path.
  const auto snap = live.timer->snapshot();
  for (const auto& [inst, cell] :
       resize_plan(live.library, live.design(), 8, 7502)) {
    apply_resize(live, inst, cell);
    apply_resize(flat, inst, cell);
    ASSERT_EQ(state_signature(*live.timer), state_signature(*flat.timer));
  }
  EXPECT_GT(live.timer->live_snapshots(), 0u);
}

TEST(Snapshot, ThreadCountInvariance) {
  ThreadGuard guard;
  const auto run = [](std::size_t threads) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(503));
    const auto snap = stack.timer->snapshot();
    for (const auto& [inst, cell] :
         resize_plan(stack.library, stack.design(), 6, 7503)) {
      apply_resize(stack, inst, cell);
    }
    return std::make_pair(state_signature(*stack.timer),
                          state_signature(*snap));
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(one.first, four.first);    // head bit-identical across threads
  EXPECT_EQ(one.second, four.second);  // snapshot too
}

// --- retention accounting ---------------------------------------------------

TEST(Snapshot, ReleaseFreesRetainedChunks) {
  // The level-contiguous layout scatters one instance's ECO cone across
  // every level's id range, so on a few hundred gates it touches every
  // COW chunk of every lane. Levels many chunks wide leave most chunks
  // outside the cone, which makes "the untouched remainder stays shared"
  // observable.
  GeneratorOptions options = small_options(504);
  options.num_gates = 20000;
  options.num_flops = 1000;
  GeneratedStack stack(options);
  EXPECT_EQ(stack.timer->live_snapshots(), 0u);

  auto snap = stack.timer->snapshot();
  EXPECT_EQ(stack.timer->live_snapshots(), 1u);
  EXPECT_EQ(stack.timer->memory_stats().cow_retained_bytes, 0u);

  const auto plan = resize_plan(stack.library, stack.design(), 1, 7504);
  apply_resize(stack, plan[0].first, plan[0].second);

  // The edit privatized the touched chunks, so the snapshot now retains
  // their pre-ECO copies; the untouched remainder is still shared.
  const Timer::MemoryStats held = stack.timer->memory_stats();
  EXPECT_GT(held.cow_retained_bytes, 0u);
  EXPECT_GT(held.cow_shared_chunks, 0u);
  EXPECT_EQ(held.live_snapshots, 1u);

  snap.reset();
  const Timer::MemoryStats released = stack.timer->memory_stats();
  EXPECT_EQ(released.live_snapshots, 0u);
  EXPECT_EQ(released.cow_retained_bytes, 0u);
  EXPECT_EQ(released.cow_shared_chunks, 0u);  // head is sole owner again
}

// --- trials under COW -------------------------------------------------------

TEST(Snapshot, TrialRollbackViaCowIsBitIdentical) {
  GeneratedStack stack(small_options(505));
  const std::vector<double> before = state_signature(*stack.timer);
  const auto snap = stack.timer->snapshot();  // pre-trial version, pinned
  const std::size_t rollbacks = stack.timer->update_stats().trial_rollbacks;

  const auto plan = resize_plan(stack.library, stack.design(), 1, 7505);
  const std::size_t old_cell = stack.design().instance(plan[0].first).cell;
  {
    Timer::TrialScope scope(*stack.timer);
    apply_resize(stack, plan[0].first, plan[0].second);
    ASSERT_NE(state_signature(*stack.timer), before);
    stack.design().resize_instance(plan[0].first, old_cell);
    scope.rollback();
  }
  EXPECT_EQ(stack.timer->update_stats().trial_rollbacks, rollbacks + 1);
  EXPECT_EQ(state_signature(*stack.timer), before);

  // The rollback restored the exact pre-trial arena: a fresh fork is
  // byte-equal to the one taken before the trial, and the pinned snapshot
  // never moved.
  const auto after = stack.timer->snapshot();
  EXPECT_TRUE(after->data().bytes_equal(snap->data()));
  EXPECT_EQ(state_signature(*snap), before);
}

TEST(Snapshot, StructuralTrialRollbackWithLiveSnapshot) {
  GeneratedStack stack(small_options(506));
  Design& design = stack.design();
  const std::vector<double> before = state_signature(*stack.timer);
  // The live snapshot shares the graph; the structural rollback must
  // restore the head without mutating the version the snapshot holds.
  const auto snap = stack.timer->snapshot();

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
  EXPECT_EQ(state_signature(*snap), before);
}

// --- concurrent readers -----------------------------------------------------

TEST(Snapshot, ConcurrentReaderStress) {
  GeneratedStack stack(small_options(507));
  const auto snap = stack.timer->snapshot();
  const std::vector<double> expected = state_signature(*snap);

  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (state_signature(*snap) != expected) {
          torn.store(true);
          return;
        }
      }
    });
  }

  // ECO storm on the writer thread while the readers hammer the snapshot.
  for (const auto& [inst, cell] :
       resize_plan(stack.library, stack.design(), 12, 7507)) {
    apply_resize(stack, inst, cell);
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(state_signature(*snap), expected);
}

// --- shell integration ------------------------------------------------------

TEST(SnapshotShell, EcoViewServesPreEcoState) {
  ShellSession session;
  LoadRequest request;
  request.gates = 220;
  request.flops = 32;
  request.seed = 11;
  request.utilization = 1.05;
  ASSERT_EQ(session.load(request), "");
  const std::vector<double> pre = state_signature(session.timer());

  ASSERT_EQ(session.begin_eco(), "");
  // Resize the first combinational instance to a same-footprint sibling.
  const Design& design = session.design();
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

  // Queries inside the transaction read the pinned pre-ECO version even
  // though the head already re-timed the resize.
  EXPECT_EQ(state_signature(*session.timing_view()), pre);
  EXPECT_NE(state_signature(session.timer()), pre);

  std::size_t records = 0;
  ASSERT_EQ(session.end_eco(records), "");
  EXPECT_EQ(state_signature(*session.timing_view()),
            state_signature(session.timer()));
}

TEST(SnapshotShell, PinAndReleaseCommands) {
  ShellSession session;
  LoadRequest request;
  request.gates = 220;
  request.flops = 32;
  request.seed = 11;
  request.utilization = 1.05;
  ASSERT_EQ(session.load(request), "");

  const std::size_t a = session.take_snapshot();
  const std::size_t b = session.take_snapshot();
  EXPECT_NE(a, b);
  EXPECT_EQ(session.num_pinned_snapshots(), 2u);
  EXPECT_EQ(session.timer().live_snapshots(), 2u);

  EXPECT_EQ(session.release_snapshot(a), "");
  EXPECT_NE(session.release_snapshot(a), "");  // double release reports
  EXPECT_EQ(session.num_pinned_snapshots(), 1u);

  // Reloading tears the timer down; pinned snapshots must go with it.
  ASSERT_EQ(session.load(request), "");
  EXPECT_EQ(session.num_pinned_snapshots(), 0u);
  EXPECT_EQ(session.timer().live_snapshots(), 0u);
}

}  // namespace
}  // namespace mgba
