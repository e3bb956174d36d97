/// Copy-on-write snapshot bench: the cost model of the versioned timing
/// state, measured three ways.
///
///   1. Fork cost vs design size: Timer::snapshot() shares the chunk
///      pointer tables and bumps refcounts; the O(chunks) table split is
///      deferred to the first post-fork write, so a fork never touches
///      arena bytes. Reported next to a full arena byte copy
///      (dump_bytes) so the gap is visible per size.
///   2. ECO-storm throughput with 0 / 1 / 4 live snapshots: the same
///      deterministic resize storm (every step re-times the head and
///      queries WNS/TNS at every corner) with snapshots pinned the whole
///      time. Live snapshots force the chunk-granular privatize on every
///      touched write; the delta vs 0 snapshots is the whole price
///      readers impose on the writer.
///   3. Retained-byte overhead: cow_retained_bytes after the storm at
///      each snapshot count — what keeping old versions alive actually
///      holds in memory, vs the naive full-arena-copy-per-snapshot cost.
///
/// Divergence gates (both modes, exit nonzero on any failure): the head
/// timing state after the storm must be bit-identical across the 0/1/4
/// snapshot configurations, and every pinned snapshot must still answer
/// byte-for-byte what it answered at fork time. `--smoke` runs a
/// seconds-scale version wired into ctest as snapshot_cow_smoke.
///
/// Emits BENCH_snapshot_cow.json.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sta/snapshot.hpp"
#include "sta/state_signature.hpp"
#include "util/rng.hpp"

namespace mgba::bench {
namespace {

/// Deterministic non-clock resize storm against the pristine design; the
/// plan depends only on the stack's design and graph, identical across the
/// snapshot-count configurations, so every run replays the same ECOs.
std::vector<std::pair<InstanceId, std::size_t>> plan_storm(
    const BenchStack& stack, std::size_t count, std::uint64_t seed) {
  const std::size_t instances = stack.generated.design.num_instances();
  std::vector<std::pair<InstanceId, std::size_t>> plan;
  std::vector<std::uint8_t> used(instances, 0);
  Rng rng(seed);
  while (plan.size() < count) {
    const auto inst = static_cast<InstanceId>(rng.uniform_index(instances));
    if (used[inst]) continue;
    const auto sibling = resize_sibling(stack, inst);
    if (!sibling.has_value()) continue;
    used[inst] = 1;
    plan.emplace_back(inst, *sibling);
  }
  return plan;
}

struct ForkResult {
  std::size_t instances = 0;
  std::size_t arena_bytes = 0;
  std::size_t chunks = 0;
  double fork_us = 0.0;       ///< one snapshot() fork, best of reps
  double byte_copy_us = 0.0;  ///< full arena byte dump, the O(arena) foil
};

/// Times one fork against a full arena copy at one design size. The fork
/// bumps table refcounts; the copy walks every byte — the ratio is the
/// O(chunks touched) vs O(arena) claim in one number.
ForkResult run_fork(std::size_t target_instances, std::uint64_t seed) {
  auto stack =
      make_stack(scaled_design_options(target_instances, seed), 4000.0);
  ForkResult r;
  r.instances = stack->design().num_instances();
  const Timer::MemoryStats m = stack->timer->memory_stats();
  r.arena_bytes = m.arena_bytes;
  r.chunks = m.cow_chunks;

  // Each timed window ends before its snapshot and copy are released.
  BestOf fork;
  for (int i = 0; i < 16; ++i) {
    std::shared_ptr<const TimingSnapshot> snap;
    fork.time([&] { snap = stack->timer->snapshot(); });
  }
  r.fork_us = 1e3 * fork.ms();

  BestOf copy;
  for (int i = 0; i < 3; ++i) {
    std::shared_ptr<const TimingSnapshot> snap;
    std::vector<std::uint8_t> bytes;
    copy.time([&] {
      snap = stack->timer->snapshot();
      bytes = snap->data().dump_bytes();
    });
    if (bytes.size() != snap->data().bytes()) return r;  // keep bytes alive
  }
  r.byte_copy_us = 1e3 * copy.ms();

  std::printf(
      "fork  %8zu insts  arena %7.1f MB  %6zu chunks  fork %8.1f us  "
      "byte copy %10.1f us  (%.0fx)\n",
      r.instances, r.arena_bytes / 1048576.0, r.chunks, r.fork_us,
      r.byte_copy_us, r.byte_copy_us / std::max(r.fork_us, 0.01));
  return r;
}

struct StormResult {
  std::size_t live_snapshots = 0;
  double storm_ms = 0.0;
  std::size_t retained_bytes = 0;
  std::size_t shared_chunks = 0;
  bool identical = true;
};

/// Replays the deterministic resize storm with \p live snapshots pinned;
/// every step re-times the head and reads WNS/TNS at every corner. Fills
/// \p head_reference on the first call and bit-compares later configs
/// against it; also re-verifies every pinned snapshot against its
/// fork-time signature.
StormResult run_storm(std::size_t target_instances, std::uint64_t seed,
                      std::size_t live, std::size_t eco_size,
                      std::vector<double>& head_reference) {
  auto stack =
      make_stack(scaled_design_options(target_instances, seed), 2500.0);
  const auto plan = plan_storm(*stack, eco_size, 9001);

  std::vector<std::shared_ptr<const TimingSnapshot>> pinned;
  std::vector<std::vector<double>> pinned_sigs;
  for (std::size_t i = 0; i < live; ++i) {
    pinned.push_back(stack->timer->snapshot());
    pinned_sigs.push_back(state_signature(*pinned.back()));
  }

  StormResult r;
  r.live_snapshots = live;
  double checksum = 0.0;
  const Stopwatch storm;
  for (const auto& [inst, cell] : plan) {
    stack->design().resize_instance(inst, cell);
    stack->timer->invalidate_instance(inst);
    stack->timer->update_timing();
    for (CornerId c = 0; c < stack->timer->num_corners(); ++c) {
      checksum += stack->timer->wns(Mode::Late, c);
      checksum += stack->timer->tns(Mode::Late, c);
    }
  }
  r.storm_ms = storm.millis();
  if (checksum == 1e300) return r;  // defeat dead-code elimination

  const Timer::MemoryStats m = stack->timer->memory_stats();
  r.retained_bytes = m.cow_retained_bytes;
  r.shared_chunks = m.cow_shared_chunks;

  const std::vector<double> head = state_signature(*stack->timer);
  if (head_reference.empty()) {
    head_reference = head;
  } else if (!same_bits(head, head_reference)) {
    r.identical = false;
    std::printf("ERROR: head diverged with %zu live snapshots\n", live);
  }
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    if (!same_bits(state_signature(*pinned[i]), pinned_sigs[i])) {
      r.identical = false;
      std::printf("ERROR: snapshot %zu moved during the storm\n", i);
    }
  }

  std::printf(
      "storm %zu snapshots  %8.1f ms  retained %8.2f MB  shared chunks "
      "%6zu\n",
      live, r.storm_ms, r.retained_bytes / 1048576.0, r.shared_chunks);
  return r;
}

int run(bool smoke) {
  const std::vector<std::size_t> fork_sizes =
      smoke ? std::vector<std::size_t>{3'000}
            : std::vector<std::size_t>{12'000, 60'000, 250'000};
  std::vector<ForkResult> forks;
  for (const std::size_t size : fork_sizes) forks.push_back(run_fork(size, 7));

  const std::size_t storm_instances = smoke ? 3'000 : 60'000;
  const std::size_t eco_size = smoke ? 8 : 48;
  std::vector<double> head_reference;
  std::vector<StormResult> storms;
  for (const std::size_t live : {std::size_t{0}, std::size_t{1},
                                 std::size_t{4}}) {
    storms.push_back(
        run_storm(storm_instances, 11, live, eco_size, head_reference));
  }
  bool identical = true;
  for (const StormResult& s : storms) identical = identical && s.identical;

  if (smoke) {
    std::printf(identical
                    ? "smoke OK: head and pinned snapshots bit-stable at "
                      "0/1/4 live snapshots\n"
                    : "smoke FAILED\n");
    return identical ? 0 : 1;
  }

  std::vector<JsonObject> fork_rows, storm_rows;
  for (const ForkResult& f : forks) {
    fork_rows.emplace_back()
        .add("instances", f.instances)
        .add("arena_bytes", f.arena_bytes)
        .add("chunks", f.chunks)
        .add("fork_us", f.fork_us, 2)
        .add("arena_byte_copy_us", f.byte_copy_us, 1)
        .add("copy_over_fork", f.byte_copy_us / std::max(f.fork_us, 0.01), 1);
  }
  for (const StormResult& s : storms) {
    storm_rows.emplace_back()
        .add("live_snapshots", s.live_snapshots)
        .add("storm_ms", s.storm_ms, 2)
        .add("retained_bytes", s.retained_bytes)
        .add("shared_chunks", s.shared_chunks)
        .add("overhead_vs_none", s.storm_ms / storms[0].storm_ms, 3);
  }
  JsonObject storm, doc;
  storm.add("instances", storm_instances)
      .add("resizes", eco_size)
      .add("configs", storm_rows);
  doc.add("bit_identical_all_configs", identical)
      .add("fork_cost", fork_rows)
      .add("eco_storm", storm);
  if (!write_json("BENCH_snapshot_cow.json", doc)) return 1;
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace mgba::bench

int main(int argc, char** argv) {
  return mgba::bench::run(mgba::bench::smoke_flag(argc, argv));
}
