/// Path-engine fastpath bench (PR 10): warm re-enumeration through a
/// persistent PathEngine vs the cold k-best DP a fresh PathEnumerator
/// runs, after a localized gate-resize ECO. On generated designs at two
/// scales (50k instances at k=8, ~1M at k=4) it times, single thread,
/// best-of-reps:
///
///   1. cold_enum_ms: constructing a fresh PathEnumerator on the post-ECO
///      timing state — the full level-ordered DP over every node, what
///      every fit/QoR round paid before this PR.
///   2. warm_sync_ms: PathEngine::sync() on the same ECO — version diff,
///      forward-cone flagging, and the push-style re-merge of flagged
///      levels only. Carries the acceptance criterion: >= 3x over cold on
///      the 50k design.
///
/// Correctness gates the numbers: on the 50k design the engine's whole
/// path set is byte-compared against the cold enumerator's after every
/// ECO at 1 and 4 threads; the ~1M design streams the comparison per
/// endpoint at 4 threads. Any divergence prints the offending config and
/// the binary exits nonzero. Emits BENCH_pba_fastpath.json. `--smoke`
/// runs a seconds-scale design with the same exit contract — wired into
/// ctest as pba_fastpath_smoke.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pba/path_engine.hpp"
#include "pba/path_enum.hpp"
#include "util/float_bits.hpp"
#include "util/thread_pool.hpp"

namespace mgba::bench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// First resizable non-clock combinational gate with a same-footprint
/// sibling cell: the localized-ECO victim.
struct EcoVictim {
  bool found = false;
  InstanceId inst = 0;
  std::size_t base_cell = 0;
  std::size_t alt_cell = 0;
};

EcoVictim find_victim(const Library& library, const Design& design,
                      const Timer& timer) {
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto inst = static_cast<InstanceId>(i);
    const LibCell& cell = design.cell_of(inst);
    if (cell.kind == CellKind::FlipFlop) continue;
    const NodeId out = timer.graph().node_of_pin(
        inst, static_cast<std::uint32_t>(cell.output_pin()));
    if (out == kInvalidNode || timer.graph().node(out).is_clock_network) {
      continue;
    }
    for (std::size_t j = 0; j < library.num_cells(); ++j) {
      const LibCell& c = library.cell(j);
      if (c.footprint == cell.footprint && j != design.instance(inst).cell &&
          c.kind != CellKind::FlipFlop) {
        return {true, inst, design.instance(inst).cell, j};
      }
    }
  }
  return {};
}

/// Canonical bit image of one path list: lengths, node/arc ids, launch
/// check, and the GBA arrival down to the last bit.
std::vector<std::uint64_t> path_signature(
    const std::vector<TimingPath>& paths) {
  std::vector<std::uint64_t> sig;
  sig.reserve(paths.size() * 8);
  for (const TimingPath& p : paths) {
    sig.push_back(p.nodes.size());
    for (const NodeId n : p.nodes) sig.push_back(n);
    for (const ArcId a : p.arcs) sig.push_back(a);
    sig.push_back(p.launch_check.has_value() ? *p.launch_check + 1 : 0);
    sig.push_back(float_bits(p.gba_arrival_ps));
  }
  return sig;
}

/// Streaming per-endpoint comparison (the ~1M design: both whole path
/// sets materialized at once would double peak memory for no extra
/// information).
bool paths_match_streaming(const PathEngine& engine,
                           const PathEnumerator& cold,
                           const TimingGraph& graph) {
  for (const NodeId e : graph.endpoints()) {
    if (path_signature(engine.paths_to(e)) !=
        path_signature(cold.paths_to(e))) {
      return false;
    }
  }
  return true;
}

struct ThreadCheck {
  bool identical_t1 = true;  ///< engine == cold enumerator, 1 thread
  bool identical_t4 = true;  ///< engine == cold enumerator, 4 threads
};

struct DesignResult {
  std::string name;
  std::size_t instances = 0;
  std::size_t endpoints = 0;
  std::size_t k = 0;
  double cold_build_ms = 0.0;  ///< first engine sync (dense cold DP)
  double cold_enum_ms = 0.0;   ///< fresh PathEnumerator after the ECO
  double warm_sync_ms = 0.0;   ///< engine sync after the same ECO
  std::string engine_stats;
  ThreadCheck check;
  bool identical = true;
};

/// One ECO round trip on the victim, syncing \p engine at both edges so
/// the arena ends where it started.
void eco_round_trip(BenchStack& stack, Timer& timer, const EcoVictim& victim,
                    PathEngine& engine) {
  stack.design().resize_instance(victim.inst, victim.alt_cell);
  timer.invalidate_instance(victim.inst);
  engine.sync();
  stack.design().resize_instance(victim.inst, victim.base_cell);
  timer.invalidate_instance(victim.inst);
  engine.sync();
}

DesignResult run_design(std::size_t target, int d, double period_ps,
                        std::size_t k, int reps, bool full_compare) {
  GeneratorOptions gen = scaled_design_options(target, d);
  gen.name = "pba_fastpath_" + std::to_string(target);
  BenchStack stack(gen);
  stack.constraints.clock_port = stack.generated.clock_port;
  stack.constraints.clock_period_ps = period_ps;
  // CRPR off at scale: its credit recomputation is orthogonal scalar graph
  // walking.
  stack.constraints.enable_crpr = false;
  stack.timer =
      std::make_unique<Timer>(stack.generated.design, stack.constraints);
  Timer& timer = *stack.timer;
  timer.set_instance_derates(compute_gba_derates(timer.graph(), stack.table));
  timer.update_timing();

  DesignResult res;
  res.name = gen.name;
  res.instances = stack.design().num_instances();
  res.endpoints = timer.graph().endpoints().size();
  res.k = k;

  const EcoVictim victim = find_victim(stack.library, stack.design(), timer);
  if (!victim.found) {
    std::printf("ERROR: no resizable victim in %s\n", res.name.c_str());
    res.identical = false;
    return res;
  }

  set_num_threads(1);

  // --- timings (single thread) -------------------------------------------
  PathEngine engine(timer, k);
  {
    const double t0 = now_ms();
    engine.sync();
    res.cold_build_ms = now_ms() - t0;
  }

  res.cold_enum_ms = 1e300;
  res.warm_sync_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    // Forward edge: timed warm sync on the post-ECO state.
    stack.design().resize_instance(victim.inst, victim.alt_cell);
    timer.invalidate_instance(victim.inst);
    double t0 = now_ms();
    engine.sync();
    res.warm_sync_ms = std::min(res.warm_sync_ms, now_ms() - t0);

    // Cold reference on the identical state (timer already up to date, so
    // the constructor's DP is the whole measurement).
    t0 = now_ms();
    const PathEnumerator cold(timer, k);
    res.cold_enum_ms = std::min(res.cold_enum_ms, now_ms() - t0);
    if (rep == 0) {
      const bool match =
          full_compare
              ? path_signature(engine.all_paths()) ==
                    path_signature(cold.all_paths())
              : paths_match_streaming(engine, cold, timer.graph());
      if (!match) {
        std::printf("DIVERGENCE: design %s warm vs cold after ECO\n",
                    res.name.c_str());
        res.identical = false;
      }
    }

    // Back edge: restore (untimed warm sync keeps the arena in step).
    stack.design().resize_instance(victim.inst, victim.base_cell);
    timer.invalidate_instance(victim.inst);
    engine.sync();
  }
  res.engine_stats = engine.stats().to_string();

  // --- byte-identity sweep: threads --------------------------------------
  if (full_compare) {
    std::vector<std::uint64_t> reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      set_num_threads(threads);
      PathEngine probe(timer, k);
      probe.sync();
      eco_round_trip(stack, timer, victim, probe);
      const std::vector<std::uint64_t> sig = path_signature(probe.all_paths());
      if (reference.empty()) reference = sig;
      const bool same = sig == reference;
      (threads == 1 ? res.check.identical_t1 : res.check.identical_t4) = same;
      if (!same) {
        std::printf("DIVERGENCE: design %s threads %zu\n", res.name.c_str(),
                    threads);
        res.identical = false;
      }
    }
  } else {
    // At scale: 4-thread warm resync streamed against a cold enumerator.
    set_num_threads(4);
    PathEngine probe(timer, k);
    probe.sync();
    eco_round_trip(stack, timer, victim, probe);
    const PathEnumerator cold(timer, k);
    res.check.identical_t4 = paths_match_streaming(probe, cold, timer.graph());
    if (!res.check.identical_t4) {
      std::printf("DIVERGENCE: design %s 4-thread warm vs cold\n",
                  res.name.c_str());
      res.identical = false;
    }
  }
  set_num_threads(1);

  std::printf(
      "  %-22s: cold build %.2f ms, cold enum %.2f ms, warm sync %.3f ms "
      "(%.1fx), %s\n",
      res.name.c_str(), res.cold_build_ms, res.cold_enum_ms, res.warm_sync_ms,
      res.cold_enum_ms / res.warm_sync_ms,
      res.identical ? "byte-identical" : "DIVERGED");
  std::printf("    engine: %s\n", res.engine_stats.c_str());
  return res;
}

int run(bool smoke) {
  const int reps = smoke ? 2 : 5;
  std::vector<DesignResult> designs;
  if (smoke) {
    designs.push_back(run_design(12'000, 3, 2200.0, 8, reps, true));
  } else {
    designs.push_back(run_design(50'000, 3, 2200.0, 8, reps, true));
    designs.push_back(run_design(1'050'000, 7, 4000.0, 4, reps, false));
  }

  bool identical = true;
  for (const DesignResult& d : designs) identical = identical && d.identical;

  const DesignResult& accept = designs.front();
  const double speedup = accept.cold_enum_ms / accept.warm_sync_ms;
  std::printf(
      "warm re-enumeration speedup on %s: %.2fx (acceptance >= 3x)\n",
      accept.name.c_str(), speedup);

  if (smoke) {
    std::printf(identical
                    ? "smoke OK: warm path sets byte-identical across "
                      "threads\n"
                    : "smoke FAILED\n");
    return identical ? 0 : 1;
  }

  std::FILE* out = std::fopen("BENCH_pba_fastpath.json", "w");
  if (out == nullptr) {
    std::printf("ERROR: cannot open BENCH_pba_fastpath.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"reps_best_of\": %d,\n", reps);
  std::fprintf(out, "  \"path_sets_byte_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(out,
               "  \"acceptance\": {\"design\": \"%s\", \"metric\": "
               "\"warm_sync_vs_cold_enumeration_single_thread\", "
               "\"baseline\": \"cold\", \"required_speedup\": 3.0, "
               "\"measured_speedup\": %.3f, \"pass\": %s},\n",
               accept.name.c_str(), speedup,
               speedup >= 3.0 ? "true" : "false");
  std::fprintf(out, "  \"designs\": [\n");
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const DesignResult& d = designs[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"instances\": %zu, "
                 "\"endpoints\": %zu, \"k\": %zu,\n",
                 d.name.c_str(), d.instances, d.endpoints, d.k);
    std::fprintf(out,
                 "     \"cold_build_ms\": %.3f, \"cold_enum_ms\": %.3f, "
                 "\"warm_sync_ms\": %.4f, \"warm_speedup\": %.3f,\n",
                 d.cold_build_ms, d.cold_enum_ms, d.warm_sync_ms,
                 d.cold_enum_ms / d.warm_sync_ms);
    std::fprintf(out, "     \"engine_stats\": \"%s\",\n",
                 d.engine_stats.c_str());
    std::fprintf(out,
                 "     \"bit_identical_t1\": %s, \"bit_identical_t4\": %s}%s\n",
                 d.check.identical_t1 ? "true" : "false",
                 d.check.identical_t4 ? "true" : "false",
                 i + 1 < designs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_pba_fastpath.json\n");
  return identical && speedup >= 3.0 ? 0 : 1;
}

}  // namespace
}  // namespace mgba::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return mgba::bench::run(smoke);
}
