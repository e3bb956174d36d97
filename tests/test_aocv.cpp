#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "aocv/depth_analysis.hpp"
#include "aocv/derate_io.hpp"
#include "aocv/derate_table.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "test_helpers.hpp"
#include "util/float_bits.hpp"

namespace mgba {
namespace {

using testing_helpers::BufferSinkKind;
using testing_helpers::GeneratedStack;
using testing_helpers::MovedRangeExtreme;
using testing_helpers::pick_buffer_site;
using testing_helpers::pick_extreme_site;
using testing_helpers::small_options;

TEST(DerateTable, PaperTable1ExactValues) {
  const DerateTable t = paper_table1();
  EXPECT_DOUBLE_EQ(t.late(3, 0.5), 1.30);
  EXPECT_DOUBLE_EQ(t.late(6, 0.5), 1.15);
  EXPECT_DOUBLE_EQ(t.late(4, 1.0), 1.27);
  EXPECT_DOUBLE_EQ(t.late(5, 1.5), 1.28);
  EXPECT_DOUBLE_EQ(t.late(6, 1.5), 1.25);
}

TEST(DerateTable, ClampsOutsideAxes) {
  const DerateTable t = paper_table1();
  EXPECT_DOUBLE_EQ(t.late(1, 0.1), 1.30);    // clamp depth low, dist low
  EXPECT_DOUBLE_EQ(t.late(100, 9.0), 1.25);  // clamp depth high, dist high
}

TEST(DerateTable, InterpolatesBetweenGridPoints) {
  const DerateTable t = paper_table1();
  const double v = t.late(3.5, 0.5);
  EXPECT_GT(v, 1.25);
  EXPECT_LT(v, 1.30);
  EXPECT_DOUBLE_EQ(v, 0.5 * (1.30 + 1.25));
}

TEST(DerateTable, EarlyMirrorsLate) {
  const DerateTable t = paper_table1();
  // early = clamp(2 - late): late 1.30 -> early 0.70.
  EXPECT_DOUBLE_EQ(t.early(3, 0.5), 0.70);
  EXPECT_DOUBLE_EQ(t.early(6, 0.5), 0.85);
}

TEST(DerateTable, ExplicitEarlyTable) {
  const DerateTable t({1, 2}, {10.0}, {1.2, 1.1}, {0.9, 0.95});
  EXPECT_DOUBLE_EQ(t.early(1, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(t.early(2, 10.0), 0.95);
}

TEST(DerateTable, DefaultTableMonotoneAndBounded) {
  const DerateTable t = default_aocv_table();
  double prev = 10.0;
  for (const double depth : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double v = t.late(depth, 100.0);
    EXPECT_LT(v, prev);
    EXPECT_GE(v, 1.0);
    prev = v;
  }
  prev = 0.0;
  for (const double dist : {10.0, 100.0, 1000.0, 2000.0}) {
    const double v = t.late(8.0, dist);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(DerateIo, RoundTripPreservesLookups) {
  const DerateTable original = paper_table1();
  const DerateTable reloaded =
      derate_table_from_string(derate_table_to_string(original));
  for (const double depth : {3.0, 4.5, 6.0, 10.0}) {
    for (const double dist : {0.3, 0.75, 1.5, 2.0}) {
      EXPECT_NEAR(reloaded.late(depth, dist), original.late(depth, dist),
                  1e-9);
      EXPECT_NEAR(reloaded.early(depth, dist), original.early(depth, dist),
                  1e-9);
    }
  }
}

TEST(DerateIo, ParsesPaperTable1Text) {
  const DerateTable t = derate_table_from_string(
      "# Table 1 of the paper\n"
      "depth 3 4 5 6\n"
      "500nm 1.30 1.25 1.20 1.15\n"
      "1000nm 1.32 1.27 1.23 1.18\n"
      "1500nm 1.35 1.31 1.28 1.25\n");
  EXPECT_DOUBLE_EQ(t.late(3, 0.5), 1.30);
  EXPECT_DOUBLE_EQ(t.late(6, 1.5), 1.25);
  // Derived early factors.
  EXPECT_DOUBLE_EQ(t.early(3, 0.5), 0.70);
}

TEST(DerateIo, ParsesMicrometreUnits) {
  const DerateTable t = derate_table_from_string(
      "depth 1 2\n"
      "10um 1.2 1.1\n"
      "100 1.3 1.2\n");
  EXPECT_DOUBLE_EQ(t.late(1, 10.0), 1.2);
  EXPECT_DOUBLE_EQ(t.late(2, 100.0), 1.2);
}

TEST(DerateIo, ExplicitEarlyBlock) {
  const DerateTable t = derate_table_from_string(
      "depth 1 2\n"
      "10 1.2 1.1\n"
      "early\n"
      "depth 1 2\n"
      "10 0.85 0.9\n");
  EXPECT_DOUBLE_EQ(t.early(1, 10.0), 0.85);
  EXPECT_DOUBLE_EQ(t.early(2, 10.0), 0.9);
}

TEST(BoundingBox, ExpandMergeDistance) {
  BoundingBox a;
  EXPECT_TRUE(a.empty());
  a.expand({0, 0});
  a.expand({2, 3});
  EXPECT_FALSE(a.empty());
  BoundingBox b;
  b.expand({10, 10});
  EXPECT_DOUBLE_EQ(a.max_manhattan_to(b), 10.0 + 10.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.max_x, 10.0);
  // Overlapping boxes still have the max corner-to-corner span.
  BoundingBox c;
  c.expand({1, 1});
  EXPECT_DOUBLE_EQ(a.max_manhattan_to(c), 9.0 + 9.0);
}

TEST(BoundingBox, EmptyBoxesGiveZeroDistance) {
  BoundingBox a, b;
  EXPECT_DOUBLE_EQ(a.max_manhattan_to(b), 0.0);
  a.expand({5, 5});
  EXPECT_DOUBLE_EQ(a.max_manhattan_to(b), 0.0);
}

TEST(DepthAnalysis, GbaNeverExceedsPbaPerPath) {
  GeneratedStack stack(small_options(21));
  const Timer& timer = *stack.timer;
  const DepthAnalysis analysis(timer.graph());
  const PathEnumerator enumerator(timer, 6);

  std::size_t cells_checked = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const std::size_t pba_depth =
        DepthAnalysis::path_depth(timer.graph(), path.nodes);
    const double pba_dist =
        DepthAnalysis::path_distance_um(timer.graph(), path.nodes);
    for (const ArcId a : path.arcs) {
      const TimingArc& arc = timer.graph().arc(a);
      if (arc.kind != TimingArc::Kind::Cell) continue;
      if (!timer.is_weighted(a)) continue;
      const InstanceAocvInfo& info = analysis.info(arc.inst);
      ASSERT_TRUE(info.on_data_path);
      // Worst (GBA) depth <= exact path depth; worst distance >= exact.
      EXPECT_LE(info.depth, static_cast<double>(pba_depth));
      EXPECT_GE(info.distance_um, pba_dist - 1e-9);
      // Hence the GBA derate dominates the PBA derate.
      EXPECT_GE(stack.table.late(info.depth, info.distance_um),
                stack.table.late(static_cast<double>(pba_depth), pba_dist) -
                    1e-12);
      ++cells_checked;
    }
  }
  EXPECT_GT(cells_checked, 500u);
}

TEST(DepthAnalysis, ClockCellsMarked) {
  GeneratedStack stack(small_options(22));
  const DepthAnalysis analysis(stack.timer->graph());
  const Design& design = stack.design();
  std::size_t clock_cells = 0;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto& info = analysis.info(static_cast<InstanceId>(i));
    if (info.on_clock_path) {
      ++clock_cells;
      EXPECT_FALSE(info.on_data_path);
      EXPECT_GE(info.depth, 1.0);
    }
  }
  EXPECT_GT(clock_cells, 0u);
}

/// Bitwise equality of two derate vectors.
bool same_derates(const std::vector<DeratePair>& a,
                  const std::vector<DeratePair>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (float_bits(a[i].late) != float_bits(b[i].late) ||
        float_bits(a[i].early) != float_bits(b[i].early)) {
      return false;
    }
  }
  return true;
}

TEST(DepthAnalysis, BufferUpdateMatchesFullAnalysis) {
  // with_buffer carries the depth state through one inserted buffer. After
  // each insertion — first the moved range's extremes (a net driven from
  // level 0 or 1, a sink whose raised cone lands on the top level, a
  // rejected trial, an endpoint on the top level and that sink again),
  // then 40 seeded ones per design (every seventh rejected) — every
  // instance's info equals a full analysis of the patched graph, and
  // derates patched the way the closer patches them — the previous vector,
  // grown, with the moved instances re-derived — equal compute_gba_derates
  // bit for bit under two different derate tables. A rejected insertion
  // leaves a tombstone and the previous state.
  const Library library = make_default_library();
  const std::size_t buffer_cell = *library.strongest_buffer();
  const DerateTable base = default_aocv_table();
  const std::vector<DerateTable> tables = {base, base.scaled_margin(1.7)};
  GeneratorOptions small = small_options(71);
  small.num_gates = 600;
  std::size_t moved_others = 0;
  for (const GeneratorOptions& options :
       {benchmark_design_options(1), benchmark_design_options(3), small}) {
    SCOPED_TRACE(options.name + " seed " + std::to_string(options.seed));
    GeneratedDesign generated = generate_design(library, options);
    Design& design = generated.design;
    auto graph = std::make_unique<TimingGraph>(design, generated.clock_port);
    auto state = std::make_unique<DepthAnalysis>(*graph);
    std::vector<std::vector<DeratePair>> derates;
    for (const DerateTable& table : tables) {
      derates.push_back(gba_derates(*state, table));
    }
    std::size_t count = 0;
    // One insertion at (net, sink), checked against a full analysis;
    // returns the buffer.
    const auto insert = [&](NetId net, const Terminal& sink, bool reject) {
      const InstanceId buffer = design.insert_buffer_for_sink(
          net, sink, buffer_cell, "depthbuf" + std::to_string(count++),
          design.terminal_location(*design.net(net).driver));
      BufferPatch patch;
      auto patched = std::make_unique<TimingGraph>(*graph, buffer, patch);
      std::vector<InstanceId> moved;
      auto next = std::make_unique<DepthAnalysis>(
          state->with_buffer(*patched, patch, moved));
      moved_others += moved.size() > 1 ? 1 : 0;

      const DepthAnalysis full(*patched);
      EXPECT_EQ(next->num_instances(), full.num_instances());
      if (HasFailure()) return buffer;
      for (InstanceId i = 0; i < full.num_instances(); ++i) {
        const InstanceAocvInfo& got = next->info(i);
        const InstanceAocvInfo& want = full.info(i);
        EXPECT_EQ(got.on_data_path, want.on_data_path) << "instance " << i;
        EXPECT_EQ(got.on_clock_path, want.on_clock_path) << "instance " << i;
        EXPECT_EQ(float_bits(got.depth), float_bits(want.depth))
            << "instance " << i;
        EXPECT_EQ(float_bits(got.distance_um), float_bits(want.distance_um))
            << "instance " << i;
        if (HasFailure()) return buffer;
      }
      std::vector<std::vector<DeratePair>> next_derates = derates;
      for (std::size_t t = 0; t < tables.size(); ++t) {
        next_derates[t].resize(design.num_instances());
        for (const InstanceId i : moved) {
          next_derates[t][i] = gba_derate(next->info(i), tables[t]);
        }
        EXPECT_TRUE(same_derates(next_derates[t],
                                 compute_gba_derates(*patched, tables[t])))
            << "table " << t;
      }

      if (reject) {
        design.remove_buffer(buffer, net);
        graph->pad_instances(design.num_instances());
      } else {
        graph = std::move(patched);
        state = std::move(next);
        derates = std::move(next_derates);
      }
      return buffer;
    };

    for (const MovedRangeExtreme kind :
         {MovedRangeExtreme::NearlyAll, MovedRangeExtreme::NearTop}) {
      SCOPED_TRACE("extreme " + std::to_string(static_cast<int>(kind)));
      const auto site = pick_extreme_site(design, *graph, kind);
      ASSERT_TRUE(site.has_value());
      insert(site->first, site->second, false);
      if (HasFailure()) return;
    }
    Rng rng(options.seed * 3 + 1);
    {
      SCOPED_TRACE("tombstone");
      const auto site =
          pick_buffer_site(design, *graph, rng, BufferSinkKind::Any);
      ASSERT_TRUE(site.has_value());
      insert(site->first, site->second, true);
      if (HasFailure()) return;
    }
    {
      SCOPED_TRACE("top and the same sink again");
      const auto site =
          pick_extreme_site(design, *graph, MovedRangeExtreme::Top);
      ASSERT_TRUE(site.has_value());
      const InstanceId top = insert(site->first, site->second, false);
      if (HasFailure()) return;
      const NetId out =
          design.instance(top).pin_nets[design.cell_of(top).output_pin()];
      insert(out, site->second, false);
      if (HasFailure()) return;
    }

    for (std::size_t step = 0; step < 40; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      auto site = pick_buffer_site(design, *graph, rng,
                                   static_cast<BufferSinkKind>(step % 5));
      if (!site.has_value()) {
        site = pick_buffer_site(design, *graph, rng, BufferSinkKind::Any);
      }
      ASSERT_TRUE(site.has_value());
      insert(site->first, site->second, step % 7 == 3);
      if (HasFailure()) return;
    }
  }
  // Some insertions moved depths beyond the buffer's own.
  EXPECT_GT(moved_others, 0u);
}

TEST(AocvModel, DeratesIdentityForFlops) {
  GeneratedStack stack(small_options(23));
  const auto derates =
      compute_gba_derates(stack.timer->graph(), stack.table);
  const Design& design = stack.design();
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (design.cell_of(id).kind == CellKind::FlipFlop) {
      EXPECT_DOUBLE_EQ(derates[i].late, 1.0);
      EXPECT_DOUBLE_EQ(derates[i].early, 1.0);
    } else {
      EXPECT_GE(derates[i].late, 1.0);
      EXPECT_LE(derates[i].early, 1.0);
    }
  }
}

TEST(AocvModel, OptionsDisableClockOrData) {
  GeneratedStack stack(small_options(24));
  AocvOptions no_clock;
  no_clock.derate_clock_cells = false;
  const auto derates =
      compute_gba_derates(stack.timer->graph(), stack.table, no_clock);
  const DepthAnalysis analysis(stack.timer->graph());
  for (std::size_t i = 0; i < derates.size(); ++i) {
    if (analysis.info(static_cast<InstanceId>(i)).on_clock_path) {
      EXPECT_DOUBLE_EQ(derates[i].late, 1.0);
    }
  }
}

TEST(AocvModel, GbaSlacksNeverOptimisticVsPba) {
  // The end-to-end pessimism invariant: for every enumerated path, the GBA
  // path slack is <= the golden PBA path slack (GBA is conservative).
  GeneratedStack stack(small_options(25), 2500.0);
  Timer& timer = *stack.timer;
  const PathEnumerator enumerator(timer, 8);
  const PathEvaluator evaluator(timer, stack.table);
  std::size_t paths = 0;
  for (const TimingPath& path : enumerator.all_paths()) {
    const PathTiming pt = evaluator.evaluate(path);
    EXPECT_LE(pt.gba_slack_ps, pt.pba_slack_ps + 1e-6);
    ++paths;
  }
  EXPECT_GT(paths, 100u);
}

}  // namespace
}  // namespace mgba
