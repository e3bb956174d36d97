#pragma once

/// \file aocv_model.hpp
/// Glue between the derate table and the timer: computes the per-instance
/// GBA derate factors from the worst-case depth/distance analysis, and
/// exposes per-path (PBA) derate lookups for the path-based engine.

#include <vector>

#include "aocv/depth_analysis.hpp"
#include "aocv/derate_table.hpp"
#include "sta/timing_graph.hpp"
#include "sta/timing_types.hpp"

namespace mgba {

struct AocvOptions {
  /// Apply derates to clock-network cells (launch late / capture early).
  bool derate_clock_cells = true;
  /// Apply derates to combinational data cells.
  bool derate_data_cells = true;
};

/// GBA derates for every instance: data cells use their worst data-path
/// depth/distance, clock cells their clock-path depth/distance; flip-flops
/// and cells on neither kind of path stay at identity. The returned vector
/// is indexed by InstanceId and feeds Timer::set_instance_derates.
std::vector<DeratePair> compute_gba_derates(const TimingGraph& graph,
                                            const DerateTable& table,
                                            const AocvOptions& options = {});

/// The same derates from an existing analysis (one analysis serves every
/// corner's table: depths and distances do not depend on it).
std::vector<DeratePair> gba_derates(const DepthAnalysis& analysis,
                                    const DerateTable& table,
                                    const AocvOptions& options = {});

/// One instance's entry of gba_derates.
DeratePair gba_derate(const InstanceAocvInfo& info, const DerateTable& table,
                      const AocvOptions& options = {});

}  // namespace mgba
