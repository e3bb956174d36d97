#include "aocv/aocv_model.hpp"

namespace mgba {

std::vector<DeratePair> compute_gba_derates(const TimingGraph& graph,
                                            const DerateTable& table,
                                            const AocvOptions& options) {
  return gba_derates(DepthAnalysis(graph), table, options);
}

std::vector<DeratePair> gba_derates(const DepthAnalysis& analysis,
                                    const DerateTable& table,
                                    const AocvOptions& options) {
  std::vector<DeratePair> derates(analysis.num_instances());
  for (std::size_t i = 0; i < derates.size(); ++i) {
    derates[i] =
        gba_derate(analysis.info(static_cast<InstanceId>(i)), table, options);
  }
  return derates;
}

DeratePair gba_derate(const InstanceAocvInfo& info, const DerateTable& table,
                      const AocvOptions& options) {
  DeratePair derate;
  const bool apply = (info.on_data_path && options.derate_data_cells) ||
                     (info.on_clock_path && options.derate_clock_cells);
  if (!apply) return derate;
  derate.late = table.late(info.depth, info.distance_um);
  derate.early = table.early(info.depth, info.distance_um);
  return derate;
}

}  // namespace mgba
