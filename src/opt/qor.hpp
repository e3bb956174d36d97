#pragma once

/// \file qor.hpp
/// Quality-of-result metrics for the timing-closure comparison of paper
/// Table 2: WNS, TNS, chip area, leakage power, and buffer count.

#include <cstddef>
#include <string>
#include <vector>

#include "aocv/derate_table.hpp"
#include "netlist/design.hpp"
#include "sta/timer.hpp"

namespace mgba {

class PathEngineHub;  // pba/path_engine.hpp

struct QorMetrics {
  double wns_ps = 0.0;
  double tns_ps = 0.0;
  std::size_t violations = 0;
  double area_um2 = 0.0;
  double leakage_nw = 0.0;
  std::size_t buffer_count = 0;

  [[nodiscard]] std::string to_string() const;
};

/// QoR as seen by the timer's current (GBA or mGBA) slacks, merged across
/// corners: per-endpoint worst-corner slack feeds WNS/TNS/violations. With
/// a single corner this is exactly that corner's QoR (and bit-identical to
/// the pre-MCMM metric).
QorMetrics measure_qor(const Timer& timer);

/// QoR of one specific corner.
QorMetrics measure_qor(const Timer& timer, CornerId corner);

/// One QorMetrics per corner, in corner order (the per-corner rows of the
/// multi-corner Table 2 view; area/leakage/buffers repeat per row since
/// they are corner-independent).
std::vector<QorMetrics> measure_qor_per_corner(const Timer& timer);

/// Sign-off QoR: WNS/TNS measured with golden PBA slacks (the worst PBA
/// slack per endpoint over its \p paths_per_endpoint GBA-worst paths),
/// served from \p path_hub's persistent PathEngine: the enumeration is
/// warm across measurement rounds and the evaluator shares the engine's
/// pinned view, so a round forks no snapshot. PBA re-derates from base
/// delays, so each path's golden slack ignores the installed mGBA weights.
/// Which paths are measured does not: the engine ranks each endpoint's k
/// paths by the timer's arc delays, which carry the weights, so an
/// installed fit decides which paths golden PBA sees (ROADMAP.md, "Sign-off
/// that does not depend on the fit").
QorMetrics measure_golden_qor(Timer& timer, const DerateTable& table,
                              PathEngineHub& path_hub,
                              std::size_t paths_per_endpoint = 8);

/// Total number of buffer-kind instances in a design.
std::size_t count_buffers(const Design& design);

}  // namespace mgba
