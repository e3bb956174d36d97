#pragma once

/// \file path_report.hpp
/// Stage-by-stage GBA-vs-PBA comparison report for one timing path: the
/// diagnostic a timing engineer reads to see exactly where the pessimism
/// sits (which gates carry an inflated derate, where worst-slew diverges
/// from the path slew, what CRPR credit differs).

#include <string>

#include "aocv/derate_table.hpp"
#include "pba/path.hpp"
#include "sta/timer.hpp"

namespace mgba {

/// Renders the path with, per cell stage: base delay, the GBA factor
/// (derate x weight) and resulting delay, the PBA path derate and delay,
/// and the running arrivals; followed by the endpoint summary (required
/// times, CRPR credits, slacks). Both columns are the default corner's:
/// the PBA delays are PathEvaluator's own walk, so the last PBA arrival is
/// evaluate(path).pba_arrival_ps, library scaling included.
std::string report_path_comparison(const Timer& timer,
                                   const DerateTable& table,
                                   const TimingPath& path);

}  // namespace mgba
