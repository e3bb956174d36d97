#pragma once

/// \file corner_io.hpp
/// The multi-corner (MCMM) configuration bundle and its text format. An
/// AnalysisCorner (sta layer) carries only the library scaling; real
/// signoff corners also need their own AOCV derate table, which lives a
/// layer up (here) so the sta library keeps no aocv dependency. The
/// CornerSetup bundle pairs the two, and the corner spec file — the
/// argument of `mgba_timer --corners <file>` — declares one corner per
/// line:
///
///   # comment
///   corner <name> [delay <f>] [slew <f>] [constraint <f>] [derate_margin <k>]
///
///   corner slow delay 1.12 slew 1.06 constraint 1.04 derate_margin 1.3
///   corner fast delay 0.85 slew 0.92 derate_margin 0.7
///
/// Omitted factors default to 1.0. `derate_margin k` derives the corner's
/// AOCV table from the base table by scaling every derate margin
/// (DerateTable::scaled_margin); k defaults to 1 (the base table itself).

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "aocv/aocv_model.hpp"
#include "aocv/derate_table.hpp"
#include "sta/corner.hpp"
#include "sta/timer.hpp"

namespace mgba {

/// One analysis corner plus its AOCV derate table.
struct CornerSetup {
  AnalysisCorner corner;
  DerateTable table;
};

/// The single-corner default: an identity corner with the base table.
std::vector<CornerSetup> default_corner_setups(const DerateTable& base);

/// Parses the corner spec format above; every corner's table is derived
/// from \p base via its derate_margin. Malformed input, a scale factor
/// that is not positive, a negative margin or a duplicate corner name
/// throws InputError naming "<source>:<line>".
std::vector<CornerSetup> read_corners(std::istream& in,
                                      const DerateTable& base,
                                      const std::string& source);
std::vector<CornerSetup> corners_from_string(const std::string& text,
                                             const DerateTable& base);

/// Installs the corner set on a timer: set_corners with the AnalysisCorner
/// list, then install_corner_derates. Leaves the timer dirty; call
/// update_timing() when ready.
void apply_corner_setups(Timer& timer, std::span<const CornerSetup> setups,
                         const AocvOptions& options = {});

/// Installs every corner's GBA derates (Timer::set_corner_derates), each
/// from its own table, off one depth analysis of the timer's current graph:
/// depths and distances do not depend on the table. Bit-identical to
/// compute_gba_derates per corner. Leaves the timer dirty.
void install_corner_derates(Timer& timer, std::span<const CornerSetup> setups,
                            const AocvOptions& options = {});

}  // namespace mgba
