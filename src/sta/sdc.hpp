#pragma once

/// \file sdc.hpp
/// Parser for the subset of Synopsys Design Constraints (SDC) this timer
/// honors. One command per line; a trailing backslash continues a line.
///
///   create_clock -name core -period 1200 [get_ports CLK]
///   set_clock_uncertainty 35
///   set_input_delay 120 [get_ports in_0]
///   set_input_delay 80                      # default for all inputs
///   set_output_delay 150 [get_ports out_3]
///   set_input_transition 25
///
/// Units are ps throughout (matching the library). Names follow the
/// shared lexical rule (util/input.hpp). Unknown commands are errors —
/// silently ignored constraints are how real chips die.

#include <iosfwd>
#include <string>

#include "sta/constraints.hpp"

namespace mgba {

/// Parses SDC text into a TimingConstraints, starting from \p base (so
/// programmatic defaults survive for anything the file does not set).
/// \p sets_period, when given, receives whether a create_clock -period
/// set the clock period. Malformed input throws InputError naming
/// "<source>:<line>".
TimingConstraints read_sdc(std::istream& in, const std::string& source,
                           TimingConstraints base = {},
                           bool* sets_period = nullptr);
TimingConstraints sdc_from_string(const std::string& text,
                                  TimingConstraints base = {});

/// Writes the constraints back out as SDC.
void write_sdc(const TimingConstraints& constraints, std::ostream& out);
std::string sdc_to_string(const TimingConstraints& constraints);

}  // namespace mgba
