#pragma once

/// \file netlist_io.hpp
/// Plain-text structural netlist format, one statement per line:
///
///   design <name>
///   port <name> <input|output> <x_um> <y_um>
///   inst <name> <lib_cell> <x_um> <y_um>
///   net <name>
///   pin <instance> <lib_pin_name> <net>      # instance pin connection
///   pconn <port> <net>                       # port connection
///   # comment
///
/// Names follow the shared lexical rule (util/input.hpp): any name may be
/// quoted, and '#' starts a comment. The format is self-contained given a Library and round-trips exactly
/// (write -> read produces a structurally identical design). It exists so
/// generated designs can be dumped, diffed, and reloaded by the benches.

#include <iosfwd>
#include <string>

#include "netlist/design.hpp"

namespace mgba {

/// Serializes a design to the text format above.
void write_netlist(const Design& design, std::ostream& out);
std::string netlist_to_string(const Design& design);

/// Parses the text format against \p library. Malformed input (unknown
/// cells/pins, duplicate connections) throws InputError naming
/// "<source>:<line>".
Design read_netlist(const Library& library, std::istream& in,
                    const std::string& source);
Design netlist_from_string(const Library& library, const std::string& text);

}  // namespace mgba
