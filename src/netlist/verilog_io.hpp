#pragma once

/// \file verilog_io.hpp
/// Structural Verilog interchange for gate-level netlists: named-port
/// instantiations of library cells, e.g.
///
///   module top (CLK, in_0, out_0);
///     input CLK;
///     input in_0;
///     output out_0;
///     wire n_1, n_2;
///     NAND2_X1 g_1 (.A(in_0), .B(n_1), .Z(n_2));
///     DFF_X1 ff_0 (.D(n_2), .CK(CLK), .Q(out_0));
///   endmodule
///
/// Supported subset: one module, scalar ports/wires (comma lists), `//`
/// and `/* */` comments, named port connections only. Verilog carries no
/// placement, so imported instances land at the origin; use
/// scatter_placement to assign synthetic locations before timing (wire
/// delays are placement-driven).

#include <iosfwd>
#include <string>

#include "netlist/design.hpp"

namespace mgba {

void write_verilog(const Design& design, std::ostream& out);
std::string verilog_to_string(const Design& design);

/// Parses against \p library; constructs outside the subset (vector
/// ports, positional connections, multiple modules) throw InputError
/// naming "<source>:<line>".
Design read_verilog(const Library& library, std::istream& in,
                    const std::string& source);
Design verilog_from_string(const Library& library, const std::string& text);

/// Assigns uniform-random locations over a die sized for the design
/// (side ~ sqrt(instances) * pitch). For netlists imported from formats
/// without placement.
void scatter_placement(Design& design, std::uint64_t seed,
                       double pitch_um = 4.5);

}  // namespace mgba
