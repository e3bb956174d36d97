#pragma once

/// \file derate_io.hpp
/// Text serialization for AOCV derate tables, mirroring the layout of the
/// paper's Table 1 (rows = distance, columns = depth). Foundries ship
/// these tables as sidecar files; this format lets users supply their own
/// instead of the built-in defaults.
///
///   # comment
///   depth     3     4     5     6
///   early                            # optional: explicit early section
///   distance 500nm | 0.5 ...        # distances accept um (default) or nm
///   0.5    1.30  1.25  1.20  1.15
///   1.0    1.32  1.27  1.23  1.18
///   1.5    1.35  1.31  1.28  1.25
///
/// Concretely: a `depth` header line, then one line per distance row with
/// the distance in the first column. An optional second block introduced
/// by a line reading `early` provides explicit early factors with the same
/// shape; otherwise early factors are derived (see DerateTable).

#include <iosfwd>
#include <string>

#include "aocv/derate_table.hpp"

namespace mgba {

/// Writes both late and early blocks.
void write_derate_table(const DerateTable& table, std::ostream& out);
std::string derate_table_to_string(const DerateTable& table);

/// Parses the format above; malformed input throws InputError naming
/// "<source>:<line>".
DerateTable read_derate_table(std::istream& in, const std::string& source);
DerateTable derate_table_from_string(const std::string& text);

}  // namespace mgba
