#pragma once

/// \file liberty_io.hpp
/// Text serialization for cell libraries — a line-oriented "liberty lite"
/// so users can supply their own characterized cells instead of the
/// generated defaults. Shape:
///
///   library mylib
///   cell NAND2_X1 footprint NAND2 kind comb area 1.6 leakage 2.5
///     pin A input cap 1.2
///     pin B input cap 1.2
///     pin Z output max_load 40
///     arc A Z
///       slew_axis 5 20 60
///       load_axis 0.5 2 8
///       delay 18 20 25 19 22 28 22 26 34      # row-major [slew][load]
///       slew 12 15 21 13 17 24 15 20 28
///   cell DFF_X1 footprint DFF kind ff area 7.2 leakage 10
///     pin D input cap 1.2
///     pin CK input clock cap 1.0
///     pin Q output max_load 40
///     arc CK Q
///       ...
///     constraint D CK
///       slew_axis 5 20 60
///       data_axis 5 20 60
///       setup 22 25 30 ...                     # row-major [clk][data]
///       hold 6 7 8 ...
///
/// kinds: comb | buf | inv | ff. Units: ps, fF, um^2, nW. Names follow the
/// shared lexical rule (util/input.hpp): any name may be quoted, and '#'
/// starts a comment.

#include <iosfwd>
#include <string>

#include "liberty/library.hpp"

namespace mgba {

void write_library(const Library& library, std::ostream& out);
std::string library_to_string(const Library& library);

/// Parses the format above; malformed input throws InputError naming
/// "<source>:<line>".
Library read_library(std::istream& in, const std::string& source);
Library library_from_string(const std::string& text);

}  // namespace mgba
