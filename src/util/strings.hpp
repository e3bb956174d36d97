#pragma once

/// \file strings.hpp
/// Small string utilities shared by the report writers and the SDC reader.
/// Nothing here allocates beyond the returned values. Tokenizing lives in
/// the input layer (util/input.hpp).

#include <string>
#include <string_view>

namespace mgba {

/// Strips leading/trailing whitespace.
std::string_view trim(std::string_view text);

/// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace mgba
