#include "util/strings.hpp"

#include <cstdarg>
#include <cstdio>

namespace mgba {

std::string_view trim(std::string_view text) {
  const std::size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) return {};
  const std::size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

}  // namespace mgba
