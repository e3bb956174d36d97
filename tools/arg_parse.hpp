#pragma once

/// \file arg_parse.hpp
/// Minimal command-line option parsing for the mgba_timer tool: long
/// options with values (--key value or --key=value), flags (--key), and
/// positional arguments, with typed accessors and defaulting.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace mgba::tools {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        const std::string::size_type eq = token.find('=');
        if (eq != std::string::npos) {
          // --key=value ("--key=" gives an explicit empty value).
          options_[token.substr(2, eq - 2)] = token.substr(eq + 1);
        } else {
          const std::string key = token.substr(2);
          if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[key] = argv[++i];
          } else {
            options_[key] = "";  // boolean flag
          }
        }
      } else {
        positional_.push_back(token);
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return options_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  /// The option's value as a number (see number()), or \p fallback when it
  /// is absent.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    return has(key) ? number<double>(key, [](const char* s, char** end) {
      return std::strtod(s, end);
    }) : fallback;
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    return has(key) ? number<long>(key, [](const char* s, char** end) {
      return std::strtol(s, end, 10);
    }) : fallback;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// \p key's value read by \p parse (strtod-like). A value that is not
  /// wholly a finite, representable number ("15OO", "", " 1", "nan",
  /// "inf", "1e999") is a usage mistake: exit 2, naming it.
  template <typename T, typename Parse>
  T number(const std::string& key, Parse parse) const {
    const std::string& text = options_.at(key);
    char* end = nullptr;
    errno = 0;
    const T value = parse(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE ||
        !std::isfinite(static_cast<double>(value))) {
      std::fprintf(stderr, "--%s expects a number, not '%s'\n", key.c_str(),
                   text.c_str());
      std::exit(2);
    }
    return value;
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace mgba::tools
