#pragma once

/// \file arg_parse.hpp
/// Minimal command-line option parsing for the mgba_timer tool: long
/// options with values (--key value or --key=value), flags (--key), and
/// positional arguments, with typed accessors and defaulting.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/input.hpp"

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
  /// The option's value under the shared number rule (util/input.hpp), or
  /// \p fallback when it is absent. A value that is not wholly a finite
  /// number ("15OO", "", " 1", "nan", "1e999") is a usage mistake: exit 2,
  /// naming it.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    return has(key) ? checked(key, parse_number(get(key)), "a number")
                    : fallback;
  }
  /// As get_double, under the count rule: digits only, so "-1" exits 2.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const {
    return has(key) ? checked(key, parse_count(get(key)), "a count")
                    : fallback;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  template <typename T>
  T checked(const std::string& key, std::optional<T> value,
            const char* what) const {
    if (!value) {
      std::fprintf(stderr, "--%s expects %s, not '%s'\n", key.c_str(), what,
                   get(key).c_str());
      std::exit(2);
    }
    return *value;
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace mgba::tools
