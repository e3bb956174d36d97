#pragma once

/// \file input.hpp
/// The input layer every reader shares: one lexical rule, one number rule
/// and one error type.
///
/// Lexical rule (every line format: netlists, libraries, derate tables,
/// corner specs, SDC, ECO journals and shell command lines). Words split on
/// whitespace; double quotes group a word that holds spaces ("a b");
/// inside quotes a backslash escapes the next character (\" and \\); '#'
/// outside quotes starts a comment running to the end of the line.
/// quote() spells any name so that it reads back as one word. In files,
/// LineReader reads one statement per line, and a line whose last
/// character is a backslash continues on the next.
///
/// Number rule: the whole word is a finite number ("15OO", "nan",
/// "inf", "1e999" and "" are not); a count is a non-negative integer
/// written without a sign ("-1" and "+1" are not counts).
///
/// Errors: a reader throws InputError, whose text is
/// "<source>:<line>: <message>". The session catches it and hands the text
/// to the user; MGBA_CHECK stays for internal invariants only.

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mgba {

/// A rejected input. The located form reads "<source>:<line>: <message>";
/// a design-level rule with no line (a combinational cycle) carries its
/// message alone.
class InputError : public std::runtime_error {
 public:
  InputError(std::string_view source, std::size_t line,
             std::string_view message);
  explicit InputError(const std::string& message)
      : std::runtime_error(message) {}
};

struct TokenizeResult {
  std::vector<std::string> tokens;
  /// Empty on success; otherwise a description ("unterminated quote").
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Tokenizes one line per the lexical rule above. Blank and comment-only
/// lines tokenize to nothing.
TokenizeResult tokenize_line(std::string_view line);

/// \p name spelled so that tokenize_line reads it back as one word: bare
/// when it is a plain word, else in double quotes with '"' and '\' escaped.
std::string quote(const std::string& name);

/// The number rule: \p text parsed as a whole to a finite double.
std::optional<double> parse_number(std::string_view text);
/// The count rule: \p text is decimal digits only and fits a size_t.
std::optional<std::size_t> parse_count(std::string_view text);

/// Reads a line format statement by statement: skips blank and comment
/// lines, joins continued lines, tokenizes, and numbers the lines so every
/// failure names "<source>:<line>".
class LineReader {
 public:
  LineReader(std::istream& in, std::string source);

  /// Advances to the next statement; false at the end of the input.
  bool next();

  [[nodiscard]] const std::vector<std::string>& tokens() const {
    return tokens_;
  }
  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] const std::string& operator[](std::size_t i) const {
    return tokens_[i];
  }
  /// The line the current statement starts on (1-based).
  [[nodiscard]] std::size_t line() const { return line_; }

  /// Throws InputError at the current line.
  [[noreturn]] void fail(std::string_view message) const;
  void expect(bool condition, std::string_view message) const {
    if (!condition) fail(message);
  }
  /// Token \p i under the number rule; fails when it is missing or is not
  /// a number.
  [[nodiscard]] double number(std::size_t i) const;
  /// Token \p i under the count rule.
  [[nodiscard]] std::size_t count(std::size_t i) const;

 private:
  std::istream* in_;
  std::string source_;
  std::vector<std::string> tokens_;
  std::size_t line_ = 0;
  std::size_t next_line_ = 1;
};

}  // namespace mgba
