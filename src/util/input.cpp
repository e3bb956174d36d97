#include "util/input.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>

namespace mgba {

InputError::InputError(std::string_view source, std::size_t line,
                       std::string_view message)
    : std::runtime_error(std::string(source) + ":" + std::to_string(line) +
                         ": " + std::string(message)) {}

TokenizeResult tokenize_line(std::string_view line) {
  TokenizeResult result;
  std::string current;
  bool in_token = false;
  bool in_quote = false;

  const auto flush = [&] {
    if (in_token) result.tokens.push_back(current);
    current.clear();
    in_token = false;
  };

  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quote) {
      if (c == '\\' && i + 1 < line.size()) {
        current.push_back(line[++i]);
      } else if (c == '"') {
        in_quote = false;
      } else {
        current.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quote = true;
      in_token = true;  // "" is a valid empty token
    } else if (c == '#') {
      break;  // comment to end of line
    } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      flush();
    } else {
      in_token = true;
      current.push_back(c);
    }
  }
  if (in_quote) {
    result.error = "unterminated quote";
    result.tokens.clear();
    return result;
  }
  flush();
  return result;
}

std::string quote(const std::string& name) {
  if (!name.empty() &&
      name.find_first_of(" \t\r\n\"#\\") == std::string::npos) {
    return name;
  }
  std::string out = "\"";
  for (const char c : name) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::optional<double> parse_number(std::string_view text) {
  // strtod, as std::stod used, so every valid file reads the same bits;
  // the checks around it make the parse whole and the value finite.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::size_t> parse_count(std::string_view text) {
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

LineReader::LineReader(std::istream& in, std::string source)
    : in_(&in), source_(std::move(source)) {}

bool LineReader::next() {
  std::string statement;
  std::string line;
  bool continued = false;
  while (std::getline(*in_, line)) {
    if (!continued) line_ = next_line_;
    ++next_line_;
    const std::size_t last = line.find_last_not_of(" \t\r");
    if (last != std::string::npos && line[last] == '\\') {
      statement.append(line, 0, last).push_back(' ');
      continued = true;
      continue;
    }
    statement += line;
    continued = false;
    TokenizeResult tok = tokenize_line(statement);
    statement.clear();
    if (!tok.ok()) fail(tok.error);
    if (tok.tokens.empty()) continue;
    tokens_ = std::move(tok.tokens);
    return true;
  }
  // A file that ends on a continued line still holds that statement; any
  // other end-of-input failure names the file's last line.
  if (!continued) line_ = next_line_ - 1;
  TokenizeResult tok = tokenize_line(statement);
  if (!tok.ok()) fail(tok.error);
  tokens_ = std::move(tok.tokens);
  return !tokens_.empty();
}

void LineReader::fail(std::string_view message) const {
  throw InputError(source_, line_, message);
}

double LineReader::number(std::size_t i) const {
  if (i >= tokens_.size()) fail("'" + tokens_[0] + "' is missing a number");
  const auto value = parse_number(tokens_[i]);
  if (!value) fail("'" + tokens_[i] + "' is not a number");
  return *value;
}

std::size_t LineReader::count(std::size_t i) const {
  if (i >= tokens_.size()) fail("'" + tokens_[0] + "' is missing a count");
  const auto value = parse_count(tokens_[i]);
  if (!value) fail("'" + tokens_[i] + "' is not a count");
  return *value;
}

}  // namespace mgba
