#include "sta/sdc.hpp"

#include <istream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace mgba {

namespace {

/// Extracts the object name from a "[get_ports NAME]" or "[get_pins NAME]"
/// group; tokens arrive already split, so the group spans several tokens.
std::string parse_object_group(const std::vector<std::string_view>& tokens,
                               std::size_t index) {
  MGBA_CHECK(index < tokens.size() && "missing [get_*s ...] argument");
  std::string joined;
  for (std::size_t i = index; i < tokens.size(); ++i) {
    if (!joined.empty()) joined += ' ';
    joined += std::string(tokens[i]);
  }
  std::size_t open = joined.find("[get_ports");
  std::size_t keyword_len = 10;
  if (open == std::string::npos) {
    open = joined.find("[get_pins");
    keyword_len = 9;
  }
  MGBA_CHECK(open != std::string::npos && "expected [get_ports|get_pins]");
  const std::size_t close = joined.find(']', open);
  MGBA_CHECK(close != std::string::npos && "unterminated object group");
  const auto inner = trim(std::string_view(joined).substr(
      open + keyword_len, close - open - keyword_len));
  MGBA_CHECK(!inner.empty() && "object group names nothing");
  return std::string(inner);
}

/// True if the command line carries a [get_ports ...] group.
bool has_get_ports(std::string_view line) {
  return line.find("[get_ports") != std::string_view::npos;
}

/// True if the line carries any object group.
bool has_object_group(std::string_view line) {
  return has_get_ports(line) ||
         line.find("[get_pins") != std::string_view::npos;
}

}  // namespace

TimingConstraints read_sdc(std::istream& in, TimingConstraints base,
                           bool* sets_period) {
  TimingConstraints constraints = std::move(base);
  if (sets_period != nullptr) *sets_period = false;
  std::string line, pending;
  while (std::getline(in, line)) {
    // Line continuation.
    std::string_view text = trim(line);
    if (!text.empty() && text.back() == '\\') {
      pending += std::string(text.substr(0, text.size() - 1));
      pending += ' ';
      continue;
    }
    std::string full = pending + std::string(text);
    pending.clear();
    text = trim(full);
    if (text.empty() || text.front() == '#') continue;

    const auto tokens = split(text);
    const std::string_view cmd = tokens[0];

    if (cmd == "create_clock") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i] == "-period") {
          MGBA_CHECK(i + 1 < tokens.size());
          constraints.clock_period_ps = std::stod(std::string(tokens[++i]));
          if (sets_period != nullptr) *sets_period = true;
        } else if (tokens[i] == "-name") {
          MGBA_CHECK(i + 1 < tokens.size());
          ++i;  // clock name is informational in a single-clock timer
        }
      }
      if (has_get_ports(text)) {
        // Find where the group starts to recover the port.
        constraints.clock_port = parse_object_group(tokens, 1);
      }
    } else if (cmd == "set_clock_uncertainty") {
      MGBA_CHECK(tokens.size() >= 2);
      constraints.clock_uncertainty_ps = std::stod(std::string(tokens[1]));
    } else if (cmd == "set_input_delay") {
      MGBA_CHECK(tokens.size() >= 2);
      const double value = std::stod(std::string(tokens[1]));
      if (has_get_ports(text)) {
        constraints.input_delay_overrides[parse_object_group(tokens, 2)] =
            value;
      } else {
        constraints.input_delay_ps = value;
      }
    } else if (cmd == "set_output_delay") {
      MGBA_CHECK(tokens.size() >= 2);
      const double value = std::stod(std::string(tokens[1]));
      if (has_get_ports(text)) {
        constraints.output_delay_overrides[parse_object_group(tokens, 2)] =
            value;
      } else {
        constraints.output_delay_ps = value;
      }
    } else if (cmd == "set_false_path") {
      MGBA_CHECK(tokens.size() >= 2 && tokens[1] == "-to" &&
                 "only -to endpoint false paths are supported");
      MGBA_CHECK(has_object_group(text));
      constraints.false_path_endpoints.insert(parse_object_group(tokens, 2));
    } else if (cmd == "set_multicycle_path") {
      MGBA_CHECK(tokens.size() >= 3);
      const int cycles = std::stoi(std::string(tokens[1]));
      MGBA_CHECK(tokens[2] == "-to" &&
                 "only -to endpoint multicycles are supported");
      MGBA_CHECK(has_object_group(text));
      constraints.multicycle_endpoints[parse_object_group(tokens, 3)] =
          cycles;
    } else if (cmd == "set_input_transition") {
      MGBA_CHECK(tokens.size() >= 2);
      constraints.input_slew_ps = std::stod(std::string(tokens[1]));
    } else {
      MGBA_CHECK(false && "unknown SDC command");
    }
  }
  return constraints;
}

TimingConstraints sdc_from_string(const std::string& text,
                                  TimingConstraints base) {
  std::istringstream in(text);
  return read_sdc(in, std::move(base));
}

void write_sdc(const TimingConstraints& constraints, std::ostream& out) {
  out << std::setprecision(12);
  out << "create_clock -name core -period " << constraints.clock_period_ps
      << " [get_ports " << constraints.clock_port << "]\n";
  if (constraints.clock_uncertainty_ps != 0.0) {
    out << "set_clock_uncertainty " << constraints.clock_uncertainty_ps
        << "\n";
  }
  out << "set_input_transition " << constraints.input_slew_ps << "\n";
  out << "set_input_delay " << constraints.input_delay_ps << "\n";
  out << "set_output_delay " << constraints.output_delay_ps << "\n";
  for (const auto& [port, value] : constraints.input_delay_overrides) {
    out << "set_input_delay " << value << " [get_ports " << port << "]\n";
  }
  for (const auto& [port, value] : constraints.output_delay_overrides) {
    out << "set_output_delay " << value << " [get_ports " << port << "]\n";
  }
  const auto group_for = [](const std::string& endpoint) {
    return endpoint.find('/') == std::string::npos ? "get_ports" : "get_pins";
  };
  for (const std::string& endpoint : constraints.false_path_endpoints) {
    out << "set_false_path -to [" << group_for(endpoint) << ' ' << endpoint
        << "]\n";
  }
  for (const auto& [endpoint, cycles] : constraints.multicycle_endpoints) {
    out << "set_multicycle_path " << cycles << " -to ["
        << group_for(endpoint) << ' ' << endpoint << "]\n";
  }
}

std::string sdc_to_string(const TimingConstraints& constraints) {
  std::ostringstream out;
  write_sdc(constraints, out);
  return out.str();
}

}  // namespace mgba
