#include "sta/sdc.hpp"

#include <algorithm>
#include <istream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/input.hpp"
#include "util/strings.hpp"

namespace mgba {

namespace {

/// True if a token opens a [get_ports ...] group.
bool has_get_ports(const LineReader& r) {
  return std::ranges::any_of(r.tokens(), [](const std::string& t) {
    return t.starts_with("[get_ports");
  });
}

/// Extracts the object name from the "[get_ports NAME]" or
/// "[get_pins NAME]" group that starts at token \p index; the group spans
/// several tokens.
std::string parse_object_group(const LineReader& r, std::size_t index) {
  r.expect(index < r.size(), "missing [get_ports|get_pins ...] argument");
  std::string joined;
  for (std::size_t i = index; i < r.size(); ++i) {
    if (!joined.empty()) joined += ' ';
    joined += r[i];
  }
  std::size_t open = joined.find("[get_ports");
  std::size_t keyword_len = 10;
  if (open == std::string::npos) {
    open = joined.find("[get_pins");
    keyword_len = 9;
  }
  r.expect(open != std::string::npos, "expected [get_ports|get_pins]");
  const std::size_t close = joined.find(']', open);
  r.expect(close != std::string::npos, "unterminated object group");
  const auto inner = trim(std::string_view(joined).substr(
      open + keyword_len, close - open - keyword_len));
  r.expect(!inner.empty(), "object group names nothing");
  return std::string(inner);
}

}  // namespace

TimingConstraints read_sdc(std::istream& in, const std::string& source,
                           TimingConstraints base, bool* sets_period) {
  TimingConstraints constraints = std::move(base);
  if (sets_period != nullptr) *sets_period = false;
  LineReader r(in, source);
  while (r.next()) {
    const std::string& cmd = r[0];
    if (cmd == "create_clock") {
      for (std::size_t i = 1; i < r.size(); ++i) {
        if (r[i] == "-period") {
          constraints.clock_period_ps = r.number(++i);
          if (sets_period != nullptr) *sets_period = true;
        } else if (r[i] == "-name") {
          r.expect(i + 1 < r.size(), "-name needs a clock name");
          ++i;  // clock name is informational in a single-clock timer
        }
      }
      if (has_get_ports(r)) {
        constraints.clock_port = parse_object_group(r, 1);
      }
    } else if (cmd == "set_clock_uncertainty") {
      constraints.clock_uncertainty_ps = r.number(1);
    } else if (cmd == "set_input_delay" || cmd == "set_output_delay") {
      const bool input = cmd == "set_input_delay";
      const double value = r.number(1);
      if (has_get_ports(r)) {
        auto& overrides = input ? constraints.input_delay_overrides
                                : constraints.output_delay_overrides;
        overrides[parse_object_group(r, 2)] = value;
      } else {
        (input ? constraints.input_delay_ps : constraints.output_delay_ps) =
            value;
      }
    } else if (cmd == "set_false_path") {
      r.expect(r.size() >= 2 && r[1] == "-to",
               "only -to endpoint false paths are supported");
      constraints.false_path_endpoints.insert(parse_object_group(r, 2));
    } else if (cmd == "set_multicycle_path") {
      const std::size_t cycles = r.count(1);
      r.expect(cycles >= 1 && cycles <= 1000000,
               "a multicycle is 1 to 1000000 cycles");
      r.expect(r.size() >= 3 && r[2] == "-to",
               "only -to endpoint multicycles are supported");
      constraints.multicycle_endpoints[parse_object_group(r, 3)] =
          static_cast<int>(cycles);
    } else if (cmd == "set_input_transition") {
      constraints.input_slew_ps = r.number(1);
    } else {
      r.fail("unknown SDC command '" + cmd + "'");
    }
  }
  return constraints;
}

TimingConstraints sdc_from_string(const std::string& text,
                                  TimingConstraints base) {
  std::istringstream in(text);
  return read_sdc(in, "<sdc>", std::move(base));
}

void write_sdc(const TimingConstraints& constraints, std::ostream& out) {
  out << std::setprecision(12);
  out << "create_clock -name core -period " << constraints.clock_period_ps
      << " [get_ports " << quote(constraints.clock_port) << "]\n";
  if (constraints.clock_uncertainty_ps != 0.0) {
    out << "set_clock_uncertainty " << constraints.clock_uncertainty_ps
        << "\n";
  }
  out << "set_input_transition " << constraints.input_slew_ps << "\n";
  out << "set_input_delay " << constraints.input_delay_ps << "\n";
  out << "set_output_delay " << constraints.output_delay_ps << "\n";
  for (const auto& [port, value] : constraints.input_delay_overrides) {
    out << "set_input_delay " << value << " [get_ports " << quote(port)
        << "]\n";
  }
  for (const auto& [port, value] : constraints.output_delay_overrides) {
    out << "set_output_delay " << value << " [get_ports " << quote(port)
        << "]\n";
  }
  const auto group_for = [](const std::string& endpoint) {
    return endpoint.find('/') == std::string::npos ? "get_ports" : "get_pins";
  };
  for (const std::string& endpoint : constraints.false_path_endpoints) {
    out << "set_false_path -to [" << group_for(endpoint) << ' '
        << quote(endpoint) << "]\n";
  }
  for (const auto& [endpoint, cycles] : constraints.multicycle_endpoints) {
    out << "set_multicycle_path " << cycles << " -to ["
        << group_for(endpoint) << ' ' << quote(endpoint) << "]\n";
  }
}

std::string sdc_to_string(const TimingConstraints& constraints) {
  std::ostringstream out;
  write_sdc(constraints, out);
  return out.str();
}

}  // namespace mgba
