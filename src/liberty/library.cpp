#include "liberty/library.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mgba {

std::size_t LibCell::num_inputs() const {
  return static_cast<std::size_t>(
      std::count_if(pins.begin(), pins.end(), [](const LibPin& p) {
        return p.direction == PinDirection::Input;
      }));
}

std::size_t LibCell::num_outputs() const {
  return pins.size() - num_inputs();
}

std::size_t LibCell::output_pin() const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].direction == PinDirection::Output) return i;
  }
  MGBA_CHECK(false && "cell has no output pin");
  return 0;
}

std::size_t LibCell::pin_index(const std::string& pin_name) const {
  const auto idx = find_pin(pin_name);
  MGBA_CHECK(idx.has_value());
  return *idx;
}

std::optional<std::size_t> LibCell::find_pin(const std::string& pin_name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].name == pin_name) return i;
  }
  return std::nullopt;
}

std::size_t LibCell::clock_pin() const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].is_clock) return i;
  }
  MGBA_CHECK(false && "cell has no clock pin");
  return 0;
}

std::string Library::cell_error(const LibCell& cell) const {
  const std::string& name = cell.name;
  if (find_cell(name).has_value()) return "duplicate cell " + name;
  if (cell.num_outputs() != 1) return "cell " + name + " needs one output pin";
  if ((cell.kind == CellKind::Buffer || cell.kind == CellKind::Inverter) &&
      cell.num_inputs() != 1) {
    return "cell " + name + " needs one input pin";
  }
  if (cell.kind == CellKind::FlipFlop &&
      std::none_of(cell.pins.begin(), cell.pins.end(),
                   [](const LibPin& p) { return p.is_clock; })) {
    return "flip-flop " + name + " has no clock pin";
  }
  const auto is_input = [&cell](std::size_t pin) {
    return cell.pins[pin].direction == PinDirection::Input;
  };
  for (const LibTimingArc& arc : cell.arcs) {
    if (!is_input(arc.from_pin) || is_input(arc.to_pin)) {
      return "an arc of " + name + " does not run from an input to an output";
    }
    if (arc.delay.empty() || arc.output_slew.empty()) {
      return "an arc of " + name + " lacks a delay or slew table";
    }
  }
  for (const LibConstraintArc& con : cell.constraints) {
    if (!is_input(con.data_pin) || !is_input(con.clock_pin)) {
      return "a constraint of " + name + " does not join two inputs";
    }
    if (con.setup.empty() || con.hold.empty()) {
      return "a constraint of " + name + " lacks a setup or hold table";
    }
  }
  return "";
}

std::size_t Library::add_cell(LibCell cell) {
  MGBA_CHECK(cell_error(cell).empty());
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::size_t Library::cell_id(const std::string& name) const {
  const auto id = find_cell(name);
  MGBA_CHECK(id.has_value());
  return *id;
}

std::optional<std::size_t> Library::find_cell(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::size_t> Library::footprint_family(
    const std::string& footprint) const {
  std::vector<std::size_t> family;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].footprint == footprint) family.push_back(i);
  }
  std::sort(family.begin(), family.end(), [&](std::size_t a, std::size_t b) {
    return cells_[a].area_um2 < cells_[b].area_um2;
  });
  return family;
}

std::optional<std::size_t> Library::smallest_buffer() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].kind != CellKind::Buffer) continue;
    if (!best || cells_[i].area_um2 < cells_[*best].area_um2) best = i;
  }
  return best;
}

std::optional<std::size_t> Library::strongest_buffer() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].kind != CellKind::Buffer) continue;
    if (!best || cells_[i].area_um2 > cells_[*best].area_um2) best = i;
  }
  return best;
}

}  // namespace mgba
