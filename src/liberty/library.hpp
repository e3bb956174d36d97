#pragma once

/// \file library.hpp
/// Standard-cell library model: cells with pins, timing arcs backed by
/// NLDM-style lookup tables, flip-flop setup/hold constraints, and
/// drive-strength families ("footprints") that the timing-closure
/// optimizer swaps between when sizing gates.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "liberty/lookup_table.hpp"
#include "util/check.hpp"

namespace mgba {

/// Broad cell categories the rest of the system dispatches on.
enum class CellKind : std::uint8_t {
  Combinational,  ///< generic logic gate
  Buffer,         ///< single-input non-inverting driver (used for insertion)
  Inverter,
  FlipFlop,       ///< edge-triggered D flip-flop
};

/// Direction of a library pin.
enum class PinDirection : std::uint8_t { Input, Output };

/// Per-corner scaling applied to every timing quantity the library
/// produces — the PVT proxy of a multi-corner flow. A slow corner scales
/// delays (and usually slews) above 1; a fast corner below 1. Constraint
/// scaling covers setup/hold table values, which track the same silicon.
/// The identity scaling reproduces the unscaled library bit-for-bit
/// (multiplication by 1.0 is exact in IEEE arithmetic), which is what
/// keeps single-corner results byte-identical to the pre-corner engine.
struct LibraryScaling {
  double delay = 1.0;       ///< cell-arc and wire delays
  double slew = 1.0;        ///< output transitions and boundary slews
  double constraint = 1.0;  ///< setup/hold requirement values

  [[nodiscard]] bool is_identity() const {
    return delay == 1.0 && slew == 1.0 && constraint == 1.0;
  }
};

/// A pin on a library cell.
struct LibPin {
  std::string name;
  PinDirection direction = PinDirection::Input;
  double capacitance_ff = 0.0;  ///< input pin capacitance (fF)
  double max_load_ff = 0.0;     ///< output drive limit (fF); 0 = unlimited
  bool is_clock = false;        ///< true for the FF CK pin
};

/// A combinational or clock->output timing arc between two pins of a cell.
struct LibTimingArc {
  std::size_t from_pin = 0;  ///< index into LibCell::pins (an input)
  std::size_t to_pin = 0;    ///< index into LibCell::pins (an output)
  LookupTable2D delay;       ///< ps = f(input slew ps, output load fF)
  LookupTable2D output_slew; ///< ps = f(input slew ps, output load fF)
};

/// A setup or hold constraint arc (data pin relative to clock pin).
struct LibConstraintArc {
  std::size_t data_pin = 0;
  std::size_t clock_pin = 0;
  LookupTable2D setup;  ///< required setup time (ps) = f(clk slew, data slew)
  LookupTable2D hold;   ///< required hold time (ps) = f(clk slew, data slew)
};

/// One library cell (one drive strength of one footprint).
struct LibCell {
  std::string name;        ///< e.g. "NAND2_X2"
  std::string footprint;   ///< e.g. "NAND2"; sizing swaps within a footprint
  CellKind kind = CellKind::Combinational;
  double area_um2 = 0.0;
  double leakage_nw = 0.0;  ///< leakage power in nW
  std::vector<LibPin> pins;
  std::vector<LibTimingArc> arcs;
  std::vector<LibConstraintArc> constraints;  ///< non-empty for flip-flops

  [[nodiscard]] std::size_t num_inputs() const;
  [[nodiscard]] std::size_t num_outputs() const;
  /// Index of the first output pin. Every cell in this library has exactly
  /// one output; flip-flops expose Q.
  [[nodiscard]] std::size_t output_pin() const;
  /// Index of a pin by name; aborts if absent.
  [[nodiscard]] std::size_t pin_index(const std::string& name) const;
  [[nodiscard]] std::optional<std::size_t> find_pin(
      const std::string& name) const;
  /// Index of the clock pin (flip-flops only).
  [[nodiscard]] std::size_t clock_pin() const;
};

/// A collection of cells with footprint-family queries.
class Library {
 public:
  /// Adds a cell; returns its id. The cell must pass cell_error.
  std::size_t add_cell(LibCell cell);
  /// The rule \p cell would break as this library's next cell, "" when
  /// none: names are unique; a cell has one output pin, and a flip-flop a
  /// clock pin; arcs run from an input to an output and carry delay and
  /// slew tables; constraints join two inputs and carry setup and hold
  /// tables.
  [[nodiscard]] std::string cell_error(const LibCell& cell) const;

  [[nodiscard]] const LibCell& cell(std::size_t id) const {
    MGBA_CHECK(id < cells_.size());
    return cells_[id];
  }
  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }

  /// Cell id by name; aborts if absent.
  [[nodiscard]] std::size_t cell_id(const std::string& name) const;
  [[nodiscard]] std::optional<std::size_t> find_cell(
      const std::string& name) const;

  /// All cells sharing a footprint, sorted by area ascending (i.e. by drive
  /// strength for the default library). This is the sizing candidate list.
  [[nodiscard]] std::vector<std::size_t> footprint_family(
      const std::string& footprint) const;

  /// The smallest-area buffer cell (used by buffer insertion), or nullopt.
  [[nodiscard]] std::optional<std::size_t> smallest_buffer() const;

  /// The strongest (largest-area) buffer cell, or nullopt. Timing-driven
  /// insertion on long wires wants maximum drive; recovery can shrink it
  /// later if slack allows.
  [[nodiscard]] std::optional<std::size_t> strongest_buffer() const;

 private:
  std::vector<LibCell> cells_;
};

}  // namespace mgba
