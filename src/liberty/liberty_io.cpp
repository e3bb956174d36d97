#include "liberty/liberty_io.hpp"

#include <algorithm>
#include <istream>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <optional>
#include <sstream>
#include <vector>

#include "util/input.hpp"

namespace mgba {

namespace {

/// The file's name of each CellKind, in enum order.
constexpr const char* kKindNames[] = {"comb", "buf", "inv", "ff"};

void write_axis(std::ostream& out, const char* label,
                std::span<const double> axis) {
  out << "    " << label;
  for (const double v : axis) out << ' ' << v;
  out << '\n';
}

void write_table_values(std::ostream& out, const char* label,
                        const LookupTable2D& table) {
  out << "    " << label;
  for (const double s : table.slew_axis()) {
    for (const double l : table.load_axis()) out << ' ' << table.lookup(s, l);
  }
  out << '\n';
}

}  // namespace

void write_library(const Library& library, std::ostream& out) {
  out << std::setprecision(12);
  out << "library lib\n";
  for (std::size_t c = 0; c < library.num_cells(); ++c) {
    const LibCell& cell = library.cell(c);
    out << "cell " << quote(cell.name) << " footprint "
        << quote(cell.footprint) << " kind "
        << kKindNames[static_cast<int>(cell.kind)] << " area "
        << cell.area_um2 << " leakage " << cell.leakage_nw << '\n';
    for (const LibPin& pin : cell.pins) {
      out << "  pin " << quote(pin.name) << ' '
          << (pin.direction == PinDirection::Input ? "input" : "output");
      if (pin.is_clock) out << " clock";
      if (pin.direction == PinDirection::Input) {
        out << " cap " << pin.capacitance_ff;
      } else if (pin.max_load_ff > 0.0) {
        out << " max_load " << pin.max_load_ff;
      }
      out << '\n';
    }
    for (const LibTimingArc& arc : cell.arcs) {
      out << "  arc " << quote(cell.pins[arc.from_pin].name) << ' '
          << quote(cell.pins[arc.to_pin].name) << '\n';
      write_axis(out, "slew_axis", arc.delay.slew_axis());
      write_axis(out, "load_axis", arc.delay.load_axis());
      write_table_values(out, "delay", arc.delay);
      write_table_values(out, "slew", arc.output_slew);
    }
    for (const LibConstraintArc& con : cell.constraints) {
      out << "  constraint " << quote(cell.pins[con.data_pin].name) << ' '
          << quote(cell.pins[con.clock_pin].name) << '\n';
      write_axis(out, "slew_axis", con.setup.slew_axis());
      write_axis(out, "data_axis", con.setup.load_axis());
      write_table_values(out, "setup", con.setup);
      write_table_values(out, "hold", con.hold);
    }
  }
}

std::string library_to_string(const Library& library) {
  std::ostringstream out;
  write_library(library, out);
  return out.str();
}

Library read_library(std::istream& in, const std::string& source) {
  Library library;
  LineReader r(in, source);

  // Parse state: the cell being built and the axes of the table block in
  // progress. A cell is committed when the next cell (or EOF) begins, and
  // the library's cell rule is checked at the line that began it.
  std::optional<LibCell> cell;
  std::size_t cell_line = 0;
  std::vector<double> slew_axis, load_axis;
  const auto commit = [&] {
    if (!cell.has_value()) return;
    const std::string err = library.cell_error(*cell);
    if (!err.empty()) throw InputError(source, cell_line, err);
    library.add_cell(std::move(*cell));
    cell.reset();
  };
  const auto values = [&r] {
    std::vector<double> v;
    v.reserve(r.size() - 1);
    for (std::size_t i = 1; i < r.size(); ++i) v.push_back(r.number(i));
    return v;
  };
  const auto pin_of = [&](const std::string& name) {
    const auto pin = cell->find_pin(name);
    if (!pin) r.fail("cell " + cell->name + " has no pin named '" + name + "'");
    return *pin;
  };

  while (r.next()) {
    const std::string& kw = r[0];
    if (kw == "library") continue;  // informational
    if (kw == "cell") {
      commit();
      r.expect(r.size() % 2 == 0, "expected 'cell <name> [<key> <value>]...'");
      cell.emplace();
      cell_line = r.line();
      cell->name = r[1];
      for (std::size_t i = 2; i < r.size(); i += 2) {
        const std::string& key = r[i];
        const std::string& value = r[i + 1];
        if (key == "footprint") {
          cell->footprint = value;
        } else if (key == "kind") {
          const auto kind = std::ranges::find(kKindNames, value);
          if (kind == std::end(kKindNames)) {
            r.fail("unknown cell kind '" + value + "'");
          }
          cell->kind = static_cast<CellKind>(kind - std::begin(kKindNames));
        } else if (key == "area") {
          cell->area_um2 = r.number(i + 1);
        } else if (key == "leakage") {
          cell->leakage_nw = r.number(i + 1);
        } else {
          r.fail("unknown cell attribute '" + key + "'");
        }
      }
      continue;
    }
    r.expect(cell.has_value(), "a cell statement must come first");
    if (kw == "pin") {
      r.expect(r.size() >= 3 && (r[2] == "input" || r[2] == "output"),
               "expected 'pin <name> <input|output> [attributes]'");
      LibPin pin;
      pin.name = r[1];
      pin.direction =
          r[2] == "input" ? PinDirection::Input : PinDirection::Output;
      for (std::size_t i = 3; i < r.size(); ++i) {
        if (r[i] == "clock") {
          pin.is_clock = true;
        } else if (r[i] == "cap") {
          pin.capacitance_ff = r.number(++i);
        } else if (r[i] == "max_load") {
          pin.max_load_ff = r.number(++i);
        } else {
          r.fail("unknown pin attribute '" + r[i] + "'");
        }
      }
      cell->pins.push_back(std::move(pin));
    } else if (kw == "arc") {
      r.expect(r.size() == 3, "expected 'arc <from> <to>'");
      LibTimingArc arc;
      arc.from_pin = pin_of(r[1]);
      arc.to_pin = pin_of(r[2]);
      cell->arcs.push_back(std::move(arc));
    } else if (kw == "constraint") {
      r.expect(r.size() == 3, "expected 'constraint <data> <clock>'");
      LibConstraintArc con;
      con.data_pin = pin_of(r[1]);
      con.clock_pin = pin_of(r[2]);
      cell->constraints.push_back(std::move(con));
    } else if (kw == "slew_axis") {
      slew_axis = values();
    } else if (kw == "load_axis" || kw == "data_axis") {
      load_axis = values();
    } else if (kw == "delay" || kw == "slew" || kw == "setup" ||
               kw == "hold") {
      const bool arc_table = kw == "delay" || kw == "slew";
      r.expect(arc_table ? !cell->arcs.empty() : !cell->constraints.empty(),
               arc_table ? "a table before any arc"
                         : "a table before any constraint");
      std::vector<double> v = values();
      const std::string err =
          LookupTable2D::shape_error(slew_axis, load_axis, v);
      r.expect(err.empty(), err);
      LookupTable2D table(slew_axis, load_axis, std::move(v));
      if (kw == "delay") {
        cell->arcs.back().delay = std::move(table);
      } else if (kw == "slew") {
        cell->arcs.back().output_slew = std::move(table);
      } else if (kw == "setup") {
        cell->constraints.back().setup = std::move(table);
      } else {
        cell->constraints.back().hold = std::move(table);
      }
    } else {
      r.fail("unknown library statement '" + kw + "'");
    }
  }
  commit();
  return library;
}

Library library_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_library(in, "<library>");
}

}  // namespace mgba
