#include "netlist/netlist_io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "util/input.hpp"

namespace mgba {

void write_netlist(const Design& design, std::ostream& out) {
  out << "design " << quote(design.name()) << "\n";
  for (std::size_t p = 0; p < design.num_ports(); ++p) {
    const Port& port = design.port(static_cast<PortId>(p));
    out << "port " << quote(port.name) << ' '
        << (port.direction == PortDirection::Input ? "input" : "output") << ' '
        << port.location.x << ' ' << port.location.y << "\n";
  }
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(static_cast<InstanceId>(i));
    out << "inst " << quote(inst.name) << ' '
        << quote(design.library().cell(inst.cell).name) << ' '
        << inst.location.x << ' ' << inst.location.y << "\n";
  }
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    out << "net " << quote(design.net(static_cast<NetId>(n)).name) << "\n";
  }
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const Instance& inst = design.instance(static_cast<InstanceId>(i));
    const LibCell& cell = design.library().cell(inst.cell);
    for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
      if (inst.pin_nets[p] == kInvalidId) continue;
      out << "pin " << quote(inst.name) << ' ' << quote(cell.pins[p].name)
          << ' ' << quote(design.net(inst.pin_nets[p]).name) << "\n";
    }
  }
  for (std::size_t p = 0; p < design.num_ports(); ++p) {
    const Port& port = design.port(static_cast<PortId>(p));
    if (port.net == kInvalidId) continue;
    out << "pconn " << quote(port.name) << ' '
        << quote(design.net(port.net).name) << "\n";
  }
}

std::string netlist_to_string(const Design& design) {
  std::ostringstream out;
  write_netlist(design, out);
  return out.str();
}

Design read_netlist(const Library& library, std::istream& in,
                    const std::string& source) {
  Design design(library, "top");
  bool named = false;
  LineReader r(in, source);
  const auto arity = [&r](std::size_t n, const char* usage) {
    if (r.size() != n) r.fail(std::string("expected '") + usage + "'");
  };
  while (r.next()) {
    const std::string& kw = r[0];
    if (kw == "design") {
      arity(2, "design <name>");
      if (!named) {
        design = Design(library, r[1]);
        named = true;
      }
    } else if (kw == "port") {
      arity(5, "port <name> <input|output> <x> <y>");
      r.expect(r[2] == "input" || r[2] == "output",
               "a port is 'input' or 'output'");
      design.add_port(r[1],
                      r[2] == "input" ? PortDirection::Input
                                      : PortDirection::Output,
                      {r.number(3), r.number(4)});
    } else if (kw == "inst") {
      arity(5, "inst <name> <cell> <x> <y>");
      const auto cell_id = library.find_cell(r[2]);
      if (!cell_id) r.fail("no library cell named '" + r[2] + "'");
      design.add_instance(r[1], *cell_id, {r.number(3), r.number(4)});
    } else if (kw == "net") {
      arity(2, "net <name>");
      design.add_net(r[1]);
    } else if (kw == "pin") {
      arity(4, "pin <instance> <pin> <net>");
      const auto inst = design.find_instance(r[1]);
      if (!inst) r.fail("no instance named '" + r[1] + "'");
      const auto pin = design.cell_of(*inst).find_pin(r[2]);
      if (!pin) r.fail("cell has no pin named '" + r[2] + "'");
      const auto net = design.find_net(r[3]);
      if (!net) r.fail("no net named '" + r[3] + "'");
      const auto pin_idx = static_cast<std::uint32_t>(*pin);
      const std::string err = design.connect_pin_error(*inst, pin_idx, *net);
      r.expect(err.empty(), err);
      design.connect_pin(*inst, pin_idx, *net);
    } else if (kw == "pconn") {
      arity(3, "pconn <port> <net>");
      const auto port = design.find_port(r[1]);
      if (!port) r.fail("no port named '" + r[1] + "'");
      const auto net = design.find_net(r[2]);
      if (!net) r.fail("no net named '" + r[2] + "'");
      const std::string err = design.connect_port_error(*port, *net);
      r.expect(err.empty(), err);
      design.connect_port(*port, *net);
    } else {
      r.fail("unknown netlist statement '" + kw + "'");
    }
  }
  design.validate();
  return design;
}

Design netlist_from_string(const Library& library, const std::string& text) {
  std::istringstream in(text);
  return read_netlist(library, in, "<netlist>");
}

}  // namespace mgba
