#include "netlist/verilog_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/input.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mgba {

namespace {

/// The Verilog-visible signal name of each net: a connected port's name
/// when one exists (the port *is* the signal in Verilog), else the net's
/// own name. Returns one name per net plus the list of extra output ports
/// that alias an already-named net (emitted as assign statements).
struct NetNaming {
  std::vector<std::string> name;                   // per NetId
  std::vector<std::pair<std::string, NetId>> aliases;  // port -> net
};

NetNaming name_nets(const Design& design) {
  NetNaming naming;
  naming.name.resize(design.num_nets());
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    naming.name[n] = design.net(static_cast<NetId>(n)).name;
  }
  std::vector<bool> port_named(design.num_nets(), false);
  for (std::size_t p = 0; p < design.num_ports(); ++p) {
    const Port& port = design.port(static_cast<PortId>(p));
    if (port.net == kInvalidId) continue;
    if (!port_named[port.net]) {
      naming.name[port.net] = port.name;
      port_named[port.net] = true;
    } else {
      naming.aliases.emplace_back(port.name, port.net);
    }
  }
  return naming;
}

}  // namespace

void write_verilog(const Design& design, std::ostream& out) {
  const NetNaming naming = name_nets(design);

  out << "module " << design.name() << " (";
  for (std::size_t p = 0; p < design.num_ports(); ++p) {
    if (p != 0) out << ", ";
    out << design.port(static_cast<PortId>(p)).name;
  }
  out << ");\n";

  for (std::size_t p = 0; p < design.num_ports(); ++p) {
    const Port& port = design.port(static_cast<PortId>(p));
    out << "  " << (port.direction == PortDirection::Input ? "input" : "output")
        << ' ' << port.name << ";\n";
  }

  // Wires: nets not named by a port.
  std::vector<bool> is_port_net(design.num_nets(), false);
  for (std::size_t p = 0; p < design.num_ports(); ++p) {
    const Port& port = design.port(static_cast<PortId>(p));
    if (port.net != kInvalidId &&
        naming.name[port.net] == port.name) {
      is_port_net[port.net] = true;
    }
  }
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (is_port_net[n]) continue;
    if (!net.driver && net.sinks.empty()) continue;  // dead net
    out << "  wire " << naming.name[n] << ";\n";
  }

  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const InstanceId id = static_cast<InstanceId>(i);
    if (design.is_disconnected(id)) continue;
    const Instance& inst = design.instance(id);
    const LibCell& cell = design.library().cell(inst.cell);
    out << "  " << cell.name << ' ' << inst.name << " (";
    bool first = true;
    for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
      if (inst.pin_nets[p] == kInvalidId) continue;
      if (!first) out << ", ";
      first = false;
      out << '.' << cell.pins[p].name << '(' << naming.name[inst.pin_nets[p]]
          << ')';
    }
    out << ");\n";
  }

  for (const auto& [port, net] : naming.aliases) {
    out << "  assign " << port << " = " << naming.name[net] << ";\n";
  }
  out << "endmodule\n";
}

std::string verilog_to_string(const Design& design) {
  std::ostringstream out;
  write_verilog(design, out);
  return out.str();
}

namespace {

/// One Verilog token and the line it starts on.
struct VerilogToken {
  std::string text;
  std::size_t line = 0;
};

/// Comment-stripping tokenizer: identifiers/numbers plus the single-char
/// tokens ( ) , ; . =
std::vector<VerilogToken> tokenize_verilog(std::istream& in,
                                           const std::string& source) {
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::vector<VerilogToken> tokens;
  std::size_t line = 1;
  std::size_t i = 0;
  const auto is_single = [](char c) {
    return c == '(' || c == ')' || c == ',' || c == ';' || c == '.' ||
           c == '=';
  };
  while (i < text.size()) {
    const char c = text[i];
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      const std::size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) {
        throw InputError(source, line, "unterminated block comment");
      }
      line += static_cast<std::size_t>(
          std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                     text.begin() + static_cast<std::ptrdiff_t>(end), '\n'));
      i = end + 2;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      if (c == '\n') ++line;
      ++i;
    } else if (is_single(c)) {
      tokens.push_back({std::string(1, c), line});
      ++i;
    } else {
      std::size_t j = i;
      while (j < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[j])) &&
             !is_single(text[j]) && text[j] != '/') {
        ++j;
      }
      // A lone '/' that opens no comment is a one-character word.
      j = std::max(j, i + 1);
      tokens.push_back({text.substr(i, j - i), line});
      i = j;
    }
  }
  return tokens;
}

}  // namespace

Design read_verilog(const Library& library, std::istream& in,
                    const std::string& source) {
  const std::vector<VerilogToken> tokens = tokenize_verilog(in, source);
  std::size_t pos = 0;
  const auto fail = [&](const std::string& message) {
    const std::size_t line = pos < tokens.size() ? tokens[pos].line
                             : tokens.empty()    ? 1
                                                 : tokens.back().line;
    throw InputError(source, line, message);
  };
  const auto peek = [&]() -> const std::string& {
    static const std::string kEnd;
    return pos < tokens.size() ? tokens[pos].text : kEnd;
  };
  const auto next = [&]() -> const std::string& {
    if (pos >= tokens.size()) fail("unexpected end of Verilog input");
    return tokens[pos++].text;
  };
  const auto expect = [&](const char* token) {
    if (peek() != token) {
      fail(std::string("expected '") + token + "', not '" + peek() + "'");
    }
    ++pos;
  };
  // Either a ',' (the list goes on) or a ';' (it ends).
  const auto list_goes_on = [&] {
    if (peek() != "," && peek() != ";") fail("expected ',' or ';'");
    return next() == ",";
  };

  expect("module");
  Design design(library, next());
  // Skip the header port list; ports are declared by input/output below.
  expect("(");
  while (pos < tokens.size() && peek() != ")") ++pos;
  expect(")");
  expect(";");

  std::map<std::string, NetId> nets;
  const auto net_of = [&](const std::string& name) {
    const auto it = nets.find(name);
    if (it != nets.end()) return it->second;
    const NetId id = design.add_net(name);
    nets.emplace(name, id);
    return id;
  };
  const auto connect_port = [&](PortId port, NetId net) {
    if (std::string err = design.connect_port_error(port, net); !err.empty()) {
      fail(err);
    }
    design.connect_port(port, net);
  };

  while (peek() != "endmodule") {
    const std::string kw = next();
    if (kw == "input" || kw == "output") {
      const PortDirection dir =
          kw == "input" ? PortDirection::Input : PortDirection::Output;
      do {
        const std::string name = next();
        const PortId port = design.add_port(name, dir);
        connect_port(port, net_of(name));
      } while (list_goes_on());
    } else if (kw == "wire") {
      do {
        net_of(next());
      } while (list_goes_on());
    } else if (kw == "assign") {
      // assign <output port> = <net>;
      const std::string lhs = next();
      expect("=");
      const std::string rhs = next();
      const auto port = design.find_port(lhs);
      if (!port || design.port(*port).direction != PortDirection::Output) {
        fail("assign LHS must be an output port");
      }
      expect(";");
      // Re-home the port from its declaration placeholder net onto the
      // assigned signal.
      design.disconnect_port(*port);
      connect_port(*port, net_of(rhs));
    } else {
      // Instance: <cell> <name> ( .PIN(net), ... );
      const auto cell_id = library.find_cell(kw);
      if (!cell_id) fail("unknown cell type '" + kw + "'");
      const LibCell& cell = library.cell(*cell_id);
      const InstanceId inst = design.add_instance(next(), *cell_id);
      expect("(");
      do {
        expect(".");
        const std::string pin_name = next();
        const auto pin = cell.find_pin(pin_name);
        if (!pin) fail("cell " + cell.name + " has no pin '" + pin_name + "'");
        expect("(");
        const NetId net = net_of(next());
        expect(")");
        const auto pin_idx = static_cast<std::uint32_t>(*pin);
        if (std::string err = design.connect_pin_error(inst, pin_idx, net);
            !err.empty()) {
          fail(err);
        }
        design.connect_pin(inst, pin_idx, net);
        if (peek() != "," && peek() != ")") fail("expected ',' or ')'");
      } while (next() == ",");
      expect(";");
    }
  }
  design.validate();
  return design;
}

Design verilog_from_string(const Library& library, const std::string& text) {
  std::istringstream in(text);
  return read_verilog(library, in, "<verilog>");
}

void scatter_placement(Design& design, std::uint64_t seed, double pitch_um) {
  Rng rng(seed);
  const double die =
      std::sqrt(static_cast<double>(design.num_instances())) * pitch_um;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    design.set_location(static_cast<InstanceId>(i),
                        {rng.uniform(0.0, die), rng.uniform(0.0, die)});
  }
}

}  // namespace mgba
