#include "netlist/design.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace mgba {

double manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

Design::Design(const Library& library, std::string name)
    : library_(&library), name_(std::move(name)) {}

InstanceId Design::add_instance(std::string inst_name, std::size_t cell_id,
                                Point location) {
  const LibCell& cell = library_->cell(cell_id);
  Instance inst;
  inst.name = std::move(inst_name);
  inst.cell = cell_id;
  inst.location = location;
  inst.pin_nets.assign(cell.pins.size(), kInvalidId);
  instances_.push_back(std::move(inst));
  return static_cast<InstanceId>(instances_.size() - 1);
}

NetId Design::add_net(std::string net_name) {
  Net n;
  n.name = std::move(net_name);
  nets_.push_back(std::move(n));
  return static_cast<NetId>(nets_.size() - 1);
}

PortId Design::add_port(std::string port_name, PortDirection direction,
                        Point location) {
  Port p;
  p.name = std::move(port_name);
  p.direction = direction;
  p.location = location;
  ports_.push_back(std::move(p));
  return static_cast<PortId>(ports_.size() - 1);
}

std::string Design::connect_pin_error(InstanceId inst, std::uint32_t pin_idx,
                                      NetId net_id) const {
  const Instance& instance = instances_[inst];
  const LibPin& lib_pin = library_->cell(instance.cell).pins[pin_idx];
  if (instance.pin_nets[pin_idx] != kInvalidId) {
    return "pin " + instance.name + "/" + lib_pin.name +
           " is already connected";
  }
  if (lib_pin.direction == PinDirection::Output &&
      nets_[net_id].driver.has_value()) {
    return "net " + nets_[net_id].name + " already has a driver";
  }
  return "";
}

void Design::connect_pin(InstanceId inst, std::uint32_t pin_idx, NetId net_id) {
  MGBA_CHECK(inst < instances_.size());
  Instance& instance = instances_[inst];
  MGBA_CHECK(pin_idx < instance.pin_nets.size());
  MGBA_CHECK(connect_pin_error(inst, pin_idx, net_id).empty());
  instance.pin_nets[pin_idx] = net_id;

  Net& net = mutable_net(net_id);
  const LibPin& lib_pin = library_->cell(instance.cell).pins[pin_idx];
  const Terminal t = Terminal::instance_pin(inst, pin_idx);
  if (lib_pin.direction == PinDirection::Output) {
    net.driver = t;
  } else {
    net.sinks.push_back(t);
  }
}

void Design::disconnect_pin(InstanceId inst, std::uint32_t pin_idx) {
  MGBA_CHECK(inst < instances_.size());
  Instance& instance = instances_[inst];
  MGBA_CHECK(pin_idx < instance.pin_nets.size());
  const NetId net_id = instance.pin_nets[pin_idx];
  if (net_id == kInvalidId) return;
  instance.pin_nets[pin_idx] = kInvalidId;

  Net& net = mutable_net(net_id);
  const Terminal t = Terminal::instance_pin(inst, pin_idx);
  if (net.driver == t) {
    net.driver.reset();
    return;
  }
  for (std::size_t i = 0; i < net.sinks.size(); ++i) {
    if (net.sinks[i] == t) {
      net.sinks.erase(net.sinks.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  MGBA_CHECK(false && "pin recorded a net the net does not know about");
}

std::string Design::connect_port_error(PortId port_id, NetId net_id) const {
  const Port& p = ports_[port_id];
  if (p.net != kInvalidId) return "port " + p.name + " is already connected";
  if (p.direction == PortDirection::Input && nets_[net_id].driver.has_value()) {
    return "net " + nets_[net_id].name + " already has a driver";
  }
  return "";
}

void Design::connect_port(PortId port_id, NetId net_id) {
  MGBA_CHECK(port_id < ports_.size());
  MGBA_CHECK(connect_port_error(port_id, net_id).empty());
  Port& p = ports_[port_id];
  p.net = net_id;

  Net& net = mutable_net(net_id);
  const Terminal t = Terminal::port(port_id);
  if (p.direction == PortDirection::Input) {
    net.driver = t;  // input ports drive into the design
  } else {
    net.sinks.push_back(t);
  }
}

void Design::disconnect_port(PortId port_id) {
  MGBA_CHECK(port_id < ports_.size());
  Port& p = ports_[port_id];
  if (p.net == kInvalidId) return;
  Net& net = mutable_net(p.net);
  const Terminal t = Terminal::port(port_id);
  p.net = kInvalidId;
  if (net.driver == t) {
    net.driver.reset();
    return;
  }
  for (std::size_t i = 0; i < net.sinks.size(); ++i) {
    if (net.sinks[i] == t) {
      net.sinks.erase(net.sinks.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  MGBA_CHECK(false && "port recorded a net the net does not know about");
}

std::string Design::resize_error(InstanceId inst,
                                 std::size_t new_cell_id) const {
  const LibCell& old_cell = library_->cell(instances_[inst].cell);
  const LibCell& new_cell = library_->cell(new_cell_id);
  bool same = old_cell.pins.size() == new_cell.pins.size();
  for (std::size_t i = 0; same && i < old_cell.pins.size(); ++i) {
    same = old_cell.pins[i].direction == new_cell.pins[i].direction;
  }
  if (same) return "";
  return "cells " + old_cell.name + " and " + new_cell.name +
         " have different pins";
}

void Design::resize_instance(InstanceId inst, std::size_t new_cell_id) {
  MGBA_CHECK(inst < instances_.size());
  MGBA_CHECK(resize_error(inst, new_cell_id).empty());
  instances_[inst].cell = new_cell_id;
}

InstanceId Design::insert_buffer(NetId net_id, std::size_t buffer_cell_id,
                                 const std::string& base_name,
                                 Point location) {
  const LibCell& buf_cell = library_->cell(buffer_cell_id);
  MGBA_CHECK(buf_cell.kind == CellKind::Buffer);

  // Detach all current sinks (copy first: disconnect mutates the list).
  const std::vector<Terminal> old_sinks = mutable_net(net_id).sinks;
  for (const Terminal& t : old_sinks) {
    if (t.kind == Terminal::Kind::InstancePin) {
      disconnect_pin(t.id, t.pin);
    } else {
      // Output port sink: detach directly.
      Port& p = ports_[t.id];
      p.net = kInvalidId;
      Net& net = mutable_net(net_id);
      for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        if (net.sinks[i] == t) {
          net.sinks.erase(net.sinks.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  const InstanceId buf =
      add_instance(base_name, buffer_cell_id, location);
  const NetId out_net = add_net(base_name + "_net");

  const std::size_t in_pin = [&] {
    for (std::size_t i = 0; i < buf_cell.pins.size(); ++i) {
      if (buf_cell.pins[i].direction == PinDirection::Input) return i;
    }
    MGBA_CHECK(false);
    return std::size_t{0};
  }();
  connect_pin(buf, static_cast<std::uint32_t>(in_pin), net_id);
  connect_pin(buf, static_cast<std::uint32_t>(buf_cell.output_pin()), out_net);

  for (const Terminal& t : old_sinks) {
    if (t.kind == Terminal::Kind::InstancePin) {
      connect_pin(t.id, t.pin, out_net);
    } else {
      connect_port(t.id, out_net);
    }
  }
  return buf;
}

InstanceId Design::insert_buffer_for_sink(NetId net_id, const Terminal& sink,
                                          std::size_t buffer_cell_id,
                                          const std::string& base_name,
                                          Point location) {
  const LibCell& buf_cell = library_->cell(buffer_cell_id);
  MGBA_CHECK(buf_cell.kind == CellKind::Buffer);

  // The buffer's input pin takes the detached sink's *position* in the net
  // sink list (not the end): net loads are floating-point sums over the
  // sinks in order, so a positional splice makes insert + remove_buffer (a
  // reverted buffering trial, or an ECO undo) restore the exact original
  // summation order and therefore bit-identical recomputed timing.
  std::size_t sink_pos = 0;
  {
    const Net& net = nets_[net_id];
    while (sink_pos < net.sinks.size() && net.sinks[sink_pos] != sink) {
      ++sink_pos;
    }
    MGBA_CHECK(sink_pos < net.sinks.size());
  }

  // Detach just the requested sink.
  if (sink.kind == Terminal::Kind::InstancePin) {
    MGBA_CHECK(instances_[sink.id].pin_nets[sink.pin] == net_id);
    disconnect_pin(sink.id, sink.pin);
  } else {
    Port& p = ports_[sink.id];
    MGBA_CHECK(p.net == net_id);
    p.net = kInvalidId;
    Net& net = mutable_net(net_id);
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
      if (net.sinks[i] == sink) {
        net.sinks.erase(net.sinks.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }

  const InstanceId buf = add_instance(base_name, buffer_cell_id, location);
  const NetId out_net = add_net(base_name + "_net");
  const std::size_t in_pin = [&] {
    for (std::size_t i = 0; i < buf_cell.pins.size(); ++i) {
      if (buf_cell.pins[i].direction == PinDirection::Input) return i;
    }
    MGBA_CHECK(false);
    return std::size_t{0};
  }();
  connect_pin(buf, static_cast<std::uint32_t>(in_pin), net_id);
  {
    auto& sinks = mutable_net(net_id).sinks;
    std::rotate(sinks.begin() + static_cast<std::ptrdiff_t>(sink_pos),
                sinks.end() - 1, sinks.end());
  }
  connect_pin(buf, static_cast<std::uint32_t>(buf_cell.output_pin()), out_net);
  if (sink.kind == Terminal::Kind::InstancePin) {
    connect_pin(sink.id, sink.pin, out_net);
  } else {
    connect_port(sink.id, out_net);
  }
  return buf;
}

std::string Design::remove_buffer_error(InstanceId buffer,
                                        NetId original_net) const {
  const Instance& inst = instances_[buffer];
  const LibCell& cell = cell_of(buffer);
  if (cell.kind != CellKind::Buffer) return inst.name + " is not a buffer";
  const std::size_t out_pin = cell.output_pin();
  if (inst.pin_nets[out_pin] == kInvalidId) {
    return "buffer " + inst.name + " drives no net";
  }
  for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
    if (p != out_pin && inst.pin_nets[p] == original_net) return "";
  }
  return "buffer " + inst.name + " is not fed by net " +
         nets_[original_net].name;
}

void Design::remove_buffer(InstanceId buffer, NetId original_net) {
  MGBA_CHECK(remove_buffer_error(buffer, original_net).empty());
  const LibCell& cell = cell_of(buffer);
  const std::size_t out_pin = cell.output_pin();
  const NetId out_net = instances_[buffer].pin_nets[out_pin];

  // Mirror of the positional splice in insert_buffer_for_sink: remember
  // where the buffer's input pin sits in the original net's sink list so
  // the reattached sinks can be spliced back there, restoring the exact
  // pre-insertion sink order (and with it the floating-point net-load
  // summation order).
  std::size_t splice_pos = nets_[original_net].sinks.size();
  for (std::size_t p = 0; p < instances_[buffer].pin_nets.size(); ++p) {
    if (p == out_pin || instances_[buffer].pin_nets[p] != original_net) {
      continue;
    }
    const Terminal t =
        Terminal::instance_pin(buffer, static_cast<std::uint32_t>(p));
    const auto& s = nets_[original_net].sinks;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == t) {
        splice_pos = i;
        break;
      }
    }
  }

  const std::vector<Terminal> sinks = nets_[out_net].sinks;
  for (const Terminal& t : sinks) {
    if (t.kind == Terminal::Kind::InstancePin) {
      disconnect_pin(t.id, t.pin);
    } else {
      Port& p = ports_[t.id];
      p.net = kInvalidId;
      Net& net = mutable_net(out_net);
      for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        if (net.sinks[i] == t) {
          net.sinks.erase(net.sinks.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }
  for (std::size_t p = 0; p < instances_[buffer].pin_nets.size(); ++p) {
    disconnect_pin(buffer, static_cast<std::uint32_t>(p));
  }
  for (const Terminal& t : sinks) {
    if (t.kind == Terminal::Kind::InstancePin) {
      connect_pin(t.id, t.pin, original_net);
    } else {
      connect_port(t.id, original_net);
    }
  }
  {
    auto& s = mutable_net(original_net).sinks;
    const std::size_t appended = sinks.size();
    if (splice_pos + appended <= s.size()) {
      std::rotate(s.begin() + static_cast<std::ptrdiff_t>(splice_pos),
                  s.end() - static_cast<std::ptrdiff_t>(appended), s.end());
    }
  }
}

bool Design::is_disconnected(InstanceId id) const {
  for (const NetId net : instance(id).pin_nets) {
    if (net != kInvalidId) return false;
  }
  return true;
}

void Design::set_location(InstanceId id, Point location) {
  MGBA_CHECK(id < instances_.size());
  instances_[id].location = location;
}

std::optional<InstanceId> Design::find_instance(
    const std::string& inst_name) const {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].name == inst_name) return static_cast<InstanceId>(i);
  }
  return std::nullopt;
}

std::optional<NetId> Design::find_net(const std::string& net_name) const {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i].name == net_name) return static_cast<NetId>(i);
  }
  return std::nullopt;
}

std::optional<PortId> Design::find_port(const std::string& port_name) const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].name == port_name) return static_cast<PortId>(i);
  }
  return std::nullopt;
}

double Design::total_area() const {
  double area = 0.0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (is_disconnected(static_cast<InstanceId>(i))) continue;
    area += library_->cell(instances_[i].cell).area_um2;
  }
  return area;
}

double Design::total_leakage() const {
  double leakage = 0.0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (is_disconnected(static_cast<InstanceId>(i))) continue;
    leakage += library_->cell(instances_[i].cell).leakage_nw;
  }
  return leakage;
}

double Design::net_load_ff(NetId id, double wire_cap_per_um) const {
  const Net& n = net(id);
  double load = 0.0;
  Point driver_loc{};
  if (n.driver) driver_loc = terminal_location(*n.driver);
  for (const Terminal& t : n.sinks) {
    if (t.kind == Terminal::Kind::InstancePin) {
      const LibCell& cell = cell_of(t.id);
      load += cell.pins[t.pin].capacitance_ff;
    }
    if (n.driver) {
      load += wire_cap_per_um * manhattan(driver_loc, terminal_location(t));
    }
  }
  return load;
}

Point Design::terminal_location(const Terminal& t) const {
  if (t.kind == Terminal::Kind::InstancePin) return instance(t.id).location;
  return port(t.id).location;
}

void Design::validate() const {
  // Instance side -> net side.
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    const LibCell& cell = library_->cell(inst.cell);
    MGBA_CHECK(inst.pin_nets.size() == cell.pins.size());
    for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
      const NetId net_id = inst.pin_nets[p];
      if (net_id == kInvalidId) continue;
      MGBA_CHECK(net_id < nets_.size());
      const Net& n = nets_[net_id];
      const Terminal t = Terminal::instance_pin(static_cast<InstanceId>(i),
                                                static_cast<std::uint32_t>(p));
      if (cell.pins[p].direction == PinDirection::Output) {
        MGBA_CHECK(n.driver == t);
      } else {
        bool found = false;
        for (const Terminal& s : n.sinks) found = found || s == t;
        MGBA_CHECK(found);
      }
    }
  }
  // Net side -> instance/port side.
  for (std::size_t ni = 0; ni < nets_.size(); ++ni) {
    const Net& n = nets_[ni];
    const auto check_terminal = [&](const Terminal& t, bool is_driver) {
      if (t.kind == Terminal::Kind::InstancePin) {
        MGBA_CHECK(t.id < instances_.size());
        const Instance& inst = instances_[t.id];
        MGBA_CHECK(t.pin < inst.pin_nets.size());
        MGBA_CHECK(inst.pin_nets[t.pin] == static_cast<NetId>(ni));
        const PinDirection dir =
            library_->cell(inst.cell).pins[t.pin].direction;
        MGBA_CHECK(is_driver == (dir == PinDirection::Output));
      } else {
        MGBA_CHECK(t.id < ports_.size());
        MGBA_CHECK(ports_[t.id].net == static_cast<NetId>(ni));
        const bool is_input_port =
            ports_[t.id].direction == PortDirection::Input;
        MGBA_CHECK(is_driver == is_input_port);
      }
    };
    if (n.driver) check_terminal(*n.driver, /*is_driver=*/true);
    for (const Terminal& s : n.sinks) check_terminal(s, /*is_driver=*/false);
  }
}

Net& Design::mutable_net(NetId id) {
  MGBA_CHECK(id < nets_.size());
  return nets_[id];
}

}  // namespace mgba
