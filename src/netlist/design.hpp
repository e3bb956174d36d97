#pragma once

/// \file design.hpp
/// Gate-level netlist with placement. A Design owns instances (placed
/// library cells), nets (driver + sinks), and top-level ports. It exposes
/// the small set of mutation primitives the timing-closure optimizer needs:
/// cell resizing within a footprint family and net splicing for buffer
/// insertion. Connectivity is kept consistent from both sides (instance
/// pin -> net, net -> terminal list) at all times.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "util/check.hpp"

namespace mgba {

using InstanceId = std::uint32_t;
using NetId = std::uint32_t;
using PortId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

/// A placement location in micrometres.
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Manhattan distance between two points (the wirelength model).
double manhattan(const Point& a, const Point& b);

enum class PortDirection : std::uint8_t { Input, Output };

/// One end of a net: either a pin of an instance or a top-level port.
struct Terminal {
  enum class Kind : std::uint8_t { InstancePin, Port };
  Kind kind = Kind::InstancePin;
  std::uint32_t id = kInvalidId;   ///< InstanceId or PortId
  std::uint32_t pin = kInvalidId;  ///< library pin index (InstancePin only)

  static Terminal instance_pin(InstanceId inst, std::uint32_t pin_idx) {
    return {Kind::InstancePin, inst, pin_idx};
  }
  static Terminal port(PortId p) { return {Kind::Port, p, kInvalidId}; }

  friend bool operator==(const Terminal&, const Terminal&) = default;
};

/// A placed occurrence of a library cell.
struct Instance {
  std::string name;
  std::size_t cell = 0;  ///< library cell id
  Point location;
  /// Net connected to each library pin (kInvalidId = unconnected).
  std::vector<NetId> pin_nets;
};

/// A signal net: exactly one driver terminal plus sink terminals.
struct Net {
  std::string name;
  std::optional<Terminal> driver;
  std::vector<Terminal> sinks;
};

/// A top-level port. Input ports drive nets; output ports load them.
struct Port {
  std::string name;
  PortDirection direction = PortDirection::Input;
  Point location;
  NetId net = kInvalidId;
};

class Design {
 public:
  /// The design keeps a non-owning reference to its library, which must
  /// outlive it.
  explicit Design(const Library& library, std::string name = "top");

  [[nodiscard]] const Library& library() const { return *library_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // --- construction -------------------------------------------------------

  /// Pre-sizes the backing arrays. The generator streams 1M+ instances in
  /// one pass; reserving once avoids the reallocation churn (and the ~2x
  /// transient peak of vector growth) at that scale.
  void reserve(std::size_t instances, std::size_t nets, std::size_t ports) {
    instances_.reserve(instances);
    nets_.reserve(nets);
    ports_.reserve(ports);
  }

  InstanceId add_instance(std::string inst_name, std::size_t cell_id,
                          Point location = {});
  NetId add_net(std::string net_name);
  PortId add_port(std::string port_name, PortDirection direction,
                  Point location = {});

  /// Connects instance pin (library pin index) to a net. The pin must be
  /// currently unconnected, and an output pin needs a net with no driver:
  /// connect_pin_error names the rule a connection would break, "" when
  /// none, so a reader can reject the file before the call.
  void connect_pin(InstanceId inst, std::uint32_t pin_idx, NetId net);
  [[nodiscard]] std::string connect_pin_error(InstanceId inst,
                                              std::uint32_t pin_idx,
                                              NetId net) const;
  /// Disconnects an instance pin from its net (no-op if unconnected).
  void disconnect_pin(InstanceId inst, std::uint32_t pin_idx);
  /// Connects a port to a net. The port must be currently unconnected, and
  /// an input port needs a net with no driver (connect_port_error).
  void connect_port(PortId port, NetId net);
  [[nodiscard]] std::string connect_port_error(PortId port, NetId net) const;
  /// Disconnects a port from its net (no-op if unconnected).
  void disconnect_port(PortId port);

  // --- optimizer mutation primitives --------------------------------------

  /// Swaps the library cell of an instance. The new cell must have an
  /// identical pin interface (same count/directions), which holds within a
  /// footprint family of the default library (resize_error).
  void resize_instance(InstanceId inst, std::size_t new_cell_id);
  [[nodiscard]] std::string resize_error(InstanceId inst,
                                         std::size_t new_cell_id) const;

  /// Splices a buffer into \p net: the buffer input joins \p net and all of
  /// the net's current sinks move to a freshly created net driven by the
  /// buffer output. Returns the new buffer instance.
  InstanceId insert_buffer(NetId net, std::size_t buffer_cell_id,
                           const std::string& base_name, Point location);

  /// Like insert_buffer, but moves only \p sink onto the new buffer's
  /// output net, leaving the other sinks on \p net. This is the targeted
  /// rebuffering move for one critical long wire: placed mid-wire it
  /// halves both RC segments. The sink must currently be on \p net.
  InstanceId insert_buffer_for_sink(NetId net, const Terminal& sink,
                                    std::size_t buffer_cell_id,
                                    const std::string& base_name,
                                    Point location);

  /// Reverts insert_buffer: moves the sinks of the buffer's output net
  /// back onto \p original_net and fully disconnects the buffer. The
  /// instance record remains (ids are stable) but a disconnected instance
  /// is excluded from area/leakage accounting and from the timing graph.
  /// \p buffer must be a buffer that drives a net and whose input is on
  /// \p original_net (remove_buffer_error).
  void remove_buffer(InstanceId buffer, NetId original_net);
  [[nodiscard]] std::string remove_buffer_error(InstanceId buffer,
                                                NetId original_net) const;

  /// True when no pin of the instance is connected (a tombstone left by
  /// remove_buffer).
  [[nodiscard]] bool is_disconnected(InstanceId id) const;

  // --- access --------------------------------------------------------------

  [[nodiscard]] std::size_t num_instances() const { return instances_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }

  [[nodiscard]] const Instance& instance(InstanceId id) const {
    MGBA_CHECK(id < instances_.size());
    return instances_[id];
  }
  [[nodiscard]] const Net& net(NetId id) const {
    MGBA_CHECK(id < nets_.size());
    return nets_[id];
  }
  [[nodiscard]] const Port& port(PortId id) const {
    MGBA_CHECK(id < ports_.size());
    return ports_[id];
  }

  /// Moves an instance (used when legalizing inserted buffers).
  void set_location(InstanceId id, Point location);

  [[nodiscard]] std::optional<InstanceId> find_instance(
      const std::string& inst_name) const;
  [[nodiscard]] std::optional<NetId> find_net(const std::string& net_name) const;
  [[nodiscard]] std::optional<PortId> find_port(
      const std::string& port_name) const;

  /// Library cell of an instance (shorthand).
  [[nodiscard]] const LibCell& cell_of(InstanceId id) const {
    return library_->cell(instance(id).cell);
  }

  /// Sum of area over all instances (um^2).
  [[nodiscard]] double total_area() const;
  /// Sum of leakage over all instances (nW).
  [[nodiscard]] double total_leakage() const;

  /// Total input capacitance presented to the driver of a net, including
  /// the wire capacitance implied by driver->sink Manhattan lengths.
  /// \p wire_cap_per_um is the unit wire capacitance (fF/um).
  [[nodiscard]] double net_load_ff(NetId id, double wire_cap_per_um) const;

  /// Location of a terminal (instance location or port location).
  [[nodiscard]] Point terminal_location(const Terminal& t) const;

  /// Checks structural sanity (every connection recorded on both sides,
  /// single driver per net, pin directions consistent). Aborts on
  /// violation; used by tests and after generator/optimizer mutations.
  void validate() const;

 private:
  Net& mutable_net(NetId id);

  const Library* library_;
  std::string name_;
  std::vector<Instance> instances_;
  std::vector<Net> nets_;
  std::vector<Port> ports_;
};

}  // namespace mgba
