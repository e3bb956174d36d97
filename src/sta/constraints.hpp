#pragma once

/// \file constraints.hpp
/// Timing constraint specification for the single-clock analysis the paper
/// targets: a clock period, boundary conditions at ports, and analysis
/// feature toggles (CRPR, clock-network derating); and the one rule that
/// turns them into an endpoint's required time, which GBA's backward
/// sweeps and golden PBA both apply.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sta/timing_types.hpp"

namespace mgba {

struct TimingConstraints {
  /// Name of the clock source input port.
  std::string clock_port = "CLK";
  /// Clock period in ps; capture edge for setup is one period after launch.
  double clock_period_ps = 1000.0;
  /// Clock uncertainty (jitter + margin): subtracted from the setup
  /// required time and added to the hold requirement.
  double clock_uncertainty_ps = 0.0;

  /// External arrival time applied at data input ports (both modes).
  double input_delay_ps = 0.0;
  /// Transition assumed at input ports and the clock source.
  double input_slew_ps = 20.0;
  /// External delay budget at output ports: required = period - this -
  /// uncertainty.
  double output_delay_ps = 0.0;

  /// Per-port overrides of input_delay_ps / output_delay_ps, keyed by port
  /// name (set_input_delay / set_output_delay in SDC terms).
  std::map<std::string, double> input_delay_overrides;
  std::map<std::string, double> output_delay_overrides;

  /// Timing exceptions, endpoint-scoped. Endpoints are named by output
  /// port name ("out_3") or flip-flop data pin ("ff_12/D").
  /// set_false_path -to: the endpoint is excluded from both checks.
  std::set<std::string> false_path_endpoints;
  /// set_multicycle_path N -to: the setup capture edge moves to N periods
  /// after launch (N >= 1; hold stays at the launch edge, the common
  /// default of -setup multicycle constraints).
  std::map<std::string, int> multicycle_endpoints;

  /// Clock reconvergence pessimism removal on/off.
  bool enable_crpr = true;
};

/// The exceptions of one endpoint, resolved by name at Timer rebuild.
struct EndpointException {
  bool false_path = false;
  int multicycle = 1;
};

/// Per check (index into TimingGraph::checks()) and per port (PortId).
struct EndpointExceptions {
  std::vector<EndpointException> check;
  std::vector<EndpointException> port;
};

/// Required time a check puts on its data pin in \p mode, from the capture
/// clock's arrival (early for setup, late for hold), the setup or hold
/// time and the CRPR credit. Setup captures period x multicycle out and
/// subtracts the uncertainty; hold stays at the launch edge and adds it. A
/// false path has no requirement: +inf for setup, -inf for hold.
inline double check_required(Mode mode, const TimingConstraints& constraints,
                             const EndpointException& exception,
                             double capture_clock_arrival, double check_ps,
                             double credit_ps) {
  if (mode == Mode::Late) {
    if (exception.false_path) return kInfPs;
    return constraints.clock_period_ps *
               static_cast<double>(exception.multicycle) +
           capture_clock_arrival - check_ps + credit_ps -
           constraints.clock_uncertainty_ps;
  }
  if (exception.false_path) return -kInfPs;
  return capture_clock_arrival + check_ps - credit_ps +
         constraints.clock_uncertainty_ps;
}

/// Setup required time at an output port with external delay
/// \p output_delay_ps, less the uncertainty as check_required's setup
/// branch takes it. Output ports carry no hold requirement (-inf).
inline double output_required(const TimingConstraints& constraints,
                              const EndpointException& exception,
                              double output_delay_ps) {
  if (exception.false_path) return kInfPs;
  return constraints.clock_period_ps *
             static_cast<double>(exception.multicycle) -
         output_delay_ps - constraints.clock_uncertainty_ps;
}

}  // namespace mgba
