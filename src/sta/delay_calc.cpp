#include "sta/delay_calc.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/float_bits.hpp"

namespace mgba {

bool ArcInputs::same_bits(const ArcInputs& o) const {
  return float_bits(load_ff) == float_bits(o.load_ff) &&
         float_bits(dist_um) == float_bits(o.dist_um);
}

void DelayCache::resize(std::size_t lanes, std::size_t arcs) {
  const std::size_t n = lanes * arcs;
  slew_bits.assign(n, 0);
  cell_key.assign(n, kEmptyKey);
  delay_ps.assign(n, 0.0);
  slew_ps.assign(n, 0.0);
  inputs.assign(arcs, ArcInputs{});
}

namespace {

/// A run of new arc ids [dst, dst + len) carried from old ids
/// [src, src + len). A rebuild shifts ids, so runs are long.
struct CarryRun {
  std::size_t dst;
  std::size_t src;
  std::size_t len;
};

/// One memo array re-shaped lane by lane to the rebuilt arc ids: each run
/// is copied, every other slot is \p empty. Array at a time, so a rebuild
/// holds at most one array twice.
template <typename T>
void carry_lanes(std::vector<T>& values, T empty, std::size_t lanes,
                 std::size_t old_arcs, std::size_t arcs,
                 const std::vector<CarryRun>& runs) {
  std::vector<T> out(lanes * arcs, empty);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const T* src = values.data() + lane * old_arcs;
    T* dst = out.data() + lane * arcs;
    for (const CarryRun& r : runs) {
      std::copy_n(src + r.src, r.len, dst + r.dst);
    }
  }
  values = std::move(out);
}

/// Grows \p values to \p n elements in place. Past the capacity it
/// reserves 1/64 more than asked: a buffer patch adds a couple of arcs, so
/// the next few hundred patches fit without reallocating, at a fraction of
/// the slack std::vector's doubling would hold.
template <typename T>
void grow(std::vector<T>& values, std::size_t n) {
  if (n > values.capacity()) values.reserve(n + n / 64);
  values.resize(n);
}

/// One memo array re-shaped in place through a buffer patch's arc map,
/// lane by lane from the last: a lane only moves up, into space the lanes
/// above it have left, so only its moved range needs a copy aside.
template <typename T>
void patch_lanes(std::vector<T>& values, T empty, std::size_t lanes,
                 std::size_t old_arcs, const BufferPatch& patch) {
  const std::size_t shift = patch.arc_shift();
  const std::size_t arcs = old_arcs + shift;
  const std::size_t first = patch.first_moved_arc;
  const std::size_t tail = patch.tail_arc;
  grow(values, lanes * arcs);
  std::vector<T> moved;
  moved.reserve(tail - first);
  for (std::size_t lane = lanes; lane-- > 0;) {
    T* const src = values.data() + lane * old_arcs;
    T* const dst = values.data() + lane * arcs;
    moved.assign(src + first, src + tail);
    std::memmove(dst + tail + shift, src + tail,
                 (old_arcs - tail) * sizeof(T));
    std::memmove(dst, src, first * sizeof(T));
    for (std::size_t k = 0; k < moved.size(); ++k) {
      const ArcId a = patch.arc_map[first + k];
      if (a != kInvalidArc) dst[a] = moved[k];
    }
    for (const ArcId a : patch.new_arcs) dst[a] = empty;
  }
}

}  // namespace

void DelayCache::patch(std::size_t lanes, const BufferPatch& patch) {
  const std::size_t old_arcs = num_arcs();
  MGBA_DCHECK(patch.arc_map.size() == old_arcs);
  patch_lanes<std::uint64_t>(slew_bits, 0, lanes, old_arcs, patch);
  patch_lanes<std::uint32_t>(cell_key, kEmptyKey, lanes, old_arcs, patch);
  patch_lanes(delay_ps, 0.0, lanes, old_arcs, patch);
  patch_lanes(slew_ps, 0.0, lanes, old_arcs, patch);
  patch_lanes(inputs, ArcInputs{}, 1, old_arcs, patch);
}

void DelayCache::carry(std::size_t lanes,
                       std::span<const ArcId> carried_from) {
  const std::size_t old_arcs = num_arcs();
  const std::size_t arcs = carried_from.size();
  std::vector<CarryRun> runs;
  for (std::size_t a = 0; a < arcs; ++a) {
    const ArcId o = carried_from[a];
    if (o == kInvalidArc) continue;
    if (!runs.empty() && runs.back().dst + runs.back().len == a &&
        runs.back().src + runs.back().len == o) {
      ++runs.back().len;
    } else {
      runs.push_back({a, o, 1});
    }
  }
  carry_lanes<std::uint64_t>(slew_bits, 0, lanes, old_arcs, arcs, runs);
  carry_lanes<std::uint32_t>(cell_key, kEmptyKey, lanes, old_arcs, arcs,
                             runs);
  carry_lanes(delay_ps, 0.0, lanes, old_arcs, arcs, runs);
  carry_lanes(slew_ps, 0.0, lanes, old_arcs, arcs, runs);
  carry_lanes(inputs, ArcInputs{}, 1, old_arcs, arcs, runs);
}

void DelayCache::invalidate_arc(std::size_t lanes, ArcId a) {
  const std::size_t arcs = num_arcs();
  if (a >= arcs) return;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t index = lane * arcs + a;
    slew_bits[index] = 0;
    cell_key[index] = kEmptyKey;
    delay_ps[index] = 0.0;
    slew_ps[index] = 0.0;
  }
  inputs[a] = ArcInputs{};
}

DelayCalculator::DelayCalculator(const Design& design, WireModel wire)
    : design_(&design), wire_(wire) {}

double DelayCalculator::net_load_ff(NetId net) const {
  return design_->net_load_ff(net, wire_.cap_per_um);
}

ArcInputs DelayCalculator::inputs(const TimingGraph& graph,
                                  ArcId arc_id) const {
  const TimingArc& arc = graph.arc(arc_id);
  ArcInputs in;
  if (arc.kind == TimingArc::Kind::Cell) {
    const Instance& inst = design_->instance(arc.inst);
    const LibTimingArc& lib_arc =
        design_->library().cell(inst.cell).arcs[arc.lib_arc];
    const NetId out_net = inst.pin_nets[lib_arc.to_pin];
    MGBA_DCHECK(out_net != kInvalidId);
    in.load_ff = net_load_ff(out_net);
  } else {
    const Net& net = design_->net(arc.net);
    MGBA_DCHECK(net.driver.has_value());
    const Point driver_loc = design_->terminal_location(*net.driver);
    const Terminal& sink = graph.node(arc.to).terminal;
    in.dist_um = manhattan(driver_loc, design_->terminal_location(sink));
    if (sink.kind == Terminal::Kind::InstancePin) {
      in.load_ff = design_->cell_of(sink.id).pins[sink.pin].capacitance_ff;
    }
  }
  return in;
}

ArcTiming DelayCalculator::evaluate(const TimingGraph& graph, ArcId arc_id,
                                    double input_slew,
                                    const LibraryScaling& scaling) const {
  return evaluate(graph, arc_id, input_slew, inputs(graph, arc_id), scaling);
}

ArcTiming DelayCalculator::evaluate(const TimingGraph& graph, ArcId arc_id,
                                    double input_slew, const ArcInputs& in,
                                    const LibraryScaling& scaling) const {
  const TimingArc& arc = graph.arc(arc_id);
  ArcTiming out;
  if (arc.kind == TimingArc::Kind::Cell) {
    const LibTimingArc& lib_arc = design_->cell_of(arc.inst).arcs[arc.lib_arc];
    out.delay_ps = lib_arc.delay.lookup(input_slew, in.load_ff) * scaling.delay;
    out.slew_ps =
        lib_arc.output_slew.lookup(input_slew, in.load_ff) * scaling.slew;
  } else {
    // Elmore star: the branch resistance sees half its own wire cap plus
    // the sink pin cap. Interconnect tracks the corner's delay factor (an
    // RC-corner proxy); the degradation term then scales with it.
    const double wire_res = wire_.res_per_um * in.dist_um;
    const double wire_cap = wire_.cap_per_um * in.dist_um;
    out.delay_ps = wire_res * (wire_cap * 0.5 + in.load_ff) * scaling.delay;
    out.slew_ps = input_slew + wire_.slew_degradation * out.delay_ps;
  }
  return out;
}

double DelayCalculator::setup_time(const TimingCheck& check, double clock_slew,
                                   double data_slew,
                                   const LibraryScaling& scaling) const {
  const LibCell& cell = design_->cell_of(check.inst);
  return cell.constraints[check.constraint].setup.lookup(clock_slew,
                                                         data_slew) *
         scaling.constraint;
}

double DelayCalculator::hold_time(const TimingCheck& check, double clock_slew,
                                  double data_slew,
                                  const LibraryScaling& scaling) const {
  const LibCell& cell = design_->cell_of(check.inst);
  return cell.constraints[check.constraint].hold.lookup(clock_slew,
                                                        data_slew) *
         scaling.constraint;
}

}  // namespace mgba
