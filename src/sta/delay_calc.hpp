#pragma once

/// \file delay_calc.hpp
/// Arc delay/slew calculation: NLDM table lookups for cell arcs driven by
/// the net load, and an Elmore-style star model for net arcs. Derating and
/// mGBA weighting are deliberately NOT applied here — this layer produces
/// *base* delays; the Timer composes base delay x derate x weight so that
/// PBA can re-derate the same base values per path.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/design.hpp"
#include "sta/timing_graph.hpp"
#include "sta/timing_types.hpp"

namespace mgba {

/// Interconnect electrical model. Defaults approximate an intermediate
/// metal layer at a generic planar node.
struct WireModel {
  /// Unit resistance expressed directly in delay terms: ps of Elmore delay
  /// per um of wire per fF of downstream capacitance.
  double res_per_um = 0.006;
  double cap_per_um = 0.15;   ///< fF per um: unit capacitance
  /// Slew degradation along a wire as a fraction of wire delay.
  double slew_degradation = 0.6;
};

/// Result of evaluating one timing arc.
struct ArcTiming {
  double delay_ps = 0.0;
  double slew_ps = 0.0;  ///< transition at the arc's destination
};

/// The design-side inputs of an arc evaluation besides the cell, the lib
/// arc and the input slew: for a cell arc the load on its output net; for
/// a net arc the sink pin capacitance and the driver-to-sink Manhattan
/// distance. Equal bits in, equal bits out.
struct ArcInputs {
  double load_ff = 0.0;
  double dist_um = 0.0;  ///< net arcs only
  [[nodiscard]] bool same_bits(const ArcInputs& o) const;
};

/// Memoized base arc timings: one
/// direct-mapped entry per (lane, arc), where lane = corner * kNumModes +
/// mode, so an entry already encodes the corner scaling. The stored key is
/// (cell, input-slew bits); the arc's ArcInputs are deliberately *not*
/// part of the key — computing the net load per lookup costs as much as
/// the lookup saves — so every entry whose inputs can have changed must be
/// dropped explicitly (Timer::invalidate_instance does this; see DESIGN.md
/// §10 for the complete invalidation rule set). Net arcs use a sentinel
/// cell key. Each arc also records the ArcInputs of its latest evaluation,
/// which every live entry of the arc was computed under; an arc without a
/// live entry holds the empty record. A graph rebuild moves an arc's
/// entries to its new id only when the arc survives and its current inputs
/// still equal that record (Timer::rebuild_graph; a buffer trial's
/// rollback applies the same rule, and a buffer patch keeps exactly those
/// entries). A rejected resize is undone like any other: resized back and
/// invalidated, the entries it dropped are recomputed from the same key
/// and inputs, hence to the same bits.
///
/// Thread safety: entries are written only from the level-synchronous
/// sweeps, where each (lane, arc) has exactly one writer per level (the
/// arc's destination node), so no synchronization is needed; the hit/miss
/// counters are relaxed atomics because they aggregate across threads.
struct DelayCache {
  /// Entry never written (or explicitly invalidated).
  static constexpr std::uint32_t kEmptyKey = 0xffffffffu;
  /// Cell key of net-arc entries (real cell ids are small).
  static constexpr std::uint32_t kNetArcKey = 0xfffffffeu;

  // Structure-of-arrays layout (parallel arrays indexed lane * num_arcs +
  // arc): the full sweeps probe a whole level's slice with one key/bits
  // compare pass (kernels::probe) and bulk-read the hit payloads, which an
  // array-of-structs entry layout cannot feed.
  std::vector<std::uint64_t> slew_bits;
  std::vector<std::uint32_t> cell_key;
  std::vector<double> delay_ps;
  std::vector<double> slew_ps;
  /// Per arc (not per lane): the inputs of the arc's latest evaluation.
  /// Written by the evaluating sweep next to the entry, by the arc's
  /// single writer.
  std::vector<ArcInputs> inputs;

  [[nodiscard]] std::size_t size() const { return cell_key.size(); }
  [[nodiscard]] bool empty() const { return cell_key.empty(); }
  [[nodiscard]] std::size_t num_arcs() const { return inputs.size(); }
  /// Allocated payload bytes of the arrays (memory_stats accounting).
  [[nodiscard]] std::size_t bytes() const {
    return slew_bits.capacity() * sizeof(std::uint64_t) +
           cell_key.capacity() * sizeof(std::uint32_t) +
           (delay_ps.capacity() + slew_ps.capacity()) * sizeof(double) +
           inputs.capacity() * sizeof(ArcInputs);
  }

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};

  /// Folds a worker's locally-accumulated lookup counts into the shared
  /// counters — one atomic op per parallel block instead of per lookup,
  /// which matters at ~1M lookups per closure flow.
  void add_counts(std::uint64_t h, std::uint64_t m) {
    if (h != 0) hits.fetch_add(h, std::memory_order_relaxed);
    if (m != 0) misses.fetch_add(m, std::memory_order_relaxed);
  }

  /// Re-sizes to \p lanes x \p arcs empty entries (graph construction,
  /// corner-set change); the hit/miss counters survive, mirroring
  /// Timer's update counters.
  void resize(std::size_t lanes, std::size_t arcs);

  /// Re-shapes the memo to a rebuilt graph with \p lanes lanes (the
  /// current count): new arc a takes every lane's entry and the input
  /// record of old arc carried_from[a], or starts empty when that is
  /// kInvalidArc.
  void carry(std::size_t lanes, std::span<const ArcId> carried_from);

  /// Re-shapes the memo in place to the graph \p patch derived, with \p
  /// lanes lanes: every old arc's entries and record move to its new id
  /// (per lane, the unmoved arcs and the tail in one block each, the moved
  /// range one by one) and the new arcs start empty. Grows the arrays with
  /// a little headroom, so successive patches rarely reallocate.
  void patch(std::size_t lanes, const BufferPatch& patch);

  /// Drops every lane's entry of arc \p a and empties its record.
  void invalidate_arc(std::size_t lanes, ArcId a);
};

class DelayCalculator {
 public:
  DelayCalculator(const Design& design, WireModel wire);

  /// Base (underated) timing of \p arc for input transition \p input_slew,
  /// under a corner's library scaling (identity = the unscaled library,
  /// bit-for-bit). Cell arcs read the NLDM tables at the driver's current
  /// net load and scale delay/slew; net arcs use the Elmore star model
  /// from driver to that sink, with the wire delay (and hence the slew
  /// degradation it induces) scaled.
  [[nodiscard]] ArcTiming evaluate(const TimingGraph& graph, ArcId arc,
                                   double input_slew,
                                   const LibraryScaling& scaling = {}) const;
  /// The same evaluation from the arc's already-derived inputs
  /// (evaluate(g, a, s, sc) == evaluate(g, a, s, inputs(g, a), sc)).
  [[nodiscard]] ArcTiming evaluate(const TimingGraph& graph, ArcId arc,
                                   double input_slew, const ArcInputs& in,
                                   const LibraryScaling& scaling) const;
  /// The arc's current ArcInputs in the design.
  [[nodiscard]] ArcInputs inputs(const TimingGraph& graph, ArcId arc) const;

  /// Total capacitive load on the driver of \p net: sink pin caps plus
  /// wire capacitance for the driver->sink Manhattan lengths.
  [[nodiscard]] double net_load_ff(NetId net) const;

  /// Setup / hold constraint values for a check given clock/data slews,
  /// scaled by the corner's constraint factor.
  [[nodiscard]] double setup_time(const TimingCheck& check, double clock_slew,
                                  double data_slew,
                                  const LibraryScaling& scaling = {}) const;
  [[nodiscard]] double hold_time(const TimingCheck& check, double clock_slew,
                                 double data_slew,
                                 const LibraryScaling& scaling = {}) const;

 private:
  const Design* design_;
  WireModel wire_;
};

}  // namespace mgba
