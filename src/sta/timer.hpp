#pragma once

/// \file timer.hpp
/// The graph-based timing engine (GBA). Implements the semantics whose
/// pessimism the paper's mGBA removes:
///
///   * Eq. (4) max/min arrival merging at every node,
///   * worst-slew propagation (late mode keeps the max fanin slew),
///   * per-instance AOCV derating (worst cell depth, supplied by the aocv
///     module as plain DeratePair factors),
///   * clock reconvergence pessimism removal (CRPR) at setup/hold checks,
///   * per-instance mGBA weighting factors on data cells: effective late
///     data-cell delay = base x derate_late x (1 + x_j).
///
/// Multi-corner analysis (MCMM): the engine is corner-indexed throughout.
/// Every AnalysisCorner carries its own library scaling, AOCV derates, and
/// mGBA weight vector; a single level-synchronous sweep fills all corners'
/// lanes of the corner-major TimingData arena per level (parallel across
/// corners x nodes). Queries take a CornerId — the legacy two-argument
/// forms read kDefaultCorner — and *_merged variants return the worst
/// value across corners, which is what the optimizer closes against. With
/// one identity corner the engine is bit-identical to the pre-corner
/// implementation at any thread count.
///
/// The Timer supports incremental update after gate resizing (value-only
/// change) and after buffer insertion (a graph patch that carries the
/// timing arena through its id maps; any other structural edit rebuilds),
/// the two transforms the timing-closure optimizer applies, and after a
/// derate install that names the instances it moved. Each of these seeds
/// the incremental frontier; construction, rebuilds, corner, weight and
/// whole-vector derate installs take the full sweep. Incremental
/// invalidation stays per-corner: each corner's worklist stops where that
/// corner's values converge.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/design.hpp"
#include "sta/constraints.hpp"
#include "sta/corner.hpp"
#include "sta/delay_calc.hpp"
#include "sta/query_ops.hpp"
#include "sta/timing_data.hpp"
#include "sta/timing_graph.hpp"
#include "sta/timing_types.hpp"

namespace mgba {

class TimingSnapshot;

class Timer {
 public:
  /// The design and the constraint object must outlive the Timer. The
  /// design may be mutated through its own interface; the caller must then
  /// notify the Timer (invalidate_instance / buffer_inserted /
  /// rebuild_graph). Starts with a single identity "default" corner.
  Timer(const Design& design, TimingConstraints constraints,
        WireModel wire = {});
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  [[nodiscard]] const TimingGraph& graph() const { return *graph_; }
  [[nodiscard]] const DelayCalculator& delay_calc() const { return delay_; }
  [[nodiscard]] const TimingConstraints& constraints() const {
    return constraints_;
  }

  // --- corner configuration -------------------------------------------------

  /// Replaces the corner set (must be non-empty). Corner 0's derates and
  /// weights are carried over and copied to every new corner as the
  /// starting point; callers refine them per corner (set_corner_derates /
  /// per-corner weights). Triggers a full re-propagation.
  void set_corners(std::vector<AnalysisCorner> corners);

  [[nodiscard]] std::size_t num_corners() const { return corners_.size(); }
  [[nodiscard]] const AnalysisCorner& corner(CornerId c) const {
    return corners_[c];
  }
  [[nodiscard]] const LibraryScaling& corner_scaling(CornerId c) const {
    return corners_[c].scaling;
  }
  /// Corner id by name, or nullopt.
  [[nodiscard]] std::optional<CornerId> find_corner(
      std::string_view name) const;

  /// Bytes held by the corner-indexed timing arena (bench_mcmm's memory
  /// column).
  [[nodiscard]] std::size_t timing_storage_bytes() const {
    return data_.bytes();
  }

  // --- configuration -------------------------------------------------------

  /// Per-instance AOCV derate factors (index = InstanceId) applied to
  /// *every* corner; missing entries default to identity. Multi-corner
  /// flows override per corner with set_corner_derates. Triggers a full
  /// re-propagation — unless \p moved names the only instances that may
  /// differ from every corner's installed vector (an instance past a
  /// vector's end counts as identity; debug builds check that no other
  /// entry differs). Then the install seeds the incremental frontier at the
  /// nodes their cell arcs drive, and leaves the delay memo alone: a derate
  /// scales a memoized base delay but does not change it. A moved instance
  /// in the clock network escalates to the full sweep.
  void set_instance_derates(
      std::vector<DeratePair> derates,
      std::optional<std::span<const InstanceId>> moved = std::nullopt);

  /// Per-instance AOCV derate factors for one corner (from that corner's
  /// derate table), with set_instance_derates' contract for \p moved at
  /// this one corner.
  void set_corner_derates(
      CornerId corner, std::vector<DeratePair> derates,
      std::optional<std::span<const InstanceId>> moved = std::nullopt);

  /// Per-instance mGBA weighting deviations x_j (index = InstanceId);
  /// effective late delay of a *data* combinational cell becomes
  /// base * derate_late * (1 + x_j). Clock cells and flip-flops are never
  /// weighted. Each corner fits and holds an independent weight vector;
  /// the CornerId-less forms address kDefaultCorner. Triggers a full
  /// re-propagation.
  void set_instance_weights(std::vector<double> weights);
  void set_instance_weights(CornerId corner, std::vector<double> weights);
  [[nodiscard]] const std::vector<double>& instance_weights(
      CornerId corner = kDefaultCorner) const {
    return weights_[corner];
  }

  /// Hold-side analogue: effective early delay of a data combinational
  /// cell becomes base * derate_early * (1 + y_j). Positive y_j raises the
  /// early arrival toward the PBA value, recovering hold pessimism.
  void set_instance_weights_early(std::vector<double> weights);
  void set_instance_weights_early(CornerId corner,
                                  std::vector<double> weights);
  [[nodiscard]] const std::vector<double>& instance_weights_early(
      CornerId corner = kDefaultCorner) const {
    return weights_early_[corner];
  }

  // --- invalidation --------------------------------------------------------

  /// Marks an instance (and the drivers of its input nets, whose loads
  /// changed) for incremental re-propagation. Use after resize_instance.
  void invalidate_instance(InstanceId inst);

  /// Rebuilds the timing graph from the (mutated) design. Use after
  /// structural edits (ECO undo, journal replay). The corner set survives.
  void rebuild_graph();

  /// Use after Design::insert_buffer_for_sink placed \p buffer, when every
  /// other edit since the last update was reported. The next
  /// update_timing() lands on exactly the state rebuild_graph() and a full
  /// update would. A buffer on a data net (driver D, buffer pins A and Y,
  /// sink S, net N) costs what it changed: the graph is patched
  /// (TimingGraph's patch constructor); the delay memo, statics and the
  /// timing arena are carried through the id maps — the ids below the
  /// moved range in place or in blocks, the tail in blocks, only the moved
  /// range id by id — A, Y and the three new arcs at the fill values; the
  /// CRPR launch sets, check records and endpoint exceptions are kept.
  /// Told resizes stay pending, and the next update runs the incremental
  /// frontier, seeded forward at D, A, Y and S and backward at D, A and Y
  /// — or the full sweep, when one was already due. Any other edit — a
  /// buffer on the clock network, say — goes through rebuild_graph().
  /// Returns the patch's id maps, or nullopt after a rebuild.
  std::optional<BufferPatch> buffer_inserted(InstanceId buffer);

  // --- ECO record (incremental mGBA refit) ---------------------------------

  /// A point in the ECO record. Every value-only ECO touch
  /// (invalidate_instance) stamps its instance with a fresh tick, and
  /// every change the record cannot describe per instance — a structural
  /// edit, a corner-set change, a derate install, a touch escalating into
  /// the clock network — stamps the poison. A consumer keeps the mark it
  /// last caught up at and reads the record against it, so consumers never
  /// share or clear each other's state; unlike the engine's dirty list,
  /// which update_timing() consumes, the record spans any number of
  /// updates. Weight installs (set_instance_weights*) are fit *outputs*,
  /// not ECOs, and stamp nothing.
  using EcoMark = std::uint64_t;
  [[nodiscard]] EcoMark eco_mark() const { return eco_clock_; }

  /// Replaces \p out with the instances touched since \p mark, in id
  /// order. O(instances).
  void eco_touched_since(EcoMark mark, std::vector<InstanceId>& out) const;

  /// True when a change the record cannot describe happened since
  /// \p mark: refitting against the touches alone is then unsound, and
  /// the consumer must rebuild cold.
  [[nodiscard]] bool eco_poisoned_since(EcoMark mark) const {
    return eco_poison_stamp_ > mark;
  }

  /// Frontier seed nodes a value-only change to \p instances would
  /// re-propagate from — the exact rule the incremental engine applies to
  /// its own dirty list: every pin node of each instance, the output node
  /// of each driver feeding it (its load changed), and the sibling sinks
  /// of those nets (their input slew may change). Appends to \p out
  /// (duplicates possible; callers dedup). The refit session grows its
  /// touched cone from these.
  void seed_nodes_for(std::span<const InstanceId> instances,
                      std::vector<NodeId>& out) const;

  /// Instances awaiting the next incremental update, in first-touch order
  /// (each once); update_timing() consumes them.
  [[nodiscard]] std::span<const InstanceId> pending_instances() const {
    return dirty_instances_;
  }
  /// Nodes the next incremental update seeds besides the pending
  /// instances' neighbourhoods — a patched buffer's and a moved-derate
  /// install's — forward and backward (duplicates possible). A full update
  /// clears them, a trial rollback restores the set it began with, and a
  /// second buffer patch maps them through its node map.
  [[nodiscard]] std::span<const NodeId> pending_forward_seeds() const {
    return seed_forward_;
  }
  [[nodiscard]] std::span<const NodeId> pending_backward_seeds() const {
    return seed_backward_;
  }

  /// Brings all timing quantities up to date (incremental when possible).
  void update_timing();

  // --- derived tables (read-only; the patch-vs-rebuild oracle tests) -------

  [[nodiscard]] const DelayCache& delay_cache() const { return delay_cache_; }
  [[nodiscard]] const GraphStatics& statics() const { return *statics_; }
  /// The CRPR launch-set table (check-major, launch_words() words per
  /// check); empty with CRPR off.
  [[nodiscard]] std::span<const std::uint64_t> launch_sets() const {
    return launch_sets_ ? std::span<const std::uint64_t>(*launch_sets_)
                        : std::span<const std::uint64_t>();
  }
  [[nodiscard]] std::size_t launch_words() const { return launch_words_; }

  // --- snapshots ------------------------------------------------------------

  /// Immutable, refcounted view of the current timing state. The fork is
  /// O(1) per arena (chunk-table refcount bumps); subsequent head writes
  /// privatize only the chunks they touch, so a live snapshot costs
  /// O(chunks diverged), never O(arena). Queries on the returned snapshot
  /// are safe from any number of threads concurrently with head mutation
  /// — but snapshot() itself is a writer-side operation (call it from the
  /// thread that mutates this Timer), and the snapshot must not outlive
  /// the Timer (it borrows the design/delay-model/constraint objects; the
  /// netlist itself is NOT versioned — see DESIGN.md §14). Call after
  /// update_timing(); a snapshot of stale state answers stale queries.
  [[nodiscard]] std::shared_ptr<const TimingSnapshot> snapshot() const;

  /// Monotonic state generation, bumped by every mutating re-propagation
  /// (full or incremental), structural rebuild, and trial rollback.
  /// Snapshots carry the version they forked at.
  [[nodiscard]] std::uint64_t state_version() const { return state_version_; }

  /// Un-released snapshots currently alive (expired handles are pruned).
  [[nodiscard]] std::size_t live_snapshots() const;

  /// Footprint of the engine's major allocations — the flat arena is what
  /// future sharding has to split, so the shell `stats` command and
  /// `mgba_timer --verbose` surface where the bytes are.
  struct MemoryStats {
    std::size_t num_nodes = 0;
    std::size_t num_arcs = 0;
    std::size_t num_corners = 0;
    std::size_t arena_bytes = 0;           ///< corner-major timing arena
    std::size_t arena_bytes_per_lane = 0;  ///< arena / (corners * modes)
    std::size_t delay_cache_entries = 0;   ///< memo slots (lanes * arcs)
    std::size_t delay_cache_bytes = 0;
    std::size_t launch_set_bytes = 0;  ///< CRPR launch bitsets (0 when off)
    /// Full-sweep state: factor lanes, gather tables, shadows, scratch.
    std::size_t kernel_scratch_bytes = 0;
    /// COW accounting (PR 7): total arena chunks at head, chunks some
    /// snapshot or open trial still shares, live snapshot count, and the
    /// bytes those snapshots retain in chunks the head has diverged from
    /// (summed per snapshot, so overlapping retention double-counts).
    std::size_t cow_chunks = 0;
    std::size_t cow_shared_chunks = 0;
    std::size_t live_snapshots = 0;
    std::size_t cow_retained_bytes = 0;
    [[nodiscard]] std::size_t total_bytes() const {
      return arena_bytes + delay_cache_bytes + launch_set_bytes +
             kernel_scratch_bytes;
    }
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] MemoryStats memory_stats() const;

  /// Disables the incremental path: every update re-propagates the whole
  /// graph. For the ablation measuring what incremental updates [18] buy
  /// the optimization loop; leave enabled in real use.
  void set_incremental_enabled(bool enabled) { incremental_enabled_ = enabled; }

  /// Number of full and incremental propagations performed (for the
  /// runtime accounting of Table 5).
  [[nodiscard]] std::size_t full_updates() const { return full_updates_; }
  [[nodiscard]] std::size_t incremental_updates() const {
    return incremental_updates_;
  }

  /// Cumulative counters of the update machinery: how often the engine
  /// re-propagated, how much of the graph each path actually touched, and
  /// how well the delay memo cache performs. Exposed by the shell `stats`
  /// command and `mgba_timer --verbose`.
  struct UpdateStats {
    std::size_t full_updates = 0;
    std::size_t incremental_updates = 0;
    /// Nodes recomputed by incremental forward frontiers (sum over
    /// corners).
    std::size_t forward_nodes = 0;
    /// Nodes (and endpoint checks) visited by bounded backward passes.
    std::size_t backward_nodes = 0;
    std::uint64_t delay_cache_hits = 0;
    std::uint64_t delay_cache_misses = 0;
    /// Trials (TrialScope: the optimizer's buffer trials) undone by
    /// checkpoint restore. A rejected resize opens no trial and is not
    /// counted.
    std::size_t trial_rollbacks = 0;

    [[nodiscard]] double delay_cache_hit_rate() const {
      const std::uint64_t total = delay_cache_hits + delay_cache_misses;
      return total == 0 ? 0.0
                        : static_cast<double>(delay_cache_hits) /
                              static_cast<double>(total);
    }
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] UpdateStats update_stats() const;

  /// RAII checkpoint for a trial transform that changes the graph (the
  /// optimizer's buffer trials). Construction forks the arena
  /// copy-on-write (O(1)) and retains the graph and every derived table a
  /// buffer patch or rebuild replaces; while a scope is open, updates
  /// privatize the chunks they write, so the checkpoint costs O(chunks
  /// touched). A rejected trial calls rollback(), which restores the exact
  /// pre-trial state and carries the delay memo back — the caller must
  /// first have restored the *design* itself (remove_buffer; the removed
  /// buffer remains as a disconnected tombstone instance). Weights and the
  /// corner set are outside the checkpoint: installing either while a
  /// scope is open fails an MGBA_CHECK. commit() (or destruction) keeps
  /// the trial state and drops the checkpoint. Scopes must not nest. A
  /// resize needs no scope: the incremental frontier is bit-exact, so a
  /// resize back, passed to invalidate_instance, lands on the pre-trial
  /// bits at the next update_timing.
  class TrialScope {
   public:
    explicit TrialScope(Timer& timer);
    ~TrialScope();
    TrialScope(const TrialScope&) = delete;
    TrialScope& operator=(const TrialScope&) = delete;

    void commit();
    void rollback();

   private:
    Timer* timer_;
    bool open_ = true;
  };

  // --- queries (valid after update_timing) ---------------------------------

  [[nodiscard]] double arrival(NodeId node, Mode mode,
                               CornerId corner = kDefaultCorner) const;
  [[nodiscard]] double slew(NodeId node, Mode mode,
                            CornerId corner = kDefaultCorner) const;
  [[nodiscard]] double required(NodeId node, Mode mode,
                                CornerId corner = kDefaultCorner) const;
  /// Endpoint slack: late = setup, early = hold.
  [[nodiscard]] double slack(NodeId node, Mode mode,
                             CornerId corner = kDefaultCorner) const;
  /// Worst (smallest) slack across all corners — the signoff view the
  /// optimizer closes against. Equals slack(node, mode) for one corner.
  [[nodiscard]] double slack_merged(NodeId node, Mode mode) const;
  /// The corner realizing slack_merged at this node.
  [[nodiscard]] CornerId worst_slack_corner(NodeId node, Mode mode) const;

  /// Effective (derated & weighted) delay of an arc in a mode.
  [[nodiscard]] double arc_delay(ArcId arc, Mode mode,
                                 CornerId corner = kDefaultCorner) const;
  /// Base NLDM/Elmore delay of an arc in a mode (before derate/weight;
  /// after the corner's library scaling).
  [[nodiscard]] double arc_delay_base(ArcId arc, Mode mode,
                                      CornerId corner = kDefaultCorner) const;

  /// Timing of check \p idx (index into graph().checks()).
  [[nodiscard]] const CheckTiming& check_timing(
      std::size_t idx, CornerId corner = kDefaultCorner) const;

  /// AOCV derate factors currently applied to an instance at a corner.
  [[nodiscard]] DeratePair instance_derate(
      InstanceId inst, CornerId corner = kDefaultCorner) const {
    return query::instance_derate(*derates_[corner], inst);
  }
  /// The installed per-instance derate vector of a corner (index =
  /// InstanceId; instances past its end are at identity).
  [[nodiscard]] const std::vector<DeratePair>& instance_derates(
      CornerId corner = kDefaultCorner) const {
    return *derates_[corner];
  }

  /// True if the arc receives an mGBA weighting factor (query::is_weighted).
  [[nodiscard]] bool is_weighted(ArcId arc) const {
    return query::is_weighted(*graph_, graph_->arc(arc));
  }

  /// Exact CRPR credit for a specific launch/capture check pair, from the
  /// shared clock-path prefix. This is what PBA uses per path. A launch
  /// from a primary input has no clock path: pass std::nullopt -> 0 credit.
  [[nodiscard]] double crpr_credit_exact(
      std::optional<std::size_t> launch_check, std::size_t capture_check,
      CornerId corner = kDefaultCorner) const {
    return query::crpr_credit_exact(data_, *graph_, *statics_,
                                    constraints_.enable_crpr, launch_check,
                                    capture_check, corner);
  }

  /// Worst negative slack over all endpoints (0 when none negative).
  [[nodiscard]] double wns(Mode mode, CornerId corner = kDefaultCorner) const;
  /// Total negative slack over all endpoints (sum of negatives, <= 0).
  [[nodiscard]] double tns(Mode mode, CornerId corner = kDefaultCorner) const;
  /// Number of endpoints with negative slack.
  [[nodiscard]] std::size_t num_violations(
      Mode mode, CornerId corner = kDefaultCorner) const;

  /// Merged worst-corner variants: per endpoint the slack is the minimum
  /// across corners, then WNS/TNS/violations aggregate those minima.
  [[nodiscard]] double wns_merged(Mode mode) const;
  [[nodiscard]] double tns_merged(Mode mode) const;
  [[nodiscard]] std::size_t num_violations_merged(Mode mode) const;

  /// Worst-slack path to \p endpoint traced back through worst fanins
  /// (node ids from launch to endpoint). Late mode only.
  [[nodiscard]] std::vector<NodeId> worst_path(
      NodeId endpoint, CornerId corner = kDefaultCorner) const;

  /// Endpoint realizing the merged worst slack (ties break toward the
  /// lowest node id, which is deterministic across thread counts), or
  /// kInvalidNode when the design has no endpoints.
  [[nodiscard]] NodeId worst_endpoint_merged(Mode mode) const;

 private:
  friend class TrialScope;
  friend class TimingSnapshot;

  int idx(Mode m) const { return static_cast<int>(m); }

  /// True when arena chunks may be shared with a snapshot or an open
  /// trial fork, i.e. the coordinating thread must privatize before
  /// parallel sweeps write. Prunes expired snapshot handles as a side
  /// effect.
  [[nodiscard]] bool cow_writes_guarded() const;
  void prune_snapshots() const;

  void allocate_storage();
  /// allocate_storage for a buffer patch that carries \p before, the
  /// pre-insertion arena: node and arc lanes move through the patch's id
  /// maps in runs of consecutive ids (whole chunks at unmoved offsets are
  /// shared, not copied, and no other chunk is allocated before it is
  /// written), the check records are shared, and only A, Y and the new
  /// arcs are filled.
  void carry_storage(TimingData before, const BufferPatch& patch);
  /// The bookkeeping of a derate install: a full update without \p moved;
  /// with it, frontier seeds at the nodes the cell arcs of \p moved drive
  /// (a full update for a clock-network instance).
  void derates_installed(std::optional<std::span<const InstanceId>> moved);
  /// Sizes the incremental-frontier scratch to the current graph/corner
  /// shape and marks the full-sweep tables stale. Called from
  /// allocate_storage, carry_storage and trial rollback, which
  /// restores a differently-shaped arena without reallocating it.
  void resize_incremental_scratch();
  /// Re-derives the full-sweep tables for the current shape; the next full
  /// update calls it when they are stale, so a buffer trial that stays on
  /// the frontier never pays for them.
  void size_sweep_tables();
  /// Re-shapes the delay memo from \p old_graph to the freshly built
  /// graph_, keeping the entries of every arc that exists in both graphs
  /// with bit-equal ArcInputs (DESIGN.md §10).
  void carry_delay_memo(const TimingGraph& old_graph);
  /// The same re-shaping for a buffer patch, in place through its arc map:
  /// keeps exactly the entries carry_delay_memo would, re-deriving
  /// ArcInputs only for D's cell arcs (net N's load moved).
  void patch_delay_memo(const BufferPatch& patch);
  void compute_instance_arcs();
  /// compute_instance_arcs for a buffer patch: the previous statics with
  /// the moved arc ids remapped and the buffer's arcs appended.
  void patch_instance_arcs(const BufferPatch& patch);
  void compute_launch_sets();
  double derate_for(const TimingArc& arc, Mode mode, CornerId corner) const;

  /// Thread-local tally of delay-cache lookups, folded into the shared
  /// atomic counters once per parallel block (add_counts).
  struct CacheTally {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// Base timing of one arc at one (corner, mode), through the memo cache.
  ArcTiming arc_timing(ArcId a, const TimingArc& arc, double input_slew,
                       CornerId corner, int mode, CacheTally& tally);

  /// Recomputes arrival + slew of one node at one corner from its fanin;
  /// returns true if any value's bits moved. Also refreshes
  /// stored arc timings of the fanin arcs at that corner, flagging arcs
  /// whose stored effective delay changed bit-wise in arc_changed_scratch_
  /// (safe in parallel sweeps: each arc's to-node has a single writer).
  bool recompute_node(NodeId node, CornerId corner, CacheTally& tally);
  /// Re-derives the required times of one non-endpoint node at one corner
  /// from its (already final) fanout; returns true if either mode's value
  /// changed bit-wise.
  bool recompute_required(NodeId node, CornerId corner);

  /// Full forward propagation: level-synchronous, each level's fanin arcs
  /// one dense run through the kernels in sta/kernels.hpp (DESIGN.md §16).
  void full_forward();
  /// One incremental round: per corner a bounded forward frontier followed
  /// by the bounded backward pass.
  void incremental_update();
  void incremental_forward_corner(CornerId corner);
  void incremental_backward_corner(CornerId corner);
  void compute_crpr_credits();
  /// The boundary condition check \p ci puts on its data pin at \p corner,
  /// for both backward sweeps: refreshes \p ct's setup and hold times from
  /// the current slews and returns the late and early required times
  /// (check_required).
  std::pair<double, double> check_boundary(std::size_t ci, CornerId corner,
                                           CheckTiming& ct) const;
  /// Full backward propagation, the level-descending mirror of
  /// full_forward (bit-identical to recompute_required per node).
  void backward_required();

  // --- full-sweep tables ----------------------------------------------------
  // Per level, the full sweeps gather the fanin inputs into dense scratch,
  // probe the delay memo in one pass, apply derate x weight with eff_cand,
  // and fold per node with recompute_node's expressions.

  /// Re-derives the per-arc gather keys that can drift without a graph
  /// rebuild: the memo cell key (resize_instance swaps an instance's cell
  /// in place) and the weighted-instance index. Runs at the top of every
  /// full forward sweep.
  void refresh_arc_statics();
  /// Rebuilds the per-(lane, arc) derate and weight factor tables when the
  /// corresponding dirty flag is set. Weight factors go through the
  /// per-instance table + gather so the cost is O(instances + arcs), not
  /// O(arcs x lookup).
  void refresh_factors();
  /// Heap bytes of the full-sweep tables (memory_stats accounting).
  [[nodiscard]] std::size_t sweep_bytes() const;

  /// Drops every delay-cache entry whose memoized timing may be stale
  /// after a value-only mutation of \p inst (its own cell arcs, the cell
  /// arcs of the drivers of its input nets, and the net arcs of those
  /// nets).
  void invalidate_cache_for(InstanceId inst);

  /// Walks the ECO neighborhood of one instance — the single code path
  /// behind frontier seeding (seed_nodes_for) and delay-cache invalidation
  /// (invalidate_cache_for), so the two can never drift apart. Callbacks:
  ///   own_pin(node)        every connected pin node of the instance;
  ///   driver(term, node)   each input net's driver terminal and node
  ///                        (instance pin or port; node may be invalid);
  ///   sibling(node)        every instance-pin sink of those input nets.
  template <typename OwnPinFn, typename DriverFn, typename SiblingFn>
  void visit_eco_neighborhood(InstanceId inst_id, OwnPinFn&& own_pin,
                              DriverFn&& driver, SiblingFn&& sibling) const {
    const Instance& inst = design_->instance(inst_id);
    const LibCell& cell = design_->library().cell(inst.cell);
    for (std::size_t p = 0; p < inst.pin_nets.size(); ++p) {
      const NetId net_id = inst.pin_nets[p];
      if (net_id == kInvalidId) continue;
      own_pin(graph_->node_of_pin(inst_id, static_cast<std::uint32_t>(p)));
      if (cell.pins[p].direction != PinDirection::Input) continue;
      const Net& net = design_->net(net_id);
      if (net.driver) {
        const NodeId drv =
            net.driver->kind == Terminal::Kind::InstancePin
                ? graph_->node_of_pin(net.driver->id, net.driver->pin)
                : graph_->node_of_port(net.driver->id);
        driver(*net.driver, drv);
      }
      for (const Terminal& sink : net.sinks) {
        if (sink.kind == Terminal::Kind::InstancePin) {
          sibling(graph_->node_of_pin(sink.id, sink.pin));
        }
      }
    }
  }

  // --- trial checkpoints ----------------------------------------------------
  void begin_trial();
  void commit_trial();
  void rollback_trial();

  const Design* design_;
  TimingConstraints constraints_;
  DelayCalculator delay_;
  /// Shared with snapshots; replaced wholesale by rebuild_graph and
  /// buffer_inserted, and cloned before the in-place pad_instances
  /// mutation when still shared.
  std::shared_ptr<TimingGraph> graph_;

  /// At least one corner at all times; corner 0 is the default view.
  std::vector<AnalysisCorner> corners_{AnalysisCorner{}};
  /// Per-corner per-instance derates (outer index = CornerId; never-null
  /// inner pointer; empty inner vector = identity everywhere). The inner
  /// vectors are immutable once published — set_* installs fresh ones —
  /// so snapshots share them by refcount. mGBA weights stay plain (the
  /// snapshot read path never consumes them; fitted effects are already
  /// baked into the arena's effective delays).
  std::vector<std::shared_ptr<const std::vector<DeratePair>>> derates_;
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<double>> weights_early_;
  // Per-port external delays resolved from the constraint overrides at
  // rebuild time (index = PortId).
  std::vector<double> port_input_delay_;
  std::vector<double> port_output_delay_;
  /// Timing exceptions resolved at rebuild time, per check (index into
  /// graph().checks()) and per output port (index = PortId). Immutable once
  /// published, so snapshots and trial checkpoints share the table by
  /// refcount. A buffer patch keeps both the check order and the port ids,
  /// so it carries over as it is.
  std::shared_ptr<const EndpointExceptions> exceptions_;

  /// Corner-major SoA arena holding every per-node/per-arc/per-check
  /// timing quantity for all corners.
  TimingData data_;

  // Per-instance cell ArcIds + FF check map, shared with snapshots.
  std::shared_ptr<GraphStatics> statics_;

  // Launch sets for GBA CRPR: for each check, the set of launch checks
  // (flip-flops) whose Q reaches its data pin, as a bitset whose extra bit
  // at index num_checks flags paths launched at input ports (which carry
  // zero credit). One check-major table of launch_words_ words per check,
  // null with CRPR off; immutable once built, so trials share it.
  // Corner-independent (clock topology does not change across corners).
  // launch_dp_ is the per-node DP that derives the table, kept between
  // rebuilds so a buffer trial neither allocates a fresh per-node table
  // nor retains the old one in its checkpoint.
  std::shared_ptr<const std::vector<std::uint64_t>> launch_sets_;
  std::size_t launch_words_ = 0;
  std::vector<std::uint64_t> launch_dp_;

  /// Live snapshot registry (weak: a released snapshot self-frees its
  /// chunks; the registry only answers "must head writes privatize?" and
  /// the retained-byte accounting). Writer-side, pruned opportunistically.
  mutable std::vector<std::weak_ptr<const TimingSnapshot>> snapshots_;
  std::uint64_t state_version_ = 0;

  /// Drops the pending incremental work: the dirty list and its dedup
  /// flags in O(listed), and the frontier seeds.
  void clear_pending();

  bool dirty_full_ = true;
  bool incremental_enabled_ = true;
  /// Instances awaiting the next incremental update, in first-touch
  /// order, with a per-instance dedup flag (set exactly for the listed
  /// instances).
  std::vector<InstanceId> dirty_instances_;
  std::vector<std::uint8_t> dirty_flag_;
  /// Frontier seeds beyond the dirty instances' neighbourhoods (see
  /// pending_forward_seeds), in the current graph's node ids.
  std::vector<NodeId> seed_forward_;
  std::vector<NodeId> seed_backward_;
  /// ECO record (see eco_mark): the tick of each instance's last touch
  /// (0 = never) and of the last poison; eco_clock_ is the latest tick.
  void poison_eco() { eco_poison_stamp_ = ++eco_clock_; }
  std::vector<EcoMark> eco_touch_stamp_;
  EcoMark eco_poison_stamp_ = 0;
  EcoMark eco_clock_ = 0;
  std::size_t full_updates_ = 0;
  std::size_t incremental_updates_ = 0;

  /// Memoized base arc timings (see DelayCache); sized lanes x arcs.
  /// A graph rebuild, a buffer patch and a trial rollback carry over
  /// the entries of unchanged arcs (carry_delay_memo, patch_delay_memo);
  /// a corner-set change clears it.
  DelayCache delay_cache_;

  // --- full-sweep state -----------------------------------------------------
  // Static gather tables, rebuilt per graph shape in size_sweep_tables;
  // arc_key_/arc_widx_ are additionally
  // refreshed per full forward sweep (refresh_arc_statics).
  std::vector<std::uint32_t> arc_from_;  ///< from-node per arc id
  std::vector<std::uint32_t> arc_key_;   ///< memo cell key per arc id
  /// Weight-table index per arc: the instance id for weighted cell arcs,
  /// else the sentinel slot num_instances (factor 1.0).
  std::vector<std::uint32_t> arc_widx_;
  std::vector<std::uint32_t> fo_to_;  ///< to-node per fanout-pool slot
  /// Effective per-(lane, arc) factors the kernels consume: fac_derate_ is
  /// derate_for(arc, mode, corner); fac_weight_ is the clamped mGBA
  /// multiplier (1.0 for unweighted arcs). Lazily refreshed via the dirty
  /// flags — set_instance_weights flips fac_weight_dirty_, the derate
  /// setters flip fac_derate_dirty_.
  std::vector<double> fac_derate_;  ///< [lane * num_arcs + arc]
  std::vector<double> fac_weight_;  ///< [lane * num_arcs + arc]
  std::vector<double> wfac_;        ///< per-instance factor + sentinel 1.0
  bool fac_derate_dirty_ = true;
  bool fac_weight_dirty_ = true;
  /// Cell keys / weight indices follow the instance->cell mapping, which
  /// only moves under invalidate_instance or a graph rebuild — skipping
  /// the per-arc rescan on clean sweeps keeps the steady-state solver
  /// loop (weights-only changes) out of this O(arcs) scalar walk.
  bool arc_statics_dirty_ = true;
  /// Flat per-node shadows of the lane being swept (arrival/slew forward,
  /// required late/early backward): workers read finalized lower levels
  /// and write their own level's nodes; the coordinator copies the lane
  /// back into the CowVec arena with one write_range at the end.
  std::vector<double> shadow_a_;
  std::vector<double> shadow_b_;
  /// Flat mirrors of one corner's late/early arc-delay lanes (backward
  /// sweep gather source).
  std::vector<double> dly_late_;
  std::vector<double> dly_early_;
  /// Per-level dense scratch, indexed (arc - level_arc_begin) forward and
  /// (pool slot - level_pool_begin) backward; sized to the widest level.
  std::vector<double> lvl_a_;
  std::vector<double> lvl_b_;
  std::vector<double> lvl_c_;
  std::vector<double> lvl_d_;
  std::vector<double> lvl_e_;
  std::vector<double> lvl_f_;
  std::vector<std::uint8_t> lvl_hit_;
  std::size_t max_level_fanin_ = 0;   ///< widest level's fanin-arc count
  std::size_t max_level_fanout_ = 0;  ///< widest level's fanout-pool span
  /// The tables above still describe an earlier graph or corner shape.
  bool sweep_tables_stale_ = true;

  // Reusable incremental-update scratch, sized to the graph in
  // allocate_storage and cleaned per corner pass by revisiting exactly the
  // touched entries — keeping each update O(touched cone), not O(graph).
  std::vector<std::vector<NodeId>> frontier_;  ///< per-level node buckets
  std::vector<bool> on_frontier_;
  std::vector<std::uint8_t> changed_scratch_;
  /// Per-arc flag set by recompute_node when the stored effective delay
  /// changed bit-wise; the frontier driver scans and clears the flags of
  /// each processed bucket's fanin arcs to seed the backward pass. All
  /// zero between sweeps (full updates clear it wholesale).
  std::vector<std::uint8_t> arc_changed_scratch_;
  std::vector<NodeId> seed_scratch_;
  /// From-nodes of arcs whose stored delay changed this corner pass — the
  /// roots of the bounded backward pass.
  std::vector<NodeId> backward_seeds_;
  std::vector<bool> backward_seeded_;
  /// Checks whose data node the forward frontier visited this corner pass.
  std::vector<std::size_t> touched_checks_;

  std::size_t stat_forward_nodes_ = 0;
  std::size_t stat_backward_nodes_ = 0;
  std::size_t stat_trial_rollbacks_ = 0;

  struct TrialState;
  std::unique_ptr<TrialState> trial_;
};

}  // namespace mgba
