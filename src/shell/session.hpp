#pragma once

/// \file session.hpp
/// The live state behind one timing-shell session: library, design, derate
/// table, constraints, corner set, Timer, and the ECO journal. Commands in
/// the interpreter are thin wrappers over the methods here, which do the
/// name resolution, validation, journaling, and timer notification.
///
/// Every mutating method keeps three things consistent:
///   1. the Design (the mutation itself),
///   2. the Timer (invalidate_instance for value-only edits, rebuild_graph
///      plus derate refresh for structural ones),
///   3. the EcoJournal (a reversible record when a transaction is open).
///
/// The session also implements opt::TransformListener, so a TimingCloser
/// run (`optimize`) streams its resizes / buffer inserts / reverts into
/// the same journal as hand-issued `size_cell` / `insert_buffer`
/// commands.
///
/// Error handling: user input (names, files, journals) must never abort
/// the process, so every fallible method returns an error string — empty
/// means success — which the interpreter prints. MGBA_CHECK stays reserved
/// for internal invariants.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aocv/corner_io.hpp"
#include "aocv/derate_table.hpp"
#include "liberty/library.hpp"
#include "mgba/framework.hpp"
#include "netlist/design.hpp"
#include "opt/optimizer.hpp"
#include "pba/path_engine.hpp"
#include "shell/eco_journal.hpp"
#include "sta/snapshot.hpp"
#include "sta/timer.hpp"

namespace mgba::shell {

/// How `read_netlist` (and every mgba_timer subcommand) obtains its design:
/// a netlist/Verilog file, a fixed benchmark design (D1..D10), or a custom
/// generator configuration, plus its constraints.
struct LoadRequest {
  std::string netlist_path;  ///< file path; empty when generating
  int design = 0;            ///< benchmark design 1..10 when > 0
  std::size_t gates = 0;     ///< custom generator when > 0
  std::size_t flops = 0;     ///< custom generator flop count (0 = default)
  std::uint64_t seed = 1;
  std::size_t depth = 0;     ///< custom generator depth (0 = default)

  /// SDC read before the overrides below; empty = none.
  std::string sdc_path;
  /// Clock period: fixed when period_ps is set, else the SDC's
  /// create_clock period when the SDC sets one, otherwise derived from the
  /// golden critical path at the given utilization (choose_clock_period).
  std::optional<double> period_ps;
  double utilization = 1.0;
  /// Overrides the SDC's set_clock_uncertainty when set (default 0).
  std::optional<double> uncertainty_ps;
  /// Overrides the SDC's clock port; empty = the SDC's, else "CLK" /
  /// the generated name.
  std::string clock_port;
};

class ShellSession : public TransformListener {
 public:
  ShellSession();
  ~ShellSession() override = default;

  [[nodiscard]] bool loaded() const { return timer_ != nullptr; }
  [[nodiscard]] Timer& timer() { return *timer_; }
  [[nodiscard]] const Timer& timer() const { return *timer_; }
  [[nodiscard]] const Design& design() const { return *design_; }
  [[nodiscard]] const Library& library() const { return library_; }
  [[nodiscard]] const DerateTable& table() const { return table_; }
  [[nodiscard]] const std::vector<CornerSetup>& setups() const {
    return setups_;
  }
  [[nodiscard]] bool multi_corner() const { return setups_.size() > 1; }
  [[nodiscard]] const EcoJournal& journal() const { return journal_; }
  [[nodiscard]] double clock_period_ps() const {
    return constraints_.clock_period_ps;
  }

  /// The timing version query commands read. While an ECO transaction is
  /// open this is the snapshot begin_eco pinned — reports describe one
  /// consistent pre-ECO state while the edits mutate the head — otherwise
  /// a fresh snapshot of the current head (bit-identical to live reads).
  [[nodiscard]] std::shared_ptr<const TimingSnapshot> timing_view() const;

  /// The session's persistent path-engine registry: `fit` and
  /// `report_paths` enumerate through it, so repeated queries after small
  /// ECOs are served warm. Created lazily; nullptr when no design is
  /// loaded; reset whenever the Timer is torn down.
  [[nodiscard]] PathEngineHub* path_hub();

  // --- pinned snapshots (`snapshot` / `release` commands) ------------------

  /// Pins the current timing state as a frozen snapshot; returns its id.
  std::size_t take_snapshot();
  /// Releases a pinned snapshot, dropping its retained COW chunks.
  std::string release_snapshot(std::size_t id);
  [[nodiscard]] std::size_t num_pinned_snapshots() const {
    return pinned_snapshots_.size();
  }

  // --- loading (all return "" on success, else a one-line error) -----------

  /// Replaces the cell library; resets any loaded design (it references
  /// the old library).
  std::string load_library(const std::string& path);
  /// Replaces the base AOCV table. Only valid before read_corners; with a
  /// design loaded, refreshes the (single-corner) derates in place.
  std::string load_derates(const std::string& path);
  /// Loads or generates a design and builds a fresh single-corner Timer.
  /// Discards any previous design, journal, and corners; a request it
  /// rejects (an unopenable netlist or SDC, utilization <= 0) leaves them
  /// as they were.
  std::string load(const LoadRequest& request);
  /// Installs an MCMM corner set from a corner spec file.
  std::string load_corners(const std::string& path);

  // --- transforms ----------------------------------------------------------

  /// Swaps \p inst_name to \p cell_name (same footprint family).
  std::string size_cell(const std::string& inst_name,
                        const std::string& cell_name);
  /// Splices a buffer in front of one sink of a net at the wire midpoint.
  /// \p sink_spec is "inst/PIN" or a port name; \p cell_name empty picks
  /// the library's strongest buffer. On success \p buffer_name receives
  /// the created instance's name.
  std::string insert_buffer(const std::string& net_name,
                            const std::string& sink_spec,
                            const std::string& cell_name,
                            std::string& buffer_name);
  /// Runs a TimingCloser flow with this session's corners and journal
  /// attached. \p options.buffer_name_prefix/start are overridden to keep
  /// buffer names unique across invocations.
  std::string optimize(OptimizerOptions options, OptimizerReport& report);
  /// Runs an mGBA fit at the default corner, or one fit per corner.
  std::string fit(MgbaFlowOptions options, bool all_corners,
                  std::vector<MgbaFlowResult>& results);

  // --- ECO transactions ----------------------------------------------------

  std::string begin_eco();
  /// Commits the open transaction; \p num_records receives its size
  /// (including the weight records appended when a fit ran inside it).
  std::string end_eco(std::size_t& num_records);
  /// Rolls back the most recent committed transaction: inverse resizes in
  /// reverse order, removal of surviving buffers, restoration of the
  /// weight vectors snapshotted at begin_eco. Disconnected tombstone
  /// instances remain (ids are stable) but carry no timing or area, so
  /// slacks return bit-identically to their pre-transaction values.
  std::string undo_eco();
  std::string write_eco(const std::string& path);
  /// Applies every transaction of a journal file to this session (normally
  /// a freshly loaded one) and commits them to the session journal.
  /// Replaying onto the same starting design reproduces the writing
  /// session's slacks bit-identically at every corner.
  std::string replay_eco(const std::string& path, std::size_t& transactions,
                         std::size_t& records);

  // --- TransformListener (TimingCloser streaming into the journal) ---------

  void on_resize(InstanceId inst, std::size_t old_cell,
                 std::size_t new_cell) override;
  void on_buffer_inserted(InstanceId buffer, NetId net, const Terminal& sink,
                          std::size_t cell, Point location) override;
  void on_buffer_removed(InstanceId buffer, NetId net) override;

  /// Journal spelling of a sink terminal ("inst/PIN" or port name).
  [[nodiscard]] std::string sink_spec(const Terminal& t) const;

 private:
  struct WeightSnapshot {
    std::vector<std::vector<double>> late;   ///< per corner
    std::vector<std::vector<double>> early;  ///< per corner
  };

  [[nodiscard]] WeightSnapshot snapshot_weights() const;
  void restore_weights(const WeightSnapshot& snapshot);
  /// Resolves "inst/PIN" or a port name to a sink terminal of \p net.
  std::string resolve_sink(NetId net, const std::string& spec,
                           Terminal& out) const;
  /// Applies one journal record to the design/timer state; fills the
  /// batched-notification flags instead of updating the timer itself.
  std::string apply_record(const EcoRecord& r, bool& structural,
                           std::vector<InstanceId>& resized);

  Library library_;
  DerateTable table_;
  TimingConstraints constraints_;
  std::unique_ptr<Design> design_;
  std::unique_ptr<Timer> timer_;
  /// Declared after timer_ (and torn down before it in the loading
  /// methods): engines pin snapshots of the timer they track.
  std::unique_ptr<PathEngineHub> path_hub_;
  std::vector<CornerSetup> setups_;

  EcoJournal journal_;
  /// Weight vectors as of each committed transaction's begin_eco (parallel
  /// to journal_.transactions()), plus the open transaction's snapshot.
  /// In-memory only — undo state does not travel through journal files.
  std::vector<WeightSnapshot> committed_snapshots_;
  WeightSnapshot open_snapshot_;

  /// Frozen pre-ECO timing version while a transaction is open; queries
  /// read it so an in-flight ECO never shows them a torn state.
  std::shared_ptr<const TimingSnapshot> eco_view_;
  /// User-pinned snapshots, in pin order. Cleared (with eco_view_) before
  /// the Timer they reference is torn down — a snapshot must never outlive
  /// its Timer.
  std::vector<std::pair<std::size_t, std::shared_ptr<const TimingSnapshot>>>
      pinned_snapshots_;
  std::size_t next_snapshot_id_ = 1;

  /// Buffers named so far ("optbuf_<k>"), shared between insert_buffer and
  /// optimize invocations so names never collide.
  std::size_t buffers_named_ = 0;
};

}  // namespace mgba::shell
