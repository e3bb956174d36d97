#pragma once

/// \file eco_journal.hpp
/// ECO transaction journal for the timing shell (the `beginEco … endEco …
/// writeEco` workflow of production timers). A transaction brackets a run
/// of design mutations — gate resizes, targeted buffer insertions and
/// their reverts, mGBA weight installations — into an ordered list of
/// *reversible, replayable* records keyed by stable names (instance, net,
/// cell, corner), never by graph ids, so a journal written from one
/// session applies to a freshly loaded copy of the same design.
///
/// Replaying every record of a transaction, in order, onto a fresh session
/// reproduces the exact mutation sequence the live session performed —
/// including rejected buffer insertions (insert + remove pairs), which
/// must be replayed because they advance instance ids and tombstone slots
/// that later records depend on. After one full rebuild the replayed
/// session's slacks are bit-identical to the live (incrementally updated)
/// session's, which doubles as a standing end-to-end check of the
/// incremental timer against full re-propagation (DESIGN.md §9).
///
/// Text format (one record per line, written by write() / parsed by
/// read()):
///
///   # mgba ECO journal v1
///   begin_eco
///   resize <inst> <old_cell> <new_cell>
///   buffer <net> <sink> <cell> <buffer_inst> <x_um> <y_um>
///   unbuffer <buffer_inst> <net>
///   weights <corner> <late|early> <n> <v0> ... <v(n-1)>
///   end_eco
///
/// Sinks are spelled `inst/PIN` (library pin name) or a bare port name.
/// Names are written through quote() (util/input.hpp), so any name reads
/// back unchanged. Doubles are printed with %.17g so they round-trip
/// bit-exactly.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mgba::shell {

/// One reversible mutation inside a transaction.
struct EcoRecord {
  enum class Kind {
    Resize,        ///< instance swapped old_cell -> new_cell
    InsertBuffer,  ///< buffer spliced in front of one sink of a net
    RemoveBuffer,  ///< buffer disconnected, its sink returned to the net
    Weights,       ///< an mGBA weight vector installed on one corner
  };
  Kind kind = Kind::Resize;

  std::string inst;      ///< Resize: instance; *Buffer: buffer instance
  std::string old_cell;  ///< Resize only
  std::string new_cell;  ///< Resize: new cell; InsertBuffer: buffer cell
  std::string net;       ///< *Buffer: the original (driven) net
  std::string sink;      ///< InsertBuffer: sink spec ("inst/PIN" or port)
  double x = 0.0;        ///< InsertBuffer: buffer location (um)
  double y = 0.0;
  std::string corner;    ///< Weights: corner name
  bool early = false;    ///< Weights: early-mode (hold) vector
  std::vector<double> values;  ///< Weights: per-instance deviations
  std::size_t line = 0;  ///< the journal line read() found it on; 0 if live
};

/// An ordered run of records bracketed by begin_eco / end_eco.
struct EcoTransaction {
  std::vector<EcoRecord> records;
};

/// Owns the committed transactions of a session plus the one currently
/// open. Pure bookkeeping — applying and inverting records against a live
/// design/timer is the ShellSession's job (session.hpp).
class EcoJournal {
 public:
  [[nodiscard]] bool in_transaction() const { return open_; }
  [[nodiscard]] const std::vector<EcoTransaction>& transactions() const {
    return committed_;
  }

  /// Opens a transaction. Returns false (no-op) if one is already open.
  bool begin();
  /// Appends a record to the open transaction; dropped silently when no
  /// transaction is open (mutations outside begin/end are not journaled,
  /// matching the production-ECO workflow).
  void record(EcoRecord r);
  /// Number of records in the open transaction (0 when closed).
  [[nodiscard]] std::size_t open_records() const {
    return open_ ? current_.records.size() : 0;
  }
  /// Closes the open transaction and commits it. Returns false if none is
  /// open. Empty transactions are committed too (they replay as no-ops).
  bool end();
  /// Removes and returns the most recent committed transaction; the caller
  /// (ShellSession::undo_eco) applies the inverse ops. Aborts if empty.
  EcoTransaction pop_back();

  /// Serializes every committed transaction in the text format above.
  void write(std::ostream& out) const;

  /// Writes the "# mgba ECO journal v1" header line (once per file). With
  /// write_transaction this lets a server stream a session's journal to
  /// disk append-only: header at session creation, one transaction block
  /// per commit, and read() parses the accumulated file unchanged.
  static void write_header(std::ostream& out);
  /// Serializes one transaction block (begin_eco … end_eco). Byte-for-byte
  /// the block write() emits for the same transaction.
  static void write_transaction(std::ostream& out, const EcoTransaction& txn);

  /// Parses the text format; malformed input throws InputError naming
  /// "<source>:<line>".
  static std::vector<EcoTransaction> read(std::istream& in,
                                          const std::string& source);

 private:
  std::vector<EcoTransaction> committed_;
  EcoTransaction current_;
  bool open_ = false;
};

}  // namespace mgba::shell
