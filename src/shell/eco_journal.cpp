#include "shell/eco_journal.hpp"

#include <istream>
#include <ostream>

#include "util/check.hpp"
#include "util/input.hpp"
#include "util/strings.hpp"

namespace mgba::shell {

namespace {

/// %.17g: shortest form guaranteed to round-trip an IEEE double exactly.
std::string fmt_double(double v) { return str_format("%.17g", v); }

}  // namespace

bool EcoJournal::begin() {
  if (open_) return false;
  current_ = EcoTransaction{};
  open_ = true;
  return true;
}

void EcoJournal::record(EcoRecord r) {
  if (!open_) return;
  current_.records.push_back(std::move(r));
}

bool EcoJournal::end() {
  if (!open_) return false;
  committed_.push_back(std::move(current_));
  current_ = EcoTransaction{};
  open_ = false;
  return true;
}

EcoTransaction EcoJournal::pop_back() {
  MGBA_CHECK(!committed_.empty());
  EcoTransaction txn = std::move(committed_.back());
  committed_.pop_back();
  return txn;
}

void EcoJournal::write_header(std::ostream& out) {
  out << "# mgba ECO journal v1\n";
}

void EcoJournal::write_transaction(std::ostream& out,
                                   const EcoTransaction& txn) {
  out << "begin_eco\n";
  for (const EcoRecord& r : txn.records) {
    switch (r.kind) {
      case EcoRecord::Kind::Resize:
        out << "resize " << quote(r.inst) << ' ' << quote(r.old_cell) << ' '
            << quote(r.new_cell) << '\n';
        break;
      case EcoRecord::Kind::InsertBuffer:
        out << "buffer " << quote(r.net) << ' ' << quote(r.sink) << ' '
            << quote(r.new_cell) << ' ' << quote(r.inst) << ' '
            << fmt_double(r.x) << ' ' << fmt_double(r.y) << '\n';
        break;
      case EcoRecord::Kind::RemoveBuffer:
        out << "unbuffer " << quote(r.inst) << ' ' << quote(r.net) << '\n';
        break;
      case EcoRecord::Kind::Weights:
        out << "weights " << quote(r.corner) << ' '
            << (r.early ? "early" : "late") << ' ' << r.values.size();
        for (const double v : r.values) out << ' ' << fmt_double(v);
        out << '\n';
        break;
    }
  }
  out << "end_eco\n";
}

void EcoJournal::write(std::ostream& out) const {
  write_header(out);
  for (const EcoTransaction& txn : committed_) write_transaction(out, txn);
}

std::vector<EcoTransaction> EcoJournal::read(std::istream& in,
                                             const std::string& source) {
  std::vector<EcoTransaction> out;
  EcoTransaction current;
  bool open = false;
  LineReader r(in, source);
  while (r.next()) {
    const std::string& kw = r[0];
    if (kw == "begin_eco") {
      r.expect(!open, "nested begin_eco");
      r.expect(r.size() == 1, "begin_eco takes no arguments");
      current = EcoTransaction{};
      open = true;
      continue;
    }
    if (kw == "end_eco") {
      r.expect(open, "end_eco without begin_eco");
      r.expect(r.size() == 1, "end_eco takes no arguments");
      out.push_back(std::move(current));
      open = false;
      continue;
    }
    if (kw != "resize" && kw != "buffer" && kw != "unbuffer" &&
        kw != "weights") {
      r.fail("unknown record '" + kw + "'");
    }
    r.expect(open, "record outside begin_eco/end_eco");
    EcoRecord rec;
    rec.line = r.line();
    if (kw == "resize") {
      r.expect(r.size() == 4, "resize expects 3 fields");
      rec.kind = EcoRecord::Kind::Resize;
      rec.inst = r[1];
      rec.old_cell = r[2];
      rec.new_cell = r[3];
    } else if (kw == "buffer") {
      r.expect(r.size() == 7, "buffer expects 6 fields");
      rec.kind = EcoRecord::Kind::InsertBuffer;
      rec.net = r[1];
      rec.sink = r[2];
      rec.new_cell = r[3];
      rec.inst = r[4];
      rec.x = r.number(5);
      rec.y = r.number(6);
    } else if (kw == "unbuffer") {
      r.expect(r.size() == 3, "unbuffer expects 2 fields");
      rec.kind = EcoRecord::Kind::RemoveBuffer;
      rec.inst = r[1];
      rec.net = r[2];
    } else {
      r.expect(r.size() >= 4, "weights expects a corner, mode, count");
      rec.kind = EcoRecord::Kind::Weights;
      rec.corner = r[1];
      r.expect(r[2] == "early" || r[2] == "late",
               "weights mode must be 'late' or 'early'");
      rec.early = r[2] == "early";
      const std::size_t n = r.count(3);
      r.expect(n == r.size() - 4, "weights value count mismatch");
      rec.values.reserve(n);
      for (std::size_t i = 0; i < n; ++i) rec.values.push_back(r.number(4 + i));
    }
    current.records.push_back(std::move(rec));
  }
  r.expect(!open, "journal ends inside an open transaction");
  return out;
}

}  // namespace mgba::shell
