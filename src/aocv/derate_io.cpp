#include "aocv/derate_io.hpp"

#include <istream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/input.hpp"

namespace mgba {

void write_derate_table(const DerateTable& table, std::ostream& out) {
  out << std::setprecision(12);
  const auto depths = table.depth_axis();
  const auto distances = table.distance_axis();

  const auto write_block = [&](bool early) {
    out << "depth";
    for (const double d : depths) out << ' ' << d;
    out << '\n';
    for (const double dist : distances) {
      out << dist;
      for (const double depth : depths) {
        out << ' ' << (early ? table.early(depth, dist)
                             : table.late(depth, dist));
      }
      out << '\n';
    }
  };
  out << "# AOCV derate table (late block, then early block)\n";
  write_block(/*early=*/false);
  out << "early\n";
  write_block(/*early=*/true);
}

std::string derate_table_to_string(const DerateTable& table) {
  std::ostringstream out;
  write_derate_table(table, out);
  return out.str();
}

DerateTable read_derate_table(std::istream& in, const std::string& source) {
  std::vector<double> depths;
  std::vector<double> distances;
  std::vector<double> late, early;
  bool in_early = false;
  bool seen_depth_header = false;

  LineReader r(in, source);
  while (r.next()) {
    if (r[0] == "early") {
      r.expect(seen_depth_header, "early block before any late block");
      in_early = true;
      continue;
    }
    if (r[0] == "depth") {
      if (!seen_depth_header) {
        for (std::size_t i = 1; i < r.size(); ++i) {
          depths.push_back(r.number(i));
        }
        seen_depth_header = true;
      } else {
        // The early block repeats the header; verify it matches.
        r.expect(r.size() == depths.size() + 1,
                 "the early block's depth header differs");
      }
      continue;
    }
    r.expect(seen_depth_header, "row before depth header");
    r.expect(r.size() == depths.size() + 1,
             "a row needs a distance and one factor per depth");
    // A distance is a plain number (um) or carries a "um" or "nm" suffix.
    std::string distance = r[0];
    double scale = 1.0;
    if (distance.size() > 2 && distance.ends_with("nm")) {
      scale = 1e-3;
      distance.resize(distance.size() - 2);
    } else if (distance.size() > 2 && distance.ends_with("um")) {
      distance.resize(distance.size() - 2);
    }
    const auto dist = parse_number(distance);
    if (!dist) r.fail("'" + r[0] + "' is not a distance");
    if (!in_early) distances.push_back(*dist * scale);
    auto& values = in_early ? early : late;
    for (std::size_t i = 1; i < r.size(); ++i) values.push_back(r.number(i));
  }
  const std::string err =
      DerateTable::table_error(depths, distances, late, early);
  r.expect(err.empty(), err);
  return DerateTable(std::move(depths), std::move(distances), std::move(late),
                     std::move(early));
}

DerateTable derate_table_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_derate_table(in, "<derate table>");
}

}  // namespace mgba
