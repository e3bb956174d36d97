#include "aocv/corner_io.hpp"

#include <istream>
#include <sstream>

#include "util/check.hpp"
#include "util/input.hpp"

namespace mgba {

std::vector<CornerSetup> default_corner_setups(const DerateTable& base) {
  std::vector<CornerSetup> setups;
  setups.push_back({AnalysisCorner{}, base});
  return setups;
}

std::vector<CornerSetup> read_corners(std::istream& in,
                                      const DerateTable& base,
                                      const std::string& source) {
  std::vector<CornerSetup> setups;
  LineReader r(in, source);
  while (r.next()) {
    r.expect(r[0] == "corner", "corner spec lines start with 'corner'");
    r.expect(r.size() >= 2, "corner line missing a name");
    r.expect(r.size() % 2 == 0, "corner options come in key/value pairs");

    AnalysisCorner corner;
    corner.name = r[1];
    double margin = 1.0;
    for (std::size_t i = 2; i < r.size(); i += 2) {
      const std::string& key = r[i];
      const double value = r.number(i + 1);
      if (key == "derate_margin") {
        r.expect(value >= 0.0, "derate_margin must be >= 0");
        margin = value;
        continue;
      }
      r.expect(value > 0.0, "a corner scale factor must be > 0");
      if (key == "delay") {
        corner.scaling.delay = value;
      } else if (key == "slew") {
        corner.scaling.slew = value;
      } else if (key == "constraint") {
        corner.scaling.constraint = value;
      } else {
        r.fail("unknown corner option '" + key + "'");
      }
    }
    for (const CornerSetup& existing : setups) {
      r.expect(existing.corner.name != corner.name, "duplicate corner name");
    }
    setups.push_back({std::move(corner), base.scaled_margin(margin)});
  }
  r.expect(!setups.empty(), "corner spec declares no corners");
  return setups;
}

std::vector<CornerSetup> corners_from_string(const std::string& text,
                                             const DerateTable& base) {
  std::istringstream in(text);
  return read_corners(in, base, "<corner spec>");
}

void apply_corner_setups(Timer& timer, std::span<const CornerSetup> setups,
                         const AocvOptions& options) {
  MGBA_CHECK(!setups.empty());
  std::vector<AnalysisCorner> corners;
  corners.reserve(setups.size());
  for (const CornerSetup& s : setups) corners.push_back(s.corner);
  timer.set_corners(std::move(corners));
  install_corner_derates(timer, setups, options);
}

void install_corner_derates(Timer& timer, std::span<const CornerSetup> setups,
                            const AocvOptions& options) {
  MGBA_CHECK(setups.size() == timer.num_corners());
  const DepthAnalysis analysis(timer.graph());
  for (std::size_t c = 0; c < setups.size(); ++c) {
    timer.set_corner_derates(static_cast<CornerId>(c),
                             gba_derates(analysis, setups[c].table, options));
  }
}

}  // namespace mgba
