#include "aocv/corner_io.hpp"

#include <cstdlib>
#include <istream>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace mgba {

std::vector<CornerSetup> default_corner_setups(const DerateTable& base) {
  std::vector<CornerSetup> setups;
  setups.push_back({AnalysisCorner{}, base});
  return setups;
}

std::vector<CornerSetup> read_corners(std::istream& in,
                                      const DerateTable& base) {
  std::vector<CornerSetup> setups;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view text = trim(line);
    if (text.empty() || text.front() == '#') continue;
    const auto tokens = split(text);
    MGBA_CHECK(tokens[0] == "corner" && "corner spec lines start with 'corner'");
    MGBA_CHECK(tokens.size() >= 2 && "corner line missing a name");

    AnalysisCorner corner;
    corner.name = std::string(tokens[1]);
    double margin = 1.0;
    MGBA_CHECK(tokens.size() % 2 == 0 && "corner options come in key/value pairs");
    for (std::size_t i = 2; i < tokens.size(); i += 2) {
      const std::string_view key = tokens[i];
      const std::string value_str(tokens[i + 1]);
      char* end = nullptr;
      const double value = std::strtod(value_str.c_str(), &end);
      MGBA_CHECK(end != value_str.c_str() && *end == '\0' &&
                 "corner option value is not a number");
      if (key == "delay") {
        corner.scaling.delay = value;
      } else if (key == "slew") {
        corner.scaling.slew = value;
      } else if (key == "constraint") {
        corner.scaling.constraint = value;
      } else if (key == "derate_margin") {
        margin = value;
      } else {
        MGBA_CHECK(false && "unknown corner option");
      }
    }
    for (const CornerSetup& existing : setups) {
      MGBA_CHECK(existing.corner.name != corner.name &&
                 "duplicate corner name");
    }
    setups.push_back({std::move(corner), base.scaled_margin(margin)});
  }
  MGBA_CHECK(!setups.empty() && "corner spec declares no corners");
  return setups;
}

std::vector<CornerSetup> corners_from_string(const std::string& text,
                                             const DerateTable& base) {
  std::istringstream in(text);
  return read_corners(in, base);
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
