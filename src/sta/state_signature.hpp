#pragma once

/// \file state_signature.hpp
/// Canonical full-state signature of a timing view: every arrival / slew /
/// required at every (corner, mode, node) plus every endpoint slack, in a
/// fixed order. Two views agree on this vector iff they agree bit-for-bit
/// on the whole queryable timing state — the equality the invariance tests
/// and scaling benches all lean on.
///
/// Templated over the view so a live Timer and a frozen TimingSnapshot go
/// through the exact same read path; the snapshot-isolation tests compare
/// the two directly.

#include <cstring>
#include <vector>

#include "sta/corner.hpp"
#include "sta/timing_graph.hpp"
#include "sta/timing_types.hpp"

namespace mgba {

template <typename View>
std::vector<double> state_signature(const View& view) {
  std::vector<double> values;
  const TimingGraph& graph = view.graph();
  values.reserve(view.num_corners() * 2 *
                 (graph.num_nodes() * 3 + graph.endpoints().size()));
  for (CornerId c = 0; c < view.num_corners(); ++c) {
    for (const Mode mode : {Mode::Early, Mode::Late}) {
      for (NodeId n = 0; n < graph.num_nodes(); ++n) {
        values.push_back(view.arrival(n, mode, c));
        values.push_back(view.slew(n, mode, c));
        values.push_back(view.required(n, mode, c));
      }
      for (const NodeId e : graph.endpoints()) {
        values.push_back(view.slack(e, mode, c));
      }
    }
  }
  return values;
}

/// Bitwise equality of two double vectors (distinguishes -0.0 from +0.0
/// and never equates NaNs away): plain memcmp of the raw words.
inline bool same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace mgba
