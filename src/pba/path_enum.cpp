#include "pba/path_enum.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

PathEnumerator::PathEnumerator(std::shared_ptr<const TimingSnapshot> view,
                               std::size_t k, Mode mode, CornerId corner)
    : view_(std::move(view)), k_(k), mode_(mode), corner_(corner) {
  MGBA_CHECK(k_ > 0);
  const TimingGraph& graph = view_->graph();
  const Design& design = graph.design();
  candidates_.assign(graph.num_nodes(), {});

  check_of_instance_.assign(design.num_instances(), -1);
  const auto& checks = graph.checks();
  for (std::size_t c = 0; c < checks.size(); ++c) {
    check_of_instance_[checks[c].inst] = static_cast<std::int32_t>(c);
  }

  // Launch nodes seed one candidate each: the timer's late arrival (clock
  // insertion + CK->Q for flops, the input delay for ports).
  std::vector<bool> is_launch(graph.num_nodes(), false);
  for (const NodeId launch : graph.launch_nodes()) {
    is_launch[launch] = true;
    candidates_[launch].push_back(
        {view_->arrival(launch, mode_, corner_), kInvalidArc, 0});
  }

  // K-best DP, level-synchronous over data nodes. "Best" is the
  // mode-critical direction: largest arrivals for Late, smallest for Early.
  // A node's merge reads only fanin candidates (strictly lower levels) and
  // writes only its own candidate list, so nodes within one level merge in
  // parallel. The per-node merge itself is unchanged — candidates are
  // gathered in fanin order and partial_sort is deterministic on that
  // sequence — so the enumerated path set is identical at any thread count.
  const bool late = mode_ == Mode::Late;
  const auto more_critical = [late](const Candidate& x, const Candidate& y) {
    return late ? x.arrival > y.arrival : x.arrival < y.arrival;
  };
  const auto merge_node = [&](NodeId u, std::vector<Candidate>& merged) {
    merged.clear();
    for (const ArcId a : graph.fanin(u)) {
      const TimingArc& arc = graph.arc(a);
      if (graph.node(arc.from).is_clock_network) continue;  // CK->Q handled
      const double delay = view_->arc_delay(a, mode_, corner_);
      const auto& preds = candidates_[arc.from];
      for (std::uint32_t r = 0; r < preds.size(); ++r) {
        merged.push_back({preds[r].arrival + delay, a, r});
      }
    }
    if (merged.empty()) return;
    const std::size_t keep = std::min(k_, merged.size());
    std::partial_sort(merged.begin(),
                      merged.begin() + static_cast<std::ptrdiff_t>(keep),
                      merged.end(), more_critical);
    candidates_[u].assign(merged.begin(),
                          merged.begin() + static_cast<std::ptrdiff_t>(keep));
  };
  for (std::size_t l = 0; l < graph.num_levels(); ++l) {
    const auto [u0, u1] = graph.level_range(l);
    parallel_for(u1 - u0, 16, [&](std::size_t b, std::size_t e) {
      std::vector<Candidate> merged;  // per-chunk scratch
      for (std::size_t i = b; i < e; ++i) {
        const NodeId u = static_cast<NodeId>(u0 + i);
        if (graph.node(u).is_clock_network || is_launch[u]) continue;
        merge_node(u, merged);
      }
    });
  }
}

TimingPath PathEnumerator::backtrack(NodeId endpoint, std::size_t rank) const {
  const TimingGraph& graph = view_->graph();
  TimingPath path;
  path.gba_arrival_ps = candidates_[endpoint][rank].arrival;

  NodeId node = endpoint;
  std::size_t r = rank;
  while (true) {
    path.nodes.push_back(node);
    const Candidate& cand = candidates_[node][r];
    if (cand.via_arc == kInvalidArc) break;
    path.arcs.push_back(cand.via_arc);
    const TimingArc& arc = graph.arc(cand.via_arc);
    node = arc.from;
    r = cand.via_rank;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.arcs.begin(), path.arcs.end());

  // Identify the launching flip-flop (if any) for exact CRPR.
  const TimingNode& launch = graph.node(path.nodes.front());
  if (launch.terminal.kind == Terminal::Kind::InstancePin) {
    const std::int32_t check = check_of_instance_[launch.terminal.id];
    if (check >= 0) path.launch_check = static_cast<std::size_t>(check);
  }
  return path;
}

std::vector<TimingPath> PathEnumerator::paths_to(NodeId endpoint) const {
  std::vector<TimingPath> paths;
  const auto& cands = candidates_[endpoint];
  paths.reserve(cands.size());
  for (std::size_t r = 0; r < cands.size(); ++r) {
    paths.push_back(backtrack(endpoint, r));
  }
  return paths;
}

std::vector<TimingPath> PathEnumerator::all_paths() const {
  // Backtracking is independent per endpoint; collect per-endpoint lists
  // in parallel and flatten in endpoint order so the result is identical
  // to the serial concatenation.
  const auto& endpoints = view_->graph().endpoints();
  std::vector<std::vector<TimingPath>> per_endpoint(endpoints.size());
  parallel_for(endpoints.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      per_endpoint[i] = paths_to(endpoints[i]);
    }
  });
  std::vector<TimingPath> paths;
  for (auto& endpoint_paths : per_endpoint) {
    for (auto& p : endpoint_paths) paths.push_back(std::move(p));
  }
  return paths;
}

}  // namespace mgba
