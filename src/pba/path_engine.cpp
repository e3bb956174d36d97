#include "pba/path_engine.hpp"

#include <algorithm>
#include <utility>

#include "sta/kernels.hpp"
#include "util/check.hpp"
#include "util/float_bits.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mgba {

namespace {

/// Sentinel record for unused candidate ranks. Never read as a value
/// (cand_count_ gates every read); exists so record-level bit compares in
/// the warm sweep are well defined regardless of count history.
constexpr double kUnusedArrival = -kInfPs;

/// Warm sweeps escalate to a cold rebuild once this fraction of the nodes
/// is seeded: the dense per-level kernels beat a sparse sweep long before
/// the cone covers the graph (a full weight re-application seeds almost
/// every data arc).
constexpr std::size_t kEscalateDivisor = 4;

}  // namespace

PathEngine::PathEngine(Timer& timer, std::size_t k, Mode mode, CornerId corner)
    : timer_(&timer), k_(k), mode_(mode), corner_(corner) {
  MGBA_CHECK(k_ > 0);
}

void PathEngine::sync() {
  timer_->update_timing();
  std::shared_ptr<const TimingSnapshot> head = timer_->snapshot();
  if (view_ == nullptr) {
    ++stats_.cold_builds;
    cold_build(std::move(head));
    return;
  }
  if (head->version() == view_->version()) {
    ++stats_.noop_syncs;
    view_ = std::move(head);
    return;
  }
  // Structural drift: a rebuilt graph (the case that also stamps the
  // timer's ECO poison) renumbers nodes and arcs, so the arena and every
  // derived table are meaningless. Shape drift without a graph swap
  // cannot happen today but would corrupt the lane arithmetic; guard it
  // the same way.
  if (head->graph_ref() != view_->graph_ref() ||
      !head->data().same_shape(view_->data())) {
    ++stats_.cold_fallbacks;
    cold_build(std::move(head));
    return;
  }
  if (!collect_seeds(*head)) {
    clear_seeds();
    ++stats_.cold_builds;
    cold_build(std::move(head));
    return;
  }
  ++stats_.warm_syncs;
  // Adopt the head before sweeping: recomputed merges must read the new
  // delays and launch arrivals.
  view_ = std::move(head);
  warm_sweep();
}

void PathEngine::rebind_graph() {
  const std::shared_ptr<const TimingGraph>& gref = view_->graph_ref();
  if (graph_ref_ == gref) return;
  graph_ref_ = gref;
  const TimingGraph& graph = *graph_ref_;
  num_nodes_ = graph.num_nodes();

  const std::size_t num_arcs = graph.num_arcs();
  arc_from_.resize(num_arcs);
  for (std::size_t a = 0; a < num_arcs; ++a) {
    arc_from_[a] = graph.arc(static_cast<ArcId>(a)).from;
  }

  const Design& design = graph.design();
  check_of_instance_.assign(design.num_instances(), -1);
  const auto& checks = graph.checks();
  for (std::size_t c = 0; c < checks.size(); ++c) {
    check_of_instance_[checks[c].inst] = static_cast<std::int32_t>(c);
  }

  is_launch_.assign(num_nodes_, 0);
  for (const NodeId launch : graph.launch_nodes()) is_launch_[launch] = 1;

  pending_.assign(num_nodes_, 0);
  changed_.assign(num_nodes_, 0);
  level_dirty_.assign(graph.num_levels(), 0);
  level_pending_.assign(graph.num_levels(), {});
}

void PathEngine::cold_build(std::shared_ptr<const TimingSnapshot> head) {
  view_ = std::move(head);
  rebind_graph();
  const TimingGraph& graph = this->graph();

  arr_.assign(k_ * num_nodes_, kUnusedArrival);
  via_arc_.assign(k_ * num_nodes_, kInvalidArc);
  via_rank_.assign(k_ * num_nodes_, 0);
  cand_count_.assign(num_nodes_, 0);

  // Launch nodes seed one candidate each, exactly as the cold enumerator:
  // the timer's arrival folds clock insertion + CK->Q (flops) or the
  // input delay (ports).
  for (const NodeId launch : graph.launch_nodes()) {
    arr_[launch] = view_->arrival(launch, mode_, corner_);
    cand_count_[launch] = 1;
  }

  build_levels();
}

void PathEngine::build_levels() {
  const TimingGraph& graph = this->graph();
  const TimingData& data = view_->data();
  const std::size_t lane_base =
      TimingData::lane(corner_, static_cast<int>(mode_)) * data.num_arcs;
  // Per level: one contiguous delay-lane copy, then one gather+axpy pass
  // per rank producing every fanin candidate arrival of the level. axpy
  // with alpha = 1.0 is an exact multiply, so gath[j] is bitwise
  // arr[from] + delay — the per-node merge value merge_node computes.
  // Ranks past a fanin's cand_count read the -inf sentinel and are never
  // selected below.
  for (std::size_t l = 0; l < graph.num_levels(); ++l) {
    const auto [n0, n1] = graph.level_range(l);
    if (n0 == n1) continue;
    const auto [a0, a1] = graph.level_arc_range(l);
    const std::size_t na = a1 - a0;
    if (na > 0) {
      if (dly_.size() < na) dly_.resize(na);
      if (gath_.size() < k_ * na) gath_.resize(k_ * na);
      data.arc_delay.read_range(lane_base + a0, dly_.data(), na);
      for (std::size_t r = 0; r < k_; ++r) {
        kernels::gather(arr_.data() + r * num_nodes_, arc_from_.data() + a0,
                        gath_.data() + r * na, na);
        kernels::axpy(1.0, dly_.data(), gath_.data() + r * na, na);
      }
    }
    parallel_for(n1 - n0, 16, [&](std::size_t b, std::size_t e) {
      std::vector<Cand> merged;  // per-chunk scratch
      for (std::size_t i = b; i < e; ++i) {
        const NodeId u = static_cast<NodeId>(n0 + i);
        if (graph.node(u).is_clock_network || is_launch_[u]) continue;
        merged.clear();
        for (const ArcId a : graph.fanin(u)) {
          const NodeId from = arc_from_[a];
          if (graph.node(from).is_clock_network) continue;  // CK->Q handled
          const std::size_t j = a - a0;
          const std::uint32_t count = cand_count_[from];
          for (std::uint32_t r = 0; r < count; ++r) {
            merged.push_back({gath_[r * na + j], a, r});
          }
        }
        select_into(u, merged);
      }
    });
  }
}

void PathEngine::merge_node(NodeId u, std::vector<Cand>& merged) const {
  const TimingGraph& graph = this->graph();
  merged.clear();
  for (const ArcId a : graph.fanin(u)) {
    const NodeId from = arc_from_[a];
    if (graph.node(from).is_clock_network) continue;  // CK->Q handled
    const double delay = view_->arc_delay(a, mode_, corner_);
    const std::uint32_t count = cand_count_[from];
    for (std::uint32_t r = 0; r < count; ++r) {
      merged.push_back({arr_[r * num_nodes_ + from] + delay, a, r});
    }
  }
}

bool PathEngine::select_into(NodeId u, std::vector<Cand>& merged) {
  const std::size_t keep = std::min(k_, merged.size());
  if (keep > 0) {
    // Identical input sequence + identical comparator as the cold
    // enumerator's merge, so the (unstable) partial_sort picks the same
    // winners bit for bit.
    const bool late = mode_ == Mode::Late;
    std::partial_sort(merged.begin(),
                      merged.begin() + static_cast<std::ptrdiff_t>(keep),
                      merged.end(), [late](const Cand& x, const Cand& y) {
                        return late ? x.arrival > y.arrival
                                    : x.arrival < y.arrival;
                      });
  }
  bool changed = cand_count_[u] != keep;
  for (std::size_t r = 0; r < keep; ++r) {
    const std::size_t slot = r * num_nodes_ + u;
    const Cand& c = merged[r];
    changed = changed || float_bits(arr_[slot]) != float_bits(c.arrival) ||
              via_arc_[slot] != c.via_arc || via_rank_[slot] != c.via_rank;
    arr_[slot] = c.arrival;
    via_arc_[slot] = c.via_arc;
    via_rank_[slot] = c.via_rank;
  }
  for (std::size_t r = keep; r < k_; ++r) {
    const std::size_t slot = r * num_nodes_ + u;
    arr_[slot] = kUnusedArrival;
    via_arc_[slot] = kInvalidArc;
    via_rank_[slot] = 0;
  }
  cand_count_[u] = static_cast<std::uint32_t>(keep);
  return changed;
}

bool PathEngine::write_launch_seed(NodeId u) {
  const double arrival = view_->arrival(u, mode_, corner_);
  bool changed = cand_count_[u] != 1 ||
                 float_bits(arr_[u]) != float_bits(arrival) ||
                 via_arc_[u] != kInvalidArc || via_rank_[u] != 0;
  arr_[u] = arrival;
  via_arc_[u] = kInvalidArc;
  via_rank_[u] = 0;
  cand_count_[u] = 1;
  return changed;
}

bool PathEngine::collect_seeds(const TimingSnapshot& head) {
  const TimingGraph& graph = this->graph();
  const TimingData& now = head.data();
  const TimingData& then = view_->data();
  const std::size_t lane = TimingData::lane(corner_, static_cast<int>(mode_));

  seed_nodes_.clear();
  const auto flag = [&](NodeId n) {
    if (pending_[n]) return;
    pending_[n] = 1;
    const std::uint32_t level = graph.node(n).level;
    level_dirty_[level] = 1;
    level_pending_[level].push_back(n);
    seed_nodes_.push_back(n);
  };

  // Chunk pointers that still match are bit-identical by the COW fork
  // invariant; the value compare walks only diverged ranges, restricted
  // to this engine's (corner, mode) lane. Reads go through read_range so
  // the compare never aliases a chunk the writer is privatizing.
  const auto diff_lane = [&](const CowVec<double>& now_vec,
                             const CowVec<double>& then_vec, std::size_t lo,
                             std::size_t hi, const auto& on_changed) {
    now_vec.for_each_diverged_range(
        then_vec, [&](std::size_t b, std::size_t e) {
          b = std::max(b, lo);
          e = std::min(e, hi);
          if (b >= e) return;
          const std::size_t n = e - b;
          if (diff_now_.size() < n) {
            diff_now_.resize(n);
            diff_then_.resize(n);
          }
          now_vec.read_range(b, diff_now_.data(), n);
          then_vec.read_range(b, diff_then_.data(), n);
          for (std::size_t i = 0; i < n; ++i) {
            if (float_bits(diff_now_[i]) != float_bits(diff_then_[i])) {
              on_changed(b + i);
            }
          }
        });
  };

  // Candidates depend on exactly two value families: data-arc delays in
  // this lane (merge inputs) and launch arrivals (seeds; CK->Q and clock
  // insertion changes surface here). Everything else — required times,
  // slews, other lanes — cannot move a candidate.
  const std::size_t arc_lo = lane * now.num_arcs;
  diff_lane(now.arc_delay, then.arc_delay, arc_lo, arc_lo + now.num_arcs,
            [&](std::size_t i) {
              const ArcId a = static_cast<ArcId>(i - arc_lo);
              const NodeId to = graph.arc(a).to;
              if (!graph.node(to).is_clock_network && !is_launch_[to]) {
                flag(to);
              }
            });
  const std::size_t node_lo = lane * now.num_nodes;
  diff_lane(now.arrival, then.arrival, node_lo, node_lo + now.num_nodes,
            [&](std::size_t i) {
              const NodeId n = static_cast<NodeId>(i - node_lo);
              if (is_launch_[n]) flag(n);
            });

  return seed_nodes_.size() <= num_nodes_ / kEscalateDivisor;
}

void PathEngine::clear_seeds() {
  for (const NodeId n : seed_nodes_) {
    pending_[n] = 0;
    const std::uint32_t level = graph().node(n).level;
    level_dirty_[level] = 0;
    level_pending_[level].clear();
  }
  seed_nodes_.clear();
}

void PathEngine::warm_sweep() {
  const TimingGraph& graph = this->graph();
  const auto push = [&](NodeId n) {
    if (pending_[n]) return;
    pending_[n] = 1;
    const std::uint32_t level = graph.node(n).level;
    level_dirty_[level] = 1;
    level_pending_[level].push_back(n);
  };

  // Levels ascend, so a recomputed merge only ever reads finalized fanin
  // records; a node whose recompute lands bitwise where it was stops the
  // push (its consumers' inputs did not change).
  for (std::size_t l = 0; l < level_pending_.size(); ++l) {
    if (!level_dirty_[l]) continue;
    level_dirty_[l] = 0;
    std::vector<NodeId>& list = level_pending_[l];
    if (list.empty()) continue;
    ++stats_.levels_swept;
    stats_.nodes_recomputed += list.size();

    parallel_for(list.size(), 16, [&](std::size_t b, std::size_t e) {
      std::vector<Cand> merged;  // per-chunk scratch
      for (std::size_t i = b; i < e; ++i) {
        const NodeId u = list[i];
        bool changed;
        if (is_launch_[u]) {
          changed = write_launch_seed(u);
        } else {
          merge_node(u, merged);
          changed = select_into(u, merged);
        }
        changed_[u] = changed ? 1 : 0;
      }
    });

    for (const NodeId u : list) {
      pending_[u] = 0;
      if (!changed_[u]) continue;
      changed_[u] = 0;
      for (const ArcId a : graph.fanout(u)) {
        const NodeId to = graph.arc(a).to;
        if (!graph.node(to).is_clock_network && !is_launch_[to]) push(to);
      }
    }
    list.clear();
  }
}

TimingPath PathEngine::backtrack(NodeId endpoint, std::size_t rank) const {
  const TimingGraph& graph = this->graph();
  TimingPath path;
  path.gba_arrival_ps = arr_[rank * num_nodes_ + endpoint];

  NodeId node = endpoint;
  std::size_t r = rank;
  while (true) {
    path.nodes.push_back(node);
    const std::size_t slot = r * num_nodes_ + node;
    const ArcId via = via_arc_[slot];
    if (via == kInvalidArc) break;
    path.arcs.push_back(via);
    r = via_rank_[slot];
    node = arc_from_[via];
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.arcs.begin(), path.arcs.end());

  const TimingNode& launch = graph.node(path.nodes.front());
  if (launch.terminal.kind == Terminal::Kind::InstancePin) {
    const std::int32_t check = check_of_instance_[launch.terminal.id];
    if (check >= 0) path.launch_check = static_cast<std::size_t>(check);
  }
  return path;
}

std::vector<TimingPath> PathEngine::paths_to(NodeId endpoint) const {
  MGBA_CHECK(view_ != nullptr);  // sync() before querying
  std::vector<TimingPath> paths;
  const std::uint32_t count = cand_count_[endpoint];
  paths.reserve(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    paths.push_back(backtrack(endpoint, r));
  }
  return paths;
}

std::vector<TimingPath> PathEngine::all_paths() const {
  MGBA_CHECK(view_ != nullptr);
  const auto& endpoints = graph().endpoints();
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

std::vector<TimingPath> PathEngine::worst_paths(std::size_t n) const {
  MGBA_CHECK(view_ != nullptr);
  std::vector<TimingPath> out;
  if (n == 0) return out;
  const TimingGraph& graph = this->graph();
  const bool late = mode_ == Mode::Late;

  struct Key {
    double slack;
    NodeId endpoint;
    std::uint32_t rank;
  };
  const auto key_less = [](const Key& x, const Key& y) {
    if (x.slack != y.slack) return x.slack < y.slack;
    if (x.endpoint != y.endpoint) return x.endpoint < y.endpoint;
    return x.rank < y.rank;
  };

  // Rank 0 is the endpoint's most critical candidate, so its slack lower-
  // bounds every path at the endpoint; within an endpoint, slack ascends
  // with rank. Admit endpoints bound-ascending.
  std::vector<std::pair<double, NodeId>> order;
  for (const NodeId e : graph.endpoints()) {
    if (cand_count_[e] == 0) continue;
    const double required = view_->required(e, mode_, corner_);
    const double bound = late ? required - arr_[e] : arr_[e] - required;
    order.emplace_back(bound, e);
  }
  std::sort(order.begin(), order.end());

  // sel is a max-heap on the lexicographic (slack, endpoint, rank) key;
  // once full, sel.front() is the admission threshold. Only strictly
  // larger slacks are skipped: an equal-slack candidate can still win on
  // the tie-break, so pruning never changes the selected set (DESIGN.md
  // §17 exactness argument).
  std::vector<Key> sel;
  sel.reserve(n);
  std::size_t scanned = 0;
  for (const auto& [bound, e] : order) {
    if (pruning_enabled_ && sel.size() == n && bound > sel.front().slack) {
      stats_.endpoints_pruned += order.size() - scanned;
      break;
    }
    ++scanned;
    ++stats_.endpoints_backtracked;
    const double required = view_->required(e, mode_, corner_);
    const std::uint32_t count = cand_count_[e];
    for (std::uint32_t r = 0; r < count; ++r) {
      const double arrival = arr_[r * num_nodes_ + e];
      const double slack = late ? required - arrival : arrival - required;
      if (sel.size() < n) {
        sel.push_back({slack, e, r});
        std::push_heap(sel.begin(), sel.end(), key_less);
        continue;
      }
      if (slack > sel.front().slack) {
        if (pruning_enabled_) break;  // ranks above only ascend in slack
        continue;
      }
      const Key cand{slack, e, r};
      if (!key_less(cand, sel.front())) continue;
      std::pop_heap(sel.begin(), sel.end(), key_less);
      sel.back() = cand;
      std::push_heap(sel.begin(), sel.end(), key_less);
    }
  }

  std::sort(sel.begin(), sel.end(), key_less);
  out.reserve(sel.size());
  for (const Key& key : sel) out.push_back(backtrack(key.endpoint, key.rank));
  return out;
}

std::string PathEngine::Stats::to_string() const {
  return str_format(
      "cold=%zu fallback=%zu warm=%zu noop=%zu nodes=%zu levels=%zu "
      "backtracked=%zu pruned=%zu",
      cold_builds, cold_fallbacks, warm_syncs, noop_syncs, nodes_recomputed,
      levels_swept, endpoints_backtracked, endpoints_pruned);
}

PathEngine& PathEngineHub::engine(std::size_t k, Mode mode, CornerId corner) {
  for (const auto& e : engines_) {
    if (e->k() == k && e->mode() == mode && e->corner() == corner) return *e;
  }
  engines_.push_back(std::make_unique<PathEngine>(*timer_, k, mode, corner));
  return *engines_.back();
}

std::string PathEngineHub::to_string() const {
  std::string out;
  for (const auto& e : engines_) {
    out += str_format("path_engine k=%zu %s c%u: %s\n", e->k(),
                      e->mode() == Mode::Late ? "late" : "early",
                      static_cast<unsigned>(e->corner()),
                      e->stats().to_string().c_str());
  }
  return out;
}

}  // namespace mgba
