#include "sta/partition.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "util/check.hpp"

namespace mgba {

namespace {

/// CSR instance adjacency: driver-sink star per net. Multiplicity is kept
/// (two instances joined by several nets appear several times), so the
/// refinement pass's edge counts approximate cut-arc counts.
struct InstanceAdjacency {
  std::vector<std::uint32_t> ptr;
  std::vector<InstanceId> adj;

  explicit InstanceAdjacency(const Design& design) {
    const std::size_t n = design.num_instances();
    ptr.assign(n + 1, 0);
    const auto each_edge = [&](auto&& fn) {
      for (NetId net = 0; net < design.num_nets(); ++net) {
        const Net& nn = design.net(net);
        if (!nn.driver || nn.driver->kind != Terminal::Kind::InstancePin) {
          continue;
        }
        const InstanceId drv = nn.driver->id;
        for (const Terminal& s : nn.sinks) {
          if (s.kind != Terminal::Kind::InstancePin || s.id == drv) continue;
          fn(drv, s.id);
        }
      }
    };
    each_edge([&](InstanceId a, InstanceId b) {
      ++ptr[a + 1];
      ++ptr[b + 1];
    });
    for (std::size_t i = 1; i <= n; ++i) ptr[i] += ptr[i - 1];
    adj.resize(ptr[n]);
    std::vector<std::uint32_t> fill(ptr.begin(), ptr.end() - 1);
    each_edge([&](InstanceId a, InstanceId b) {
      adj[fill[a]++] = b;
      adj[fill[b]++] = a;
    });
  }

  [[nodiscard]] std::pair<const InstanceId*, const InstanceId*> neighbors(
      InstanceId i) const {
    return {adj.data() + ptr[i], adj.data() + ptr[i + 1]};
  }
};


}  // namespace

Partitioning::Partitioning(const TimingGraph& graph, const Design& design,
                           const PartitionOptions& options)
    : options_(options) {
  const std::size_t n = design.num_instances();
  num_parts_ = std::max<std::size_t>(1, options.num_partitions);
  num_parts_ = std::min(num_parts_, std::max<std::size_t>(1, n));
  assign_instances(graph, design);
  assign_nodes(graph, design);
  build_boundary(graph);
  build_schedule();
  build_endpoints(graph, design);

  stats_.num_partitions = num_parts_;
  stats_.num_instances = n;
  stats_.total_arcs = graph.num_arcs();
  stats_.fwd_boundary_nodes = fwd_watches_.size();
  stats_.bwd_boundary_nodes = bwd_watches_.size();
  stats_.num_sccs = scc_parts_.size();
  stats_.num_waves = waves_.size();
  std::vector<std::size_t> sizes(num_parts_, 0);
  for (const PartitionId p : part_of_instance_) ++sizes[p];
  stats_.min_instances = n == 0 ? 0 : *std::min_element(sizes.begin(), sizes.end());
  stats_.max_instances = n == 0 ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

void Partitioning::assign_instances(const TimingGraph& graph,
                                    const Design& design) {
  (void)graph;
  const std::size_t n = design.num_instances();
  const std::size_t p_count = num_parts_;
  part_of_instance_.assign(n, kInvalidPartition);
  if (n == 0) return;
  if (p_count == 1) {
    std::fill(part_of_instance_.begin(), part_of_instance_.end(), 0);
    return;
  }

  const InstanceAdjacency adjacency(design);
  const std::size_t cap = (n + p_count - 1) / p_count;
  std::vector<std::size_t> size(p_count, 0);
  std::vector<std::vector<InstanceId>> queue(p_count);
  std::vector<std::size_t> head(p_count, 0);

  // Seeds evenly spaced in instance-id order, rotated by the seed so that
  // different seeds grow genuinely different (still deterministic) regions.
  const std::size_t rotate = static_cast<std::size_t>(options_.seed % n);
  for (std::size_t k = 0; k < p_count; ++k) {
    InstanceId s = static_cast<InstanceId>((rotate + k * n / p_count) % n);
    while (part_of_instance_[s] != kInvalidPartition) {
      s = static_cast<InstanceId>((s + 1) % n);
    }
    part_of_instance_[s] = static_cast<PartitionId>(k);
    queue[k].push_back(s);
    ++size[k];
  }

  // Round-robin BFS growth: each turn, every region expands one claimed
  // instance, claiming its unclaimed neighbors (up to the balance cap).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t p = 0; p < p_count; ++p) {
      if (head[p] >= queue[p].size()) continue;
      const InstanceId u = queue[p][head[p]++];
      progress = true;
      if (size[p] >= cap) continue;
      const auto [nb, ne] = adjacency.neighbors(u);
      for (const InstanceId* it = nb; it != ne && size[p] < cap; ++it) {
        if (part_of_instance_[*it] != kInvalidPartition) continue;
        part_of_instance_[*it] = static_cast<PartitionId>(p);
        queue[p].push_back(*it);
        ++size[p];
      }
    }
  }

  // Leftovers (disconnected islands, or everything reachable was capped):
  // ascending id into the currently smallest region.
  for (InstanceId i = 0; i < n; ++i) {
    if (part_of_instance_[i] != kInvalidPartition) continue;
    std::size_t best = 0;
    for (std::size_t p = 1; p < p_count; ++p) {
      if (size[p] < size[best]) best = p;
    }
    part_of_instance_[i] = static_cast<PartitionId>(best);
    ++size[best];
  }

  // Greedy refinement: move an instance to the neighboring region it shares
  // the most adjacency edges with, under the balance cap and a floor that
  // keeps regions from draining away. Ascending-id visit order and
  // lowest-id tie-breaking keep the result deterministic.
  const std::size_t floor_size = std::max<std::size_t>(1, n / (2 * p_count));
  std::vector<std::uint32_t> count(p_count, 0);
  std::vector<PartitionId> touched;
  for (std::size_t pass = 0; pass < options_.refine_passes; ++pass) {
    for (InstanceId i = 0; i < n; ++i) {
      const PartitionId cur = part_of_instance_[i];
      if (size[cur] <= floor_size) continue;
      const auto [nb, ne] = adjacency.neighbors(i);
      touched.clear();
      for (const InstanceId* it = nb; it != ne; ++it) {
        const PartitionId q = part_of_instance_[*it];
        if (count[q] == 0) touched.push_back(q);
        ++count[q];
      }
      PartitionId best = cur;
      std::uint32_t best_count = count[cur];
      for (const PartitionId q : touched) {
        if (q == cur || size[q] + 1 > cap) continue;
        if (count[q] > best_count ||
            (count[q] == best_count && best != cur && q < best)) {
          best = q;
          best_count = count[q];
        }
      }
      if (best != cur) {
        part_of_instance_[i] = best;
        --size[cur];
        ++size[best];
      }
      for (const PartitionId q : touched) count[q] = 0;
    }
  }
}

void Partitioning::assign_nodes(const TimingGraph& graph,
                                const Design& design) {
  const std::size_t num_nodes = graph.num_nodes();
  part_of_node_.assign(num_nodes, 0);
  nodes_in_part_.assign(num_parts_, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const Terminal& t = graph.node(v).terminal;
    PartitionId p = 0;
    if (t.kind == Terminal::Kind::InstancePin) {
      p = partition_of_instance(t.id);
    } else {
      // A port rides with its net's peer instance: the driving instance for
      // output ports, the first instance sink for input ports. Ports with
      // no instance peer (degenerate nets) land in region 0.
      const NetId net = design.port(t.id).net;
      if (net != kInvalidId) {
        const Net& nn = design.net(net);
        if (nn.driver && nn.driver->kind == Terminal::Kind::InstancePin) {
          p = partition_of_instance(nn.driver->id);
        } else {
          for (const Terminal& s : nn.sinks) {
            if (s.kind == Terminal::Kind::InstancePin) {
              p = partition_of_instance(s.id);
              break;
            }
          }
        }
      }
    }
    part_of_node_[v] = p;
    ++nodes_in_part_[p];
  }

  // Per-(region, level) buckets as merged interval runs. Two passes over
  // the level buckets: count each bucket's runs, then place them — a node
  // extends its bucket's open run when its id is the run's current end.
  num_levels_ = graph.num_levels();
  const std::size_t num_buckets = num_parts_ * num_levels_;
  run_begin_.assign(num_buckets + 1, 0);
  std::vector<NodeId> open_end(num_buckets, kInvalidNode);
  for (std::size_t l = 0; l < num_levels_; ++l) {
    const auto [v0, v1] = graph.level_range(l);
    for (NodeId v = v0; v < v1; ++v) {
      const std::size_t bucket = part_of_node_[v] * num_levels_ + l;
      if (open_end[bucket] != v) ++run_begin_[bucket + 1];
      open_end[bucket] = v + 1;
    }
  }
  for (std::size_t i = 0; i < num_buckets; ++i) {
    run_begin_[i + 1] += run_begin_[i];
  }
  runs_.assign(run_begin_[num_buckets], NodeRun{});
  std::vector<std::uint32_t> fill(run_begin_.begin(),
                                  run_begin_.end() - 1);
  std::fill(open_end.begin(), open_end.end(), kInvalidNode);
  for (std::size_t l = 0; l < num_levels_; ++l) {
    const auto [v0, v1] = graph.level_range(l);
    for (NodeId v = v0; v < v1; ++v) {
      const std::size_t bucket = part_of_node_[v] * num_levels_ + l;
      if (open_end[bucket] != v) {
        runs_[fill[bucket]++] = NodeRun{v, v + 1};
      } else {
        ++runs_[fill[bucket] - 1].end;
      }
      open_end[bucket] = v + 1;
    }
  }
}

void Partitioning::build_boundary(const TimingGraph& graph) {
  // (owner, node, target) triples for both directions; sort + unique gives
  // the dedup'd watch lists grouped by owner.
  using Triple = std::tuple<PartitionId, NodeId, PartitionId>;
  std::vector<Triple> fwd;
  std::vector<Triple> bwd;
  std::vector<std::pair<PartitionId, PartitionId>> edges;
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const TimingArc& arc = graph.arc(a);
    const PartitionId pf = part_of_node_[arc.from];
    const PartitionId pt = part_of_node_[arc.to];
    if (pf == pt) continue;
    ++stats_.cut_arcs;
    fwd.emplace_back(pf, arc.from, pt);
    bwd.emplace_back(pt, arc.to, pf);
    edges.emplace_back(pf, pt);
  }
  std::sort(fwd.begin(), fwd.end());
  fwd.erase(std::unique(fwd.begin(), fwd.end()), fwd.end());
  std::sort(bwd.begin(), bwd.end());
  bwd.erase(std::unique(bwd.begin(), bwd.end()), bwd.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const auto build = [&](const std::vector<Triple>& triples,
                         std::vector<BoundaryWatch>& watches,
                         std::vector<std::uint32_t>& begin) {
    begin.assign(num_parts_ + 1, 0);
    std::size_t i = 0;
    while (i < triples.size()) {
      const auto [owner, node, first_target] = triples[i];
      BoundaryWatch w;
      w.node = node;
      w.targets_begin = static_cast<std::uint32_t>(watch_targets_.size());
      watch_targets_.push_back(first_target);
      ++i;
      while (i < triples.size() && std::get<0>(triples[i]) == owner &&
             std::get<1>(triples[i]) == node) {
        watch_targets_.push_back(std::get<2>(triples[i]));
        ++i;
      }
      w.targets_end = static_cast<std::uint32_t>(watch_targets_.size());
      watches.push_back(w);
      ++begin[owner + 1];
    }
    for (std::size_t p = 1; p <= num_parts_; ++p) begin[p] += begin[p - 1];
  };
  build(fwd, fwd_watches_, fwd_watch_begin_);
  build(bwd, bwd_watches_, bwd_watch_begin_);

  quotient_fanout_.assign(num_parts_, {});
  for (const auto& [pf, pt] : edges) quotient_fanout_[pf].push_back(pt);
}

void Partitioning::build_schedule() {
  const std::size_t p_count = num_parts_;
  scc_of_part_.assign(p_count, 0);

  // Iterative Tarjan over the region quotient graph (tiny: P nodes).
  std::vector<std::uint32_t> index(p_count, 0);
  std::vector<std::uint32_t> lowlink(p_count, 0);
  std::vector<std::uint8_t> on_stack(p_count, 0);
  std::vector<std::uint8_t> visited(p_count, 0);
  std::vector<PartitionId> stack;
  std::uint32_t next_index = 1;
  std::uint32_t num_sccs = 0;
  struct Frame {
    PartitionId p;
    std::size_t child = 0;
  };
  std::vector<Frame> frames;
  for (PartitionId root = 0; root < p_count; ++root) {
    if (visited[root]) continue;
    frames.push_back({root});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const PartitionId p = f.p;
      if (f.child == 0) {
        visited[p] = 1;
        index[p] = lowlink[p] = next_index++;
        stack.push_back(p);
        on_stack[p] = 1;
      }
      bool descended = false;
      const auto& out = quotient_fanout_[p];
      while (f.child < out.size()) {
        const PartitionId q = out[f.child++];
        if (!visited[q]) {
          frames.push_back({q});
          descended = true;
          break;
        }
        if (on_stack[q]) lowlink[p] = std::min(lowlink[p], index[q]);
      }
      if (descended) continue;
      if (index[p] == lowlink[p]) {
        PartitionId q;
        do {
          q = stack.back();
          stack.pop_back();
          on_stack[q] = 0;
          scc_of_part_[q] = num_sccs;
        } while (q != p);
        ++num_sccs;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const PartitionId parent = frames.back().p;
        lowlink[parent] = std::min(lowlink[parent], lowlink[p]);
      }
    }
  }

  scc_parts_.assign(num_sccs, {});
  for (PartitionId p = 0; p < p_count; ++p) {
    scc_parts_[scc_of_part_[p]].push_back(p);
  }

  // SCC DAG depth by relaxation (the SCC count is tiny, so the quadratic
  // worst case is irrelevant); waves group SCCs of equal depth.
  std::vector<std::size_t> depth(num_sccs, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (PartitionId p = 0; p < p_count; ++p) {
      for (const PartitionId q : quotient_fanout_[p]) {
        const std::uint32_t sa = scc_of_part_[p];
        const std::uint32_t sb = scc_of_part_[q];
        if (sa != sb && depth[sb] < depth[sa] + 1) {
          depth[sb] = depth[sa] + 1;
          changed = true;
        }
      }
    }
  }
  const std::size_t max_depth =
      num_sccs == 0 ? 0 : *std::max_element(depth.begin(), depth.end()) + 1;
  waves_.assign(max_depth, {});
  for (std::uint32_t s = 0; s < num_sccs; ++s) waves_[depth[s]].push_back(s);
  depth_of_part_.assign(p_count, 0);
  for (PartitionId p = 0; p < p_count; ++p) {
    depth_of_part_[p] = depth[scc_of_part_[p]];
  }
}

void Partitioning::build_endpoints(const TimingGraph& graph,
                                   const Design& design) {
  checks_of_part_.assign(num_parts_, {});
  for (std::size_t ci = 0; ci < graph.checks().size(); ++ci) {
    const PartitionId p = part_of_node_[graph.checks()[ci].data_node];
    checks_of_part_[p].push_back(static_cast<std::uint32_t>(ci));
  }
  out_ports_of_part_.assign(num_parts_, {});
  for (PortId pi = 0; pi < design.num_ports(); ++pi) {
    if (design.port(pi).direction != PortDirection::Output) continue;
    const NodeId v = graph.node_of_port(pi);
    if (v == kInvalidNode) continue;
    out_ports_of_part_[part_of_node_[v]].emplace_back(pi, v);
  }
}

std::size_t Partitioning::storage_bytes() const {
  std::size_t b = 0;
  b += part_of_instance_.capacity() * sizeof(PartitionId);
  b += part_of_node_.capacity() * sizeof(PartitionId);
  b += nodes_in_part_.capacity() * sizeof(std::size_t);
  b += runs_.capacity() * sizeof(NodeRun);
  b += run_begin_.capacity() * sizeof(std::uint32_t);
  b += fwd_watches_.capacity() * sizeof(BoundaryWatch);
  b += bwd_watches_.capacity() * sizeof(BoundaryWatch);
  b += watch_targets_.capacity() * sizeof(PartitionId);
  for (const auto& v : quotient_fanout_) b += v.capacity() * sizeof(PartitionId);
  for (const auto& v : scc_parts_) b += v.capacity() * sizeof(PartitionId);
  for (const auto& v : waves_) b += v.capacity() * sizeof(std::uint32_t);
  for (const auto& v : checks_of_part_) {
    b += v.capacity() * sizeof(std::uint32_t);
  }
  for (const auto& v : out_ports_of_part_) {
    b += v.capacity() * sizeof(std::pair<PortId, NodeId>);
  }
  b += depth_of_part_.capacity() * sizeof(std::size_t);
  b += scc_of_part_.capacity() * sizeof(std::uint32_t);
  return b;
}

std::string PartitionStats::to_string() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "partitions         : %zu (instances %zu, min %zu, max %zu)\n"
      "cut arcs           : %zu of %zu\n"
      "boundary nodes     : %zu forward, %zu backward\n"
      "schedule           : %zu sccs in %zu waves\n",
      num_partitions, num_instances, min_instances, max_instances, cut_arcs,
      total_arcs, fwd_boundary_nodes, bwd_boundary_nodes, num_sccs, num_waves);
  return buf;
}

}  // namespace mgba
