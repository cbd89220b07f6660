#include "graph/digraph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"

namespace dprank {

Digraph Digraph::from_edges(NodeId num_nodes, std::vector<Edge> edges,
                            CrossIndexWidth width) {
  for (const auto& [src, dst] : edges) {
    if (src >= num_nodes || dst >= num_nodes) {
      throw std::out_of_range("Digraph::from_edges: endpoint out of range");
    }
  }
  // Drop self-loops, sort by (src, dst), and deduplicate.
  std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Digraph g;
  const EdgeId m = edges.size();
  g.out_offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  g.out_targets_.resize(m);
  for (const auto& e : edges) ++g.out_offsets_[e.src + 1];
  for (NodeId u = 0; u < num_nodes; ++u) {
    g.out_offsets_[u + 1] += g.out_offsets_[u];
  }
  for (EdgeId i = 0; i < m; ++i) g.out_targets_[i] = edges[i].dst;
  g.build_from_out_csr(width);
  return g;
}

Digraph::Builder::Builder(NodeId num_nodes, EdgeId expected_edges,
                          CrossIndexWidth width)
    : num_nodes_(num_nodes), width_(width) {
  out_offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  if (expected_edges != 0) out_targets_.reserve(expected_edges);
}

void Digraph::Builder::add_node(NodeId u, std::span<const NodeId> targets) {
  if (u >= num_nodes_ || u < next_node_) {
    throw std::out_of_range(
        "Digraph::Builder::add_node: nodes must arrive in ascending order");
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] >= num_nodes_ || targets[i] == u ||
        (i != 0 && targets[i - 1] >= targets[i])) {
      throw std::invalid_argument(
          "Digraph::Builder::add_node: targets must be strictly sorted, in "
          "range and self-loop free");
    }
  }
  // Close out the offsets of every node since the last append.
  for (NodeId v = next_node_; v <= u; ++v) {
    out_offsets_[v] = out_targets_.size();
  }
  out_targets_.insert(out_targets_.end(), targets.begin(), targets.end());
  next_node_ = u + 1;
}

Digraph Digraph::Builder::finalize() && {
  for (NodeId v = next_node_; v <= num_nodes_; ++v) {
    out_offsets_[v] = out_targets_.size();
  }
  Digraph g;
  g.out_offsets_ = std::move(out_offsets_);
  g.out_targets_ = std::move(out_targets_);
  g.build_from_out_csr(width_);
  return g;
}

void Digraph::build_from_out_csr(CrossIndexWidth width) {
  const NodeId n = num_nodes();
  const EdgeId m = num_edges();
  cross_index_narrow_ =
      width == CrossIndexWidth::kAuto && narrow_cross_index_allowed(m);

  // In-CSR with the cross index, via counting sort over destinations (the
  // out-CSR is already in (src, dst) order, so edge ids ascend here).
  in_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  in_sources_.resize(m);
  in_to_out_.resize(m);
  for (const NodeId v : out_targets_) ++in_offsets_[v + 1];
  for (NodeId v = 0; v < n; ++v) in_offsets_[v + 1] += in_offsets_[v];
  if (cross_index_narrow_) {
    out_to_in32_.resize(m);
    out_to_in_.clear();
    out_to_in_.shrink_to_fit();
  } else {
    out_to_in_.resize(m);
    out_to_in32_.clear();
    out_to_in32_.shrink_to_fit();
  }
  std::vector<EdgeId> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    const EdgeId out_end = out_offsets_[u + 1];
    for (EdgeId e = out_offsets_[u]; e < out_end; ++e) {
      const NodeId v = out_targets_[e];
      const EdgeId pos = cursor[v]++;
      in_sources_[pos] = u;
      in_to_out_[pos] = e;
      if (cross_index_narrow_) {
        out_to_in32_[e] = static_cast<std::uint32_t>(pos);
      } else {
        out_to_in_[e] = pos;
      }
    }
  }
}

std::uint64_t Digraph::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(out_offsets_) + bytes(out_targets_) + bytes(in_offsets_) +
         bytes(in_sources_) + bytes(in_to_out_) + bytes(out_to_in_) +
         bytes(out_to_in32_);
}

bool Digraph::has_edge(NodeId u, NodeId v) const {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void Digraph::validate() const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "graph";
  const NodeId n = num_nodes();
  const EdgeId m = num_edges();
  DPRANK_INVARIANT(out_offsets_.size() == in_offsets_.size(), kSub,
                   "out/in offset arrays cover different node counts");
  DPRANK_INVARIANT(
      (n == 0 && out_offsets_.empty()) || out_offsets_.size() == n + 1, kSub,
      "offset array size does not match node count");
  // Compact cross-index contract: the narrow (32-bit) layout may only be
  // stored while every in-CSR position fits a 32-bit word, and exactly
  // the selected array carries the index.
  DPRANK_INVARIANT(!cross_index_narrow_ || narrow_cross_index_allowed(m),
                   kSub,
                   "32-bit cross index stored for a graph with m >= 2^32");
  DPRANK_INVARIANT(cross_index_narrow_
                       ? (out_to_in32_.size() == m && out_to_in_.empty())
                       : (out_to_in_.size() == m && out_to_in32_.empty()),
                   kSub,
                   "cross-index storage does not match the selected width");
  if (n == 0) {
    DPRANK_INVARIANT(m == 0 && in_sources_.empty() && in_to_out_.empty(),
                     kSub, "empty graph holds edges");
    return;
  }
  DPRANK_INVARIANT(out_offsets_.front() == 0 && in_offsets_.front() == 0,
                   kSub, "offset arrays do not start at 0");
  DPRANK_INVARIANT(out_offsets_.back() == m && in_offsets_.back() == m &&
                       in_sources_.size() == m && in_to_out_.size() == m,
                   kSub, "degree sums do not match the edge count");
  for (NodeId u = 0; u < n; ++u) {
    DPRANK_INVARIANT(out_offsets_[u] <= out_offsets_[u + 1], kSub,
                     "out-CSR offsets not monotone at node " +
                         std::to_string(u));
    DPRANK_INVARIANT(in_offsets_[u] <= in_offsets_[u + 1], kSub,
                     "in-CSR offsets not monotone at node " +
                         std::to_string(u));
  }
  // Out-lists: in-range targets, strictly sorted (has_edge relies on it),
  // no self-loops.
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = out_neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      DPRANK_INVARIANT(nbrs[i] < n, kSub,
                       "out-edge target out of range at node " +
                           std::to_string(u));
      DPRANK_INVARIANT(nbrs[i] != u, kSub,
                       "self-loop stored at node " + std::to_string(u));
      DPRANK_INVARIANT(i == 0 || nbrs[i - 1] < nbrs[i], kSub,
                       "out-list not strictly sorted at node " +
                           std::to_string(u));
    }
  }
  // In-CSR mirror: in_to_out_ is a permutation of [0, m); each mirrored
  // edge id must target the list's owner and originate at the recorded
  // source (the per-edge contribution cells depend on this cross index),
  // and out_to_in_edge must be its exact inverse in whichever width.
  std::vector<std::uint8_t> seen(m, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto srcs = in_neighbors(v);
    const auto slots = in_to_out_edge(v);
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      const EdgeId e = slots[i];
      DPRANK_INVARIANT(e < m, kSub,
                       "in_to_out edge id out of range at node " +
                           std::to_string(v));
      DPRANK_INVARIANT(out_to_in_edge(e) == in_offsets_[v] + i, kSub,
                       "out_to_in is not the inverse of in_to_out at edge " +
                           std::to_string(e));
      DPRANK_INVARIANT(!seen[e], kSub,
                       "edge id " + std::to_string(e) +
                           " mirrored twice in the in-CSR");
      seen[e] = 1;
      DPRANK_INVARIANT(out_targets_[e] == v, kSub,
                       "in-CSR mirror of edge " + std::to_string(e) +
                           " does not target its owner " +
                           std::to_string(v));
      const NodeId u = srcs[i];
      DPRANK_INVARIANT(u < n, kSub,
                       "in-edge source out of range at node " +
                           std::to_string(v));
      DPRANK_INVARIANT(
          out_offsets_[u] <= e && e < out_offsets_[u + 1], kSub,
          "in-CSR source " + std::to_string(u) + " does not own edge " +
              std::to_string(e));
    }
  }
}

std::vector<Edge> Digraph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const NodeId v : out_neighbors(u)) edges.push_back({u, v});
  }
  return edges;
}

}  // namespace dprank
