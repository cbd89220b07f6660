#pragma once

// Compressed sparse row (CSR) directed graph.
//
// Documents in the P2P system are nodes; hyperlink-style references are
// directed edges (§2.1). The pagerank engines need, per document:
//   * its out-links (to address update messages),
//   * its in-links (to recompute its rank from stored contributions),
//   * a mapping from each in-link back to the sender's out-edge slot,
//     so a "pagerank update message" for edge u->v is modelled as a write
//     to one contribution cell owned by the edge (see
//     pagerank/distributed_engine.hpp).
//
// Both adjacency directions are stored in CSR form; `in_to_out_edge()`
// provides the cross index. Node ids are 32-bit (the paper's largest graph
// is 5 million nodes), edge ids 64-bit.
//
// The edge count is capped at 2^32 - 1 (kMaxEdges): the inverse cross
// index `out_to_in32_` is stored as 32-bit words, and the distributed
// engine's cells and out-links are 32-bit indices too. Construction
// refuses a larger graph.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dprank {

using NodeId = std::uint32_t;
using EdgeId = std::uint64_t;

struct Edge {
  NodeId src;
  NodeId dst;
  friend constexpr bool operator==(const Edge&, const Edge&) = default;
};

class Digraph {
 public:
  /// The largest edge count a graph may hold: every in-CSR position must
  /// fit the 32-bit cross index.
  static constexpr EdgeId kMaxEdges = (EdgeId{1} << 32) - 1;

  /// The refusal rule from_edges and Builder::finalize apply.
  [[nodiscard]] static constexpr bool edge_count_allowed(EdgeId m) {
    return m <= kMaxEdges;
  }

  Digraph() = default;

  /// Build from an edge list. Self-loops and duplicate edges are dropped
  /// (hyperlink multiplicity does not change the random-surfer model the
  /// paper uses). Edge endpoints must be < num_nodes (std::out_of_range),
  /// and more than kMaxEdges edges left after the drop are refused
  /// (std::length_error).
  static Digraph from_edges(NodeId num_nodes, std::vector<Edge> edges);

  /// Streaming CSR construction: callers append each node's out-links in
  /// ascending node order and finalize() derives the in-CSR and cross
  /// indexes in place. Peak memory is the finished CSR itself — no
  /// intermediate edge list (generate_web_graph's peak used to be the
  /// full std::vector<Edge> *plus* the CSR).
  class Builder {
   public:
    /// `expected_edges` is a reservation hint only (0 = none).
    explicit Builder(NodeId num_nodes, EdgeId expected_edges = 0);

    /// Append node `u`'s out-links. Nodes must arrive in strictly
    /// ascending order (gaps are fine — skipped nodes have no
    /// out-links); `targets` must be strictly sorted, in range and
    /// self-loop free, exactly what from_edges' sort+dedup produces.
    void add_node(NodeId u, std::span<const NodeId> targets);

    /// Derive the in-CSR and cross indexes. More than kMaxEdges
    /// appended edges are refused (std::length_error). The builder is
    /// consumed.
    [[nodiscard]] Digraph finalize() &&;

   private:
    // Raw out-CSR under construction (a Digraph member would need the
    // enclosing class complete); finalize() moves these into the graph.
    std::vector<EdgeId> out_offsets_;
    std::vector<NodeId> out_targets_;
    NodeId num_nodes_ = 0;
    NodeId next_node_ = 0;
  };

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(out_offsets_.empty() ? 0
                                                    : out_offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const { return out_targets_.size(); }

  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }
  [[nodiscard]] std::span<const NodeId> in_neighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  [[nodiscard]] std::uint32_t out_degree(NodeId u) const {
    return static_cast<std::uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  [[nodiscard]] std::uint32_t in_degree(NodeId v) const {
    return static_cast<std::uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Out-edge ids for node u occupy [out_edge_begin(u), out_edge_end(u));
  /// edge id e corresponds to target out_target(e).
  [[nodiscard]] EdgeId out_edge_begin(NodeId u) const {
    return out_offsets_[u];
  }
  [[nodiscard]] EdgeId out_edge_end(NodeId u) const {
    return out_offsets_[u + 1];
  }
  [[nodiscard]] NodeId out_target(EdgeId e) const { return out_targets_[e]; }

  /// For position p in [in_offsets_[v], in_offsets_[v+1]) of v's in-list,
  /// the out-edge id at the sender that feeds it. Aligned with
  /// in_neighbors(v): in_neighbors(v)[i] sent the contribution stored at
  /// out-edge in_to_out_edge(v)[i].
  [[nodiscard]] std::span<const EdgeId> in_to_out_edge(NodeId v) const {
    return {in_to_out_.data() + in_offsets_[v],
            in_to_out_.data() + in_offsets_[v + 1]};
  }

  /// In-CSR positions for node v occupy [in_edge_begin(v), in_edge_end(v));
  /// position in_edge_begin(v) + i belongs to in_neighbors(v)[i]. State
  /// stored per in-position (the engine's contribution cells) is
  /// contiguous per destination, so a recompute streams its cells instead
  /// of gathering them through the cross index.
  [[nodiscard]] EdgeId in_edge_begin(NodeId v) const { return in_offsets_[v]; }
  [[nodiscard]] EdgeId in_edge_end(NodeId v) const {
    return in_offsets_[v + 1];
  }

  /// Raw in-CSR offset array (num_nodes + 1 entries): offsets[v] ..
  /// offsets[v+1] bound v's cell range. The fold kernel's gather probe
  /// (common/simd.hpp) indexes this directly per lane.
  [[nodiscard]] const EdgeId* in_offsets_data() const {
    return in_offsets_.data();
  }

  /// Inverse of the in_to_out_edge cross index: the in-CSR position that
  /// mirrors out-edge id e. in_to_out_edge(v)[i] == e implies
  /// out_to_in_edge(e) == in_edge_begin(v) + i.
  [[nodiscard]] EdgeId out_to_in_edge(EdgeId e) const {
    return out_to_in32_[e];
  }

  /// Heap bytes held by the CSR arrays (capacity, not size — what the
  /// allocator actually handed over). Feeds mem.graph_bytes telemetry
  /// and the bytes-per-edge scale diagnostics.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// True if u has an edge to v (binary search over sorted out-list).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// All edges, in out-CSR order (edge id order).
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// Structural invariant walk (contracts.hpp; subsystem "graph"): both
  /// CSR offset arrays are monotone and cover [0, num_edges]; every
  /// endpoint id is in range; out-lists are strictly sorted (has_edge
  /// binary-searches them); degree sums on both sides equal the edge
  /// count; and the in-CSR is an exact mirror of the out-CSR — the
  /// in_to_out_ cross index is a permutation of the edge ids with
  /// matching source and target on both sides. O(E log N). Throws
  /// contracts::ContractViolation on the first violation; no-op when
  /// contracts are compiled out.
  void validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates

  /// Build everything derived from the finished out-CSR: in-CSR and
  /// both cross indexes. Refuses more than kMaxEdges edges.
  void build_from_out_csr();

  // Out-CSR: out_offsets_[u]..out_offsets_[u+1] indexes out_targets_.
  std::vector<EdgeId> out_offsets_;
  std::vector<NodeId> out_targets_;
  // In-CSR: in_offsets_[v]..in_offsets_[v+1] indexes in_sources_ and
  // in_to_out_ in lockstep.
  std::vector<EdgeId> in_offsets_;
  std::vector<NodeId> in_sources_;
  std::vector<EdgeId> in_to_out_;
  // Inverse permutation of in_to_out_, indexed by out-edge id.
  std::vector<std::uint32_t> out_to_in32_;
};

}  // namespace dprank
