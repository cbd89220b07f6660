#pragma once

// Adjacency-list digraph supporting document insertion and deletion.
//
// The incremental pagerank protocol (§3.1, §4.7) adds and removes
// documents from a live system: "adding a node is equivalent to adding an
// extra column and row to the A matrix", a delete removes them. CSR is
// the right layout for the large static sweeps, but mutation needs
// adjacency lists; MutableDigraph provides them and converts to/from
// Digraph so the two engines can share graphs.
//
// Ascending-order invariant: every out-list and in-list is kept strictly
// ascending. add_edge inserts at lower_bound and has_edge / remove_edge
// binary-search, so the graph's state depends only on its edge set, not
// on the order the edges arrived in. Its out-lists are therefore exactly
// those of freeze(), a linear copy into CSR, and a cascade walking this
// graph in place (IncrementalPagerank over MutableDigraph) visits
// neighbours in the same order as one walking the frozen snapshot.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace dprank {

class MutableDigraph {
 public:
  MutableDigraph() = default;
  explicit MutableDigraph(const Digraph& g);
  explicit MutableDigraph(NodeId num_nodes);

  /// Append a new node with no edges; returns its id.
  NodeId add_node();

  /// Add a new node with the given out-links (a freshly inserted document
  /// "can only have outlinks. Since this is a new document, there cannot
  /// be inlinks already pointing to it", §4.7). Returns its id.
  NodeId add_document(const std::vector<NodeId>& out_links);

  /// Add edge u->v, inserted in ascending position on both sides.
  /// Returns false (no-op) for self-loops and duplicates.
  bool add_edge(NodeId u, NodeId v);

  /// Remove edge u->v if present (binary search); returns whether it
  /// existed.
  bool remove_edge(NodeId u, NodeId v);

  /// Remove all edges incident to v (both directions), modelling a
  /// document deletion: "removing a document is equivalent to deleting
  /// its row and its corresponding column from the A matrix" (§4.7).
  /// The node id remains allocated but isolated (ids stay stable, as GUIDs
  /// do in a real DHT). Returns the number of edges removed.
  ///
  /// Rank-mass note: isolating a node is only the structural half of a
  /// document delete. The rank half — propagating the negated rank along
  /// the out-links and zeroing the document's own rank — must happen in
  /// the same step or the system is left holding dangling rank that no
  /// live document backs (and, transiently, in-links still feeding mass
  /// to a tombstone). Use IncrementalPagerank::propagate_full_delete (or
  /// the delete_document convenience) rather than calling this directly
  /// from ingest paths; the global rank sum intentionally drops by
  /// ~R(v) per delete (see pagerank/incremental.hpp).
  std::uint64_t isolate_node(NodeId v);

  [[nodiscard]] bool is_isolated(NodeId v) const {
    return out_[v].empty() && in_[v].empty();
  }

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(out_.size());
  }
  [[nodiscard]] EdgeId num_edges() const { return num_edges_; }

  /// u's out-links, strictly ascending.
  [[nodiscard]] const std::vector<NodeId>& out_neighbors(NodeId u) const {
    return out_[u];
  }
  /// v's in-link sources, strictly ascending.
  [[nodiscard]] const std::vector<NodeId>& in_neighbors(NodeId v) const {
    return in_[v];
  }
  [[nodiscard]] std::uint32_t out_degree(NodeId u) const {
    return static_cast<std::uint32_t>(out_[u].size());
  }
  [[nodiscard]] std::uint32_t in_degree(NodeId v) const {
    return static_cast<std::uint32_t>(in_[v].size());
  }
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Snapshot to CSR: a linear Digraph::Builder copy of the (already
  /// sorted) out-lists, equal array for array to Digraph::from_edges of
  /// the same edge set. O(V+E).
  [[nodiscard]] Digraph freeze() const;

  /// Structural invariant walk (contracts.hpp; subsystem "graph"): every
  /// out- and in-list is strictly ascending (hence duplicate-free) with
  /// in-range ids, no out-list holds a self-loop, both degree sums equal
  /// num_edges(), and the lists are exact mirrors: each out-edge u->v is
  /// found by binary search in in_[v], which with the equal sums makes
  /// the two sides the same set. O(E log D) for maximum in-degree D.
  /// Throws contracts::ContractViolation on the first violation; no-op
  /// when contracts are compiled out. The §4.7 incremental-update tests
  /// call this after every randomized insert/delete.
  void validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates
  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  EdgeId num_edges_ = 0;
};

}  // namespace dprank
