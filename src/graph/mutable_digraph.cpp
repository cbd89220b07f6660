#include "graph/mutable_digraph.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/contracts.hpp"

namespace dprank {

// A CSR's out-lists are strictly sorted and its counting-sort in-lists
// list sources in ascending order, so the copies start in invariant order.
MutableDigraph::MutableDigraph(const Digraph& g)
    : out_(g.num_nodes()), in_(g.num_nodes()), num_edges_(g.num_edges()) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.out_neighbors(u);
    out_[u].assign(nbrs.begin(), nbrs.end());
    const auto srcs = g.in_neighbors(u);
    in_[u].assign(srcs.begin(), srcs.end());
  }
}

MutableDigraph::MutableDigraph(NodeId num_nodes)
    : out_(num_nodes), in_(num_nodes) {}

NodeId MutableDigraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

NodeId MutableDigraph::add_document(const std::vector<NodeId>& out_links) {
  const NodeId id = add_node();
  for (const NodeId v : out_links) add_edge(id, v);
  return id;
}

bool MutableDigraph::has_edge(NodeId u, NodeId v) const {
  const auto& nbrs = out_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool MutableDigraph::add_edge(NodeId u, NodeId v) {
  if (u == v) return false;
  auto& nbrs = out_[u];
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it != nbrs.end() && *it == v) return false;
  nbrs.insert(it, v);
  auto& srcs = in_[v];
  srcs.insert(std::lower_bound(srcs.begin(), srcs.end(), u), u);
  ++num_edges_;
  return true;
}

bool MutableDigraph::remove_edge(NodeId u, NodeId v) {
  auto& nbrs = out_[u];
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return false;
  nbrs.erase(it);
  auto& srcs = in_[v];
  srcs.erase(std::lower_bound(srcs.begin(), srcs.end(), u));
  --num_edges_;
  return true;
}

std::uint64_t MutableDigraph::isolate_node(NodeId v) {
  // Drop v from each neighbour's mirror list, then clear v's own lists.
  const auto unlink = [v](std::vector<NodeId>& list) {
    list.erase(std::lower_bound(list.begin(), list.end(), v));
  };
  for (const NodeId w : out_[v]) unlink(in_[w]);
  for (const NodeId u : in_[v]) unlink(out_[u]);
  const std::uint64_t removed = out_[v].size() + in_[v].size();
  out_[v].clear();
  in_[v].clear();
  num_edges_ -= removed;
  return removed;
}

void MutableDigraph::validate() const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "graph";
  const NodeId n = num_nodes();
  DPRANK_INVARIANT(in_.size() == out_.size(), kSub,
                   "out/in adjacency cover different node counts");
  // Every list strictly ascending (so duplicate-free) and in range, and
  // no out-list holds its own node.
  EdgeId out_sum = 0;
  EdgeId in_sum = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<NodeId>& outs = out_[u];
    for (std::size_t i = 0; i < outs.size(); ++i) {
      DPRANK_INVARIANT(outs[i] < n, kSub,
                       "out-neighbor out of range at node " +
                           std::to_string(u));
      DPRANK_INVARIANT(outs[i] != u, kSub,
                       "self-loop stored at node " + std::to_string(u));
      DPRANK_INVARIANT(i == 0 || outs[i - 1] < outs[i], kSub,
                       "out-list not strictly ascending at node " +
                           std::to_string(u));
    }
    const std::vector<NodeId>& ins = in_[u];
    for (std::size_t i = 0; i < ins.size(); ++i) {
      DPRANK_INVARIANT(ins[i] < n, kSub,
                       "in-neighbor out of range at node " +
                           std::to_string(u));
      DPRANK_INVARIANT(i == 0 || ins[i - 1] < ins[i], kSub,
                       "in-list not strictly ascending at node " +
                           std::to_string(u));
    }
    out_sum += outs.size();
    in_sum += ins.size();
  }
  DPRANK_INVARIANT(out_sum == num_edges_, kSub,
                   "out-degree sum does not match the edge count");
  DPRANK_INVARIANT(in_sum == num_edges_, kSub,
                   "in-degree sum does not match the edge count");
  // Mirror: every out-edge u->v is found in in_[v]. Both sides are sets
  // of num_edges_ entries, so this injection is the exact bijection.
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : out_[u]) {
      DPRANK_INVARIANT(std::binary_search(in_[v].begin(), in_[v].end(), u),
                       kSub,
                       "in-adjacency is not an exact mirror of the "
                       "out-adjacency at edge " + std::to_string(u) + "->" +
                           std::to_string(v));
    }
  }
}

Digraph MutableDigraph::freeze() const {
  // The out-lists are already the strictly ascending runs the builder
  // wants, so this is a linear copy.
  Digraph::Builder builder(num_nodes(), num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) builder.add_node(u, out_[u]);
  return std::move(builder).finalize();
}

}  // namespace dprank
