#include "pagerank/incremental.hpp"

#include <algorithm>
#include <stdexcept>

namespace dprank {

namespace {
// Safety valve against non-terminating cascades. Unreachable for
// damping < 1 (increments decay geometrically), but a damping-1 graph
// with a cycle of out-degree-1 documents would otherwise loop forever.
constexpr std::uint32_t kMaxCascadeDepth = 1'000'000;
}  // namespace

template <typename Graph>
IncrementalPagerank<Graph>::IncrementalPagerank(
    const Graph& g, std::vector<double>& ranks,
    const PagerankOptions& options, const Placement* placement)
    : graph_(g), ranks_(ranks), options_(options), placement_(placement) {
  if (ranks.size() != g.num_nodes()) {
    throw std::invalid_argument("IncrementalPagerank: rank vector size");
  }
}

template <typename Graph>
void IncrementalPagerank<Graph>::begin_cascade() {
  // The graph may have grown since the last cascade: the markers grow
  // with it, and the new entries start unmarked.
  const std::size_t n = graph_.num_nodes();
  if (ranks_.size() != n) {
    throw std::invalid_argument("IncrementalPagerank: rank vector size");
  }
  covered_epoch_.resize(n, 0);
  if (++epoch_ == 0) {
    // Wrapped: clear every marker, so none can match an epoch reissued.
    std::fill(covered_epoch_.begin(), covered_epoch_.end(), 0);
    for (Pending& p : pending_) p.queued_epoch = 0;
    epoch_ = 1;
  }
  undo_log_.clear();
  last_touched_.clear();
  messages_.clear();
  fifo_.clear();
}

template <typename Graph>
template <bool kCoalesce>
void IncrementalPagerank<Graph>::enqueue(NodeId node, double delta,
                                         std::uint32_t depth) {
  if constexpr (kCoalesce) {
    Pending& p = pending_[node];
    if (p.queued_epoch == epoch_) {
      p.delta += delta;  // already queued: join its pending sum
    } else {
      p = {delta, epoch_, depth};
      fifo_.push_back(node);
    }
  } else {
    messages_.push_back({node, delta, depth});
  }
}

template <typename Graph>
template <bool kCoalesce>
PropagationStats IncrementalPagerank<Graph>::run_cascade(bool restore) {
  PropagationStats stats;
  for (std::size_t head = 0;
       head < (kCoalesce ? fifo_.size() : messages_.size()); ++head) {
    WorkItem item;
    if constexpr (kCoalesce) {
      Pending& p = pending_[fifo_[head]];
      item = {fifo_[head], p.delta, p.depth};
      p.queued_epoch = 0;  // popped: its next arrival queues it again
    } else {
      item = messages_[head];
    }
    deliver<kCoalesce>(item, stats, restore);
  }
  if (restore) {
    // Undo in reverse order; the first-touch log restores the
    // pre-cascade value of every mutated document.
    for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
      ranks_[it->first] = it->second;
    }
    last_touched_.clear();  // nothing actually changed
  }
  return stats;
}

template <typename Graph>
template <bool kCoalesce>
void IncrementalPagerank<Graph>::deliver(const WorkItem& item,
                                         PropagationStats& stats,
                                         bool restore) {
  const NodeId v = item.node;
  if (v == deleting_) return;  // the deleted document takes no feedback
  if (restore && covered_epoch_[v] != epoch_) {
    undo_log_.emplace_back(v, ranks_[v]);
  }
  if (covered_epoch_[v] != epoch_) {
    covered_epoch_[v] = epoch_;
    ++stats.nodes_covered;
    last_touched_.push_back(v);
  }
  ++stats.updates_delivered;
  stats.path_length = std::max(stats.path_length, item.depth);

  const double newrank = ranks_[v] + item.delta;
  const double rel = relative_change(ranks_[v], newrank);
  ranks_[v] = newrank;
  if (rel <= options_.epsilon) return;  // increment no longer significant
  const auto deg = graph_.out_degree(v);
  if (deg == 0 || item.depth >= kMaxCascadeDepth) return;

  const double fwd =
      options_.damping * item.delta / static_cast<double>(deg);
  const PeerId pv =
      placement_ != nullptr ? placement_->peer_of(v) : kInvalidPeer;
  for (const NodeId w : graph_.out_neighbors(v)) {
    if (placement_ != nullptr && placement_->peer_of(w) != pv) {
      ++stats.cross_peer_messages;
    }
    enqueue<kCoalesce>(w, fwd, item.depth + 1);
  }
}

template <typename Graph>
void IncrementalPagerank<Graph>::touch_seed(NodeId node) {
  if (covered_epoch_[node] != epoch_) {
    covered_epoch_[node] = epoch_;
    last_touched_.push_back(node);
  }
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::seed_and_propagate(NodeId node) {
  if (node >= graph_.num_nodes()) {
    throw std::out_of_range("seed_and_propagate: bad node");
  }
  begin_cascade();
  ranks_[node] = options_.initial_rank;
  const std::uint64_t cross = enqueue_seeds(node, options_.initial_rank);
  auto stats = run_cascade<false>(false);
  stats.cross_peer_messages += cross;
  touch_seed(node);  // the seed's own rank was rewritten above
  return stats;
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::probe_insert(NodeId node) {
  if (node >= graph_.num_nodes()) {
    throw std::out_of_range("probe_insert: bad node");
  }
  begin_cascade();
  const double old = ranks_[node];
  ranks_[node] = options_.initial_rank;
  const std::uint64_t cross = enqueue_seeds(node, options_.initial_rank);
  auto stats = run_cascade<false>(true);
  stats.cross_peer_messages += cross;
  ranks_[node] = old;
  return stats;
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::integrate_insert(
    NodeId node, std::vector<NodeId>* touched) {
  const auto collect = [&] {
    if (touched != nullptr) {
      touched->insert(touched->end(), last_touched_.begin(),
                      last_touched_.end());
    }
  };
  // §3.1: seed with the initial constant and send updates to out-links...
  PropagationStats stats = seed_and_propagate(node);
  collect();
  // ...then "the system eventually reconverges": the new document has no
  // in-links yet, so its own recompute settles at (1-d); the correction
  // relative to the seed propagates like any other update.
  const double true_rank = 1.0 - options_.damping;
  const double correction = true_rank - ranks_[node];
  ranks_[node] = true_rank;
  const auto deg = graph_.out_degree(node);
  if (deg == 0 || correction == 0.0) return stats;
  const double fwd =
      options_.damping * correction / static_cast<double>(deg);
  for (const NodeId w : graph_.out_neighbors(node)) {
    const PropagationStats more = inject(w, fwd);
    collect();
    stats.updates_delivered += more.updates_delivered;
    stats.cross_peer_messages += more.cross_peer_messages;
    stats.nodes_covered += more.nodes_covered;
    stats.path_length = std::max(stats.path_length, more.path_length + 1);
  }
  return stats;
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::propagate_delete(NodeId node) {
  if (node >= graph_.num_nodes()) {
    throw std::out_of_range("propagate_delete: bad node");
  }
  begin_cascade();
  const std::uint64_t cross = enqueue_seeds(node, -ranks_[node]);
  // The document keeps its out-links until the caller isolates it, so
  // on a link cycle the negated cascade comes back to it; delivered
  // there, its feedback would be subtracted a second time.
  deleting_ = node;
  auto stats = run_cascade<false>(false);
  deleting_ = kNoNode;
  stats.cross_peer_messages += cross;
  // The deleted document itself is touched: its rank is zeroed by the
  // caller (propagate_full_delete / delete_document), and index
  // consumers must drop their entry for it.
  touch_seed(node);
  return stats;
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::propagate_full_delete(
    MutableDigraph& g, NodeId node) {
  if (g.num_nodes() != graph_.num_nodes()) {
    throw std::invalid_argument(
        "propagate_full_delete: graph is not the one this engine walks");
  }
  if (node >= graph_.num_nodes()) {
    throw std::out_of_range("propagate_full_delete: bad node");
  }
  auto stats = propagate_delete(node);
  g.isolate_node(node);
  ranks_[node] = 0.0;
  return stats;
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::inject(NodeId node,
                                                    double delta) {
  if (node >= graph_.num_nodes()) {
    throw std::out_of_range("inject: bad node");
  }
  begin_cascade();
  enqueue<false>(node, delta, 0);
  return run_cascade<false>(false);
}

template <typename Graph>
PropagationStats IncrementalPagerank<Graph>::inject_batch(
    const std::vector<std::pair<NodeId, double>>& deltas) {
  for (const auto& [node, delta] : deltas) {
    (void)delta;
    if (node >= graph_.num_nodes()) {
      throw std::out_of_range("inject_batch: bad node");
    }
  }
  begin_cascade();
  pending_.resize(graph_.num_nodes());  // grows with the graph
  for (const auto& [node, delta] : deltas) enqueue<true>(node, delta, 0);
  return run_cascade<true>(false);
}

template <typename Graph>
std::uint64_t IncrementalPagerank<Graph>::enqueue_seeds(NodeId node,
                                                        double rank_value) {
  const auto deg = graph_.out_degree(node);
  if (deg == 0) return 0;
  // A document with rank R contributes R/outdeg on each out-link; the
  // damped effect on each target's rank is d * R / outdeg (Fig. 2 shows
  // the d = 1 case: 1/3 then 1/6).
  const double delta =
      options_.damping * rank_value / static_cast<double>(deg);
  const PeerId pn =
      placement_ != nullptr ? placement_->peer_of(node) : kInvalidPeer;
  std::uint64_t cross = 0;
  for (const NodeId w : graph_.out_neighbors(node)) {
    if (placement_ != nullptr && placement_->peer_of(w) != pn) ++cross;
    enqueue<false>(w, delta, 1);
  }
  return cross;
}

template class IncrementalPagerank<Digraph>;
template class IncrementalPagerank<MutableDigraph>;

PropagationStats insert_document(MutableDigraph& g,
                                 std::vector<double>& ranks,
                                 const std::vector<NodeId>& out_links,
                                 const PagerankOptions& options,
                                 NodeId* new_id_out) {
  const NodeId id = g.add_document(out_links);
  ranks.push_back(options.initial_rank);
  if (new_id_out != nullptr) *new_id_out = id;
  IncrementalPagerank engine(g, ranks, options);
  return engine.integrate_insert(id);
}

PropagationStats delete_document(MutableDigraph& g,
                                 std::vector<double>& ranks, NodeId node,
                                 const PagerankOptions& options) {
  IncrementalPagerank engine(g, ranks, options);
  return engine.propagate_full_delete(g, node);
}

}  // namespace dprank
