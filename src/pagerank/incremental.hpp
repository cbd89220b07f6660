#pragma once

// Incremental pagerank updates on document insert/delete (§3.1, §4.7,
// Fig. 2).
//
// After initial convergence, a new document is "immediately integrated":
// its rank is seeded with the initial constant (1.0) and each out-link
// receives an increment rank/outdeg. A receiving document adds the
// increment to its rank and, if the change is still significant relative
// to its rank (> epsilon), forwards d * increment / outdeg to its own
// out-links — the geometric decay pictured in Figure 2 (G sends 1/3, H
// forwards 1/6). A deletion sends the document's rank negated (§3.1,
// §4.7) and the system reconverges.
//
// Table 4 measures, per insert, the longest propagation path and the set
// of documents reached ("node coverage ... an upper bound on the number
// of messages a document insert can generate").
//
// Mass conservation under deletion: the unnormalized Eq. 1 form carries
// rank mass ~N across the system. A full delete (propagate_full_delete /
// delete_document) removes document v's mass R(v) deliberately: each
// out-link loses d * R(v)/outdeg(v) (the negated §3.1 update), the
// (1-d) base share and the epsilon-truncated cascade tail simply leave
// the system with the document, and the in-link sources' out-degrees are
// NOT re-normalized (a second-order effect the paper's protocol does not
// model — their remaining targets keep the slightly-stale per-link
// share until those sources next recompute). The global rank sum
// therefore drops by approximately R(v) per delete; stream consumers
// that audit mass must treat deletes as accounted withdrawals, not
// leaks. What a full delete guarantees is the absence of *dangling*
// rank: the deleted document's own rank is zeroed in the same call that
// isolates it, so no query can serve a rank for a document that no
// longer exists.
//
// One cascade loop, two delivery modes. The paper's protocol is per
// message: every forward is queued and applied on its own, so a document
// reached by k paths applies and forwards k times (Figure 2, Table 4,
// P2PSystem writes, deletes and probes). inject_batch, the stream's
// batch entry point, coalesces instead, as D-Iteration (arXiv:1501.06350)
// diffuses one pending "fluid" per node: a forward adds to the target's
// pending delta and queues the target only on its first arrival, and a
// pop applies the summed delta and forwards it once. Both modes pop in
// FIFO order and differ only at the enqueue.
//
// One cascade, two graph types: IncrementalPagerank<Graph> walks either a
// CSR Digraph (the Table 4 sweeps, `dprank_cli insert`) or the live
// MutableDigraph a write has just mutated (the stream coordinator,
// P2PSystem, insert_document / delete_document), so a write pays for the
// documents its cascade reaches, not for a CSR rebuild of the whole
// graph. MutableDigraph keeps its adjacency lists ascending, so both
// walks visit the same neighbours in the same order and agree bit for
// bit with a cascade over the live graph's freeze(). The engine reads its
// graph and rank vector through references and grows its bookkeeping to
// the node count at the start of every cascade, so one engine serves a
// live graph across its mutations (P2PSystem and the stream coordinator
// each keep one) as long as the rank vector keeps the graph's size; a
// cascade throws std::invalid_argument otherwise.

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/mutable_digraph.hpp"
#include "p2p/placement.hpp"
#include "pagerank/options.hpp"

namespace dprank {

struct PropagationStats {
  std::uint64_t updates_delivered = 0;   // total update messages
  std::uint64_t cross_peer_messages = 0; // subset crossing peers (needs placement)
  std::uint64_t nodes_covered = 0;       // distinct documents updated
  std::uint32_t path_length = 0;         // longest chain of forwards
};

/// Increment propagator over a converged rank vector, walking `Graph`
/// (Digraph or MutableDigraph; see the header comment). `probe` mode
/// restores ranks afterwards so thousands of independent inserts can be
/// measured cheaply.
template <typename Graph>
class IncrementalPagerank {
 public:
  /// `placement` may be nullptr; cross_peer_messages is then zero and all
  /// updates count as deliveries only.
  IncrementalPagerank(const Graph& g, std::vector<double>& ranks,
                      const PagerankOptions& options,
                      const Placement* placement = nullptr);
  IncrementalPagerank(Graph&&, std::vector<double>&, const PagerankOptions&,
                      const Placement* = nullptr) = delete;

  /// Paper's Table 4 experiment: re-seed an existing document with the
  /// initial rank and propagate increments from it. Mutates ranks.
  PropagationStats seed_and_propagate(NodeId node);

  /// Same, but restores all touched ranks before returning (measurement
  /// probe; the rank vector is unchanged afterwards).
  PropagationStats probe_insert(NodeId node);

  /// §3.1 insert of `node`, a document just added with out-links only:
  /// seed_and_propagate, then settle it at its no-in-link fixed point
  /// (1-d) and propagate that correction like any other update. Returns
  /// the summed stats (nodes_covered is an upper bound: it may recount).
  /// `touched`, when given, receives every cascade's last_touched().
  PropagationStats integrate_insert(NodeId node,
                                    std::vector<NodeId>* touched = nullptr);

  /// Document deletion (§3.1): propagate the node's rank negated to its
  /// out-links. Does not modify the graph; pair with
  /// MutableDigraph::isolate_node for a full delete. On a link cycle the
  /// cascade reaches the node again; those deliveries are dropped, so
  /// its feedback is subtracted once. Mutates ranks.
  PropagationStats propagate_delete(NodeId node);

  /// Raw increment injection: deliver `delta` to `node` at depth 0 and
  /// run the cascade. Mutates ranks.
  PropagationStats inject(NodeId node, double delta);

  /// Batched injection, the streaming-ingest entry point: deliver every
  /// (node, delta) seed at depth 0 in ONE coalesced diffusion (see the
  /// header comment). Every delta bound for a node, seed or forward,
  /// joins the node's pending sum until the node is popped; the pop
  /// applies the sum and forwards it when the relative change exceeds
  /// epsilon. Seeds queue in first-arrival order. The significance test
  /// sees sums rather than single messages, so the result differs from
  /// per-message injection by the epsilon truncation, and
  /// updates_delivered counts coalesced deliveries. Mutates ranks.
  PropagationStats inject_batch(
      const std::vector<std::pair<NodeId, double>>& deltas);

  /// Full document deletion paired with the mutable graph: propagate the
  /// negated rank over this engine's (pre-delete) graph, then isolate
  /// `node` in `g` and zero its rank — one call, so a stream delete can
  /// never leave a dangling rank between the cascade and the isolation.
  /// `g` must be the live graph this engine walks, or the graph its CSR
  /// was frozen from (same node count and adjacency for `node`). See the
  /// header comment for the mass-conservation consequence: the system's
  /// rank sum drops by ~R(node) by design.
  PropagationStats propagate_full_delete(MutableDigraph& g, NodeId node);

  /// Distinct documents whose rank the most recent cascade changed
  /// (valid until the next cascade; empty after probe_insert, which
  /// restores every touched rank). Populated by every mutating entry
  /// point: seed_and_propagate and propagate_delete include the seeded/
  /// deleted document itself (its rank was rewritten even though the
  /// cascade stats do not count it), inject and inject_batch include the
  /// injection points. Consumers use this to refresh dependent state,
  /// e.g. index entries (§2.4.2) or a live top-k cache. May therefore
  /// hold one more entry than PropagationStats::nodes_covered.
  [[nodiscard]] const std::vector<NodeId>& last_touched() const {
    return last_touched_;
  }

  /// After a cascade, add `node` to last_touched() unless the cascade
  /// already did: for a document whose rank the caller rewrote outside
  /// it (a seed's re-seeding, a deletion's zeroing, a stream batch's
  /// inserts). Keeps last_touched() free of duplicates.
  void touch_seed(NodeId node);

 private:
  // One queued message of the per-message protocol.
  struct WorkItem {
    NodeId node;
    double delta;
    std::uint32_t depth;
  };
  // A node's record in a coalesced cascade: the delta summed since it
  // was queued, the epoch it was queued in (equal to epoch_ while it
  // waits in fifo_) and the depth of the arrival that queued it.
  struct Pending {
    double delta = 0.0;
    std::uint32_t queued_epoch = 0;
    std::uint32_t depth = 0;
  };
  static_assert(sizeof(Pending) == 16, "one 16-byte record per node");

  /// Start a cascade: markers sized to the graph, new epoch, empty
  /// queues, empty touched list.
  void begin_cascade();
  /// Send `delta` to `node`: a new message, or (kCoalesce) an addition
  /// to the node's pending sum that queues the node on first arrival.
  template <bool kCoalesce>
  void enqueue(NodeId node, double delta, std::uint32_t depth);
  /// Pop and deliver until the queue is empty.
  template <bool kCoalesce>
  PropagationStats run_cascade(bool restore);
  template <bool kCoalesce>
  void deliver(const WorkItem& item, PropagationStats& stats, bool restore);
  /// Queue the per-message deltas from `node` to its out-links at depth
  /// 1, as if the node's rank just became `rank_value`. Returns the
  /// number of cross-peer seed messages (zero without a placement).
  std::uint64_t enqueue_seeds(NodeId node, double rank_value);

  const Graph& graph_;
  std::vector<double>& ranks_;
  PagerankOptions options_;
  const Placement* placement_;

  // probe bookkeeping: first-touch undo log + covered markers (sized by
  // begin_cascade; a marker equal to epoch_ is current)
  std::vector<std::pair<NodeId, double>> undo_log_;
  std::vector<std::uint32_t> covered_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> last_touched_;
  // The queue: whole messages, or node ids whose sums wait in pending_
  // (sized by each coalesced cascade, reset by epoch).
  std::vector<WorkItem> messages_;
  std::vector<NodeId> fifo_;
  std::vector<Pending> pending_;
  // The document whose delete cascade is running: deliveries to it are
  // dropped (kNoNode outside propagate_delete).
  static constexpr NodeId kNoNode = ~NodeId{0};
  NodeId deleting_ = kNoNode;
};

extern template class IncrementalPagerank<Digraph>;
extern template class IncrementalPagerank<MutableDigraph>;

/// Full document insertion against a mutable graph: adds the node with
/// its out-links, seeds it, and returns the propagation stats of the
/// cascade over the live graph. Convenience used by examples/tests; the
/// Table 4 bench uses IncrementalPagerank directly.
PropagationStats insert_document(MutableDigraph& g,
                                 std::vector<double>& ranks,
                                 const std::vector<NodeId>& out_links,
                                 const PagerankOptions& options,
                                 NodeId* new_id_out = nullptr);

/// Full document deletion: propagates the negated rank over the live
/// graph, then isolates the node in it and zeroes its rank.
PropagationStats delete_document(MutableDigraph& g,
                                 std::vector<double>& ranks, NodeId node,
                                 const PagerankOptions& options);

}  // namespace dprank
