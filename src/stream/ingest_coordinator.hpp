#pragma once

// Batched streaming ingest over the incremental pagerank engine
// (ROADMAP item 1; §3.1/§4.7 run continuously).
//
// The coordinator owns the live graph + rank vector and applies stream
// events in three tiers of increasing cost:
//
//  1. STRUCTURE, per event: every mutation is applied to the
//     MutableDigraph in stream order, so the graph's evolution is
//     identical no matter how events are batched (this is what makes
//     per-event and batched ingest comparable, and what lets remove-edge
//     ordinals resolve deterministically: `ordinal % outdeg` indexes the
//     source's strictly ascending out-list, so the edge removed depends
//     only on the edge set).
//  2. RANK, per batch (the coalescing path): instead of cascading once
//     per event, the batch is folded into one emission diff. For every
//     document whose out-links or rank-at-the-source changed, the batch
//     records a first-touch snapshot (pre-batch out-list + rank); after
//     all mutations, each such source contributes
//       -d * rank_old / outdeg_old   to every old out-neighbor, and
//       +d * rank_new / outdeg_new   to every current out-neighbor.
//     The per-target deltas are injected as a single
//     IncrementalPagerank::inject_batch cascade, a coalesced diffusion:
//     each document keeps one pending delta, so a document hit by
//     several events or reached by several paths applies and forwards
//     the sum once per pop. The cascade walks the live
//     MutableDigraph in place: no CSR is rebuilt per batch. Its lists
//     are kept ascending, so the walk is bit-identical to one over
//     freeze(). One engine serves every batch: it grows its markers
//     and pending records with the graph instead of zero-filling them
//     per batch. Deltas aimed at deleted documents
//     are dropped (their mass leaves with the document; see
//     pagerank/incremental.hpp). Inserted documents enter at their
//     no-in-link fixed point (1-d);
//     deletes zero the victim's rank in the same batch that isolates it,
//     so a served rank can never be dangling.
//  3. RECONVERGENCE, every reconverge_every_events offered events: the
//     pending batch is flushed and a full distributed run —
//     run_chaos_campaign over a freeze() of the current graph,
//     churn/crash faults and the mass audit active — replaces the
//     incrementally maintained ranks with the engine's converged
//     solution. The campaign is warm-started from the previous mark's
//     raw campaign output (the constructor's ranks at the first mark;
//     ids inserted since start at initial_rank), not from the served
//     vector: the served ranks depend on the batch size, the previous
//     mark's output does not. The audit's mass_ratio at each such
//     quiescence point is recorded with the mark's wall time and the
//     campaign's passes, recomputes and messages (reconverge_history(),
//     mass_ratios()); the stream bench gates on every ratio being 1.0.
//     Reconvergence fires at fixed OFFERED-event marks, not applied
//     marks, so runs with different batch sizes reconverge on identical
//     graphs from identical start vectors and adopt identical ranks —
//     the property that makes the staleness-vs-batch-size comparison
//     well posed.
//
// Determinism: the coordinator's state after N offered events is a pure
// function of (initial graph, initial ranks, config, event sequence).
// Wall-clock reads exist only to feed the stream.batch_apply_us and
// stream.reconverge_us telemetry; no control flow depends on them.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/campaign.hpp"
#include "graph/mutable_digraph.hpp"
#include "obs/metrics.hpp"
#include "pagerank/incremental.hpp"
#include "pagerank/options.hpp"
#include "stream/stream_source.hpp"

namespace dprank {

/// Called with a document id whose out-links (or presence) are about to
/// change, BEFORE the mutation lands. Inserts report the new id right
/// after allocation (empty adjacency); deletes report the victim and
/// every in-neighbor whose out-list loses the edge.
using StreamSourceHook = std::function<void(NodeId)>;

/// Apply one event's structural mutation to (g, deleted) with the
/// coordinator's exact semantics — shared with the staleness oracle so
/// the oracle's replay of pending events cannot drift from ingest.
/// Returns false when the event is a no-op (duplicate edge, empty
/// out-list, tombstoned operand); no hook fires for no-ops. Throws
/// std::invalid_argument when an insert's predicted id does not match
/// the next node id (the graph did not start from the stream's
/// initial_docs).
bool apply_structural_event(MutableDigraph& g,
                            std::vector<std::uint8_t>& deleted,
                            const StreamEvent& ev,
                            const StreamSourceHook& touch = {});

struct IngestConfig {
  /// Events per rank batch; 1 = per-event cascades through the same
  /// code path (the equivalence tests compare the two).
  std::uint32_t batch_size = 16;
  /// Full distributed reconvergence every this many OFFERED events
  /// (0 = never). Forces a flush first.
  std::uint64_t reconverge_every_events = 0;
  /// Salts the per-cycle reconvergence campaign seeds.
  std::uint64_t seed = 42;
  /// Contract sweep (validate()) every this many applied batches when
  /// invariants are compiled in; 0 = only at reconvergence. The sweep
  /// walks the MutableDigraph's adjacency mirror — O(V + E log D) — so
  /// per-batch sweeping is for tests, not production ingest.
  std::uint32_t sweep_every_batches = 32;
  PagerankOptions options{};
  /// Template for the reconvergence campaigns; options and seed are
  /// overwritten per cycle.
  ChaosCampaignConfig reconverge{};
};

struct IngestBatchStats {
  std::uint64_t events = 0;        // events in the applied batch
  PropagationStats cascade{};
  double apply_us = 0.0;
};

/// One reconvergence mark: the audit's verdict, the campaign's work and
/// the mark's wall time.
struct ReconvergeStats {
  std::uint64_t events_offered = 0;  // the mark
  double mass_ratio = 1.0;
  std::uint64_t passes = 0;
  std::uint64_t docs_recomputed = 0;
  std::uint64_t messages = 0;
  double wall_us = 0.0;
};

class IngestCoordinator {
 public:
  /// `ranks` must be converged for `graph` (callers typically run the
  /// distributed engine or the centralized solver first) and sized to
  /// graph.num_nodes(). Throws std::invalid_argument on size mismatch
  /// or zero batch_size.
  IngestCoordinator(MutableDigraph graph, std::vector<double> ranks,
                    IngestConfig config,
                    obs::MetricsRegistry* metrics = nullptr);
  // The engine holds references to this coordinator's graph and ranks.
  IngestCoordinator(const IngestCoordinator&) = delete;
  IngestCoordinator& operator=(const IngestCoordinator&) = delete;

  /// Enqueue one event; flushes when the batch fills and reconverges at
  /// the configured offered-event marks.
  void offer(const StreamEvent& ev);

  /// Apply the pending batch now (no-op when empty). Returns the batch
  /// stats (all-zero when empty).
  IngestBatchStats flush();

  /// Flush, then replace the rank vector with a full distributed
  /// reconvergence of the current graph (churn + mass audit active).
  void reconverge();

  [[nodiscard]] const MutableDigraph& graph() const { return graph_; }
  [[nodiscard]] const std::vector<double>& ranks() const { return ranks_; }
  /// Tombstone flags, indexed by node id.
  [[nodiscard]] const std::vector<std::uint8_t>& deleted() const {
    return deleted_;
  }
  [[nodiscard]] bool is_deleted(NodeId v) const {
    return v < deleted_.size() && deleted_[v] != 0;
  }
  /// Bumped once per applied batch and once per reconvergence; query
  /// caches key on it.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::uint64_t events_offered() const {
    return events_offered_;
  }
  [[nodiscard]] std::uint64_t events_applied() const {
    return events_applied_;
  }
  [[nodiscard]] const std::vector<StreamEvent>& pending() const {
    return pending_;
  }
  /// Documents whose rank the last batch changed, each once and not
  /// sorted: the cascade's documents in delivery order, then the batch's
  /// inserted and deleted documents the cascade did not reach. Empty
  /// right after reconvergence, which replaces the whole vector —
  /// consumers must full-refresh.
  [[nodiscard]] const std::vector<NodeId>& last_batch_touched() const {
    return last_batch_touched_;
  }
  /// mass_ratio observed at every reconvergence quiescence point.
  [[nodiscard]] std::vector<double> mass_ratios() const;
  [[nodiscard]] std::uint64_t reconverge_cycles() const {
    return reconverge_cycles_;
  }
  /// One entry per reconvergence, in mark order.
  [[nodiscard]] const std::vector<ReconvergeStats>& reconverge_history()
      const {
    return reconverge_history_;
  }
  [[nodiscard]] const PagerankOptions& options() const {
    return config_.options;
  }
  /// FNV-1a digest of the current rank vector (determinism checks).
  [[nodiscard]] std::uint64_t digest() const;

  /// Contract sweep: cascades into graph_.validate() and checks the
  /// coordinator's own parallel-array invariants (rank/tombstone sizes,
  /// tombstoned documents isolated with zero rank). No-op unless
  /// contracts are compiled in. Runs automatically every
  /// sweep_every_batches applied batches and at every reconvergence;
  /// throws ContractViolation (subsystem "stream") on corruption.
  void validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates

  struct SourceSnapshot {
    NodeId node = 0;
    double rank = 0.0;
    std::vector<NodeId> outs;
  };

  /// First-touch snapshot of `u` for the current batch (grows the rank /
  /// tombstone / marker arrays when `u` was just allocated).
  void snapshot_source(NodeId u, std::vector<SourceSnapshot>& snaps);

  MutableDigraph graph_;
  std::vector<double> ranks_;
  std::vector<std::uint8_t> deleted_;
  IngestConfig config_;
  obs::MetricsRegistry* metrics_;

  std::vector<StreamEvent> pending_;
  std::uint64_t events_offered_ = 0;
  std::uint64_t events_applied_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t reconverge_cycles_ = 0;
  std::vector<NodeId> last_batch_touched_;
  std::vector<ReconvergeStats> reconverge_history_;
  // The next reconvergence's start vector: the previous mark's raw
  // campaign output (tombstones included), or the constructor's ranks.
  std::vector<double> warm_ranks_;

  // First-touch markers: snap_epoch_[v] == batch_epoch_ means v is
  // already snapshotted for the in-flight batch.
  std::uint32_t batch_epoch_ = 0;
  std::vector<std::uint32_t> snap_epoch_;
  std::uint32_t batches_since_sweep_ = 0;

  // Walks graph_ and updates ranks_ for every batch's cascade.
  IncrementalPagerank<MutableDigraph> engine_;
};

}  // namespace dprank
