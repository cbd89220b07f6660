#pragma once

// Distributed pagerank engine — the paper's core contribution (§2.3,
// Fig. 1), executed under the evaluation methodology of §4.2.
//
// Semantics:
//  * Every document starts at `initial_rank`, or at its entry of a start
//    vector (a warm start from an earlier solution: the chaotic
//    iteration reaches the same fixed point from any start, §2.3). The
//    contribution cells, the mass-audit ledger and the replica rank
//    store all derive from that one vector. A document's rank is
//    R(v) = (1-d) + d * sum of the stored contributions of its in-links,
//    where a contribution is the freshest value R(u)/outdeg(u) the link
//    source has sent (chaotic iteration: each document recomputes from
//    whatever values have arrived, with no global synchronization).
//  * A pagerank update message for edge u->v is modelled as a write to a
//    per-edge contribution cell (u's out-edge slot), the array-backed
//    equivalent of the 24-byte GUID+rank message of §4.6.1.
//  * A pass (§4.2): all present peers concurrently recompute the
//    documents that received updates; documents whose relative change
//    exceeds epsilon send updates to their out-links. Messages sent in
//    pass t are visible in pass t+1 ("pagerank messages are sent and
//    received instantaneously and all peers start their next iteration
//    concurrently").
//  * Slots: run() first numbers the documents peer-major — a stable
//    counting sort by owning peer, so each peer's documents sit together
//    and, within a peer, ascend by document id. Ranks, contribution
//    cells, dirty flags and each document's out-links (target slot and
//    target cell per out-edge, in the sender's edge order) are stored in
//    slot order; everything keyed by message identity (outbox, sequence
//    numbers, audit ledger, trace ids) stays on the graph's out-edge ids.
//    Every interface that names a document (ranks(), start vectors,
//    observers, replicas, overlay GUIDs, handoffs, validation messages)
//    translates at the boundary. DESIGN.md §17 has the maps and costs.
//  * Execution model: every pass runs one pipeline, whatever the thread
//    count, schedule or attachments. (1) The dirty set is grouped
//    peer-major by a counting sort. (2) Under Schedule::kResidual each
//    peer segment is ordered by residual and its low-residual tail is
//    deferred. (3) One scalar loop folds each slot's cells left to right
//    and runs the epilogue that picks the senders; with
//    PagerankOptions::threads > 1 steps 2 and 3 run one shard per peer
//    segment on a reusable worker pool (common/thread_pool.hpp). (4) One
//    sequential sender-major loop emits: peers ascending, each peer's
//    senders in recompute order — the order fault-plan RNG draws, IP
//    cache warms and trace events consume. The loop is templated on
//    what the run needs (direct delivery, which parks an update only
//    for an absent peer, or the full fault/overlay/trace/replica/
//    membership/audit/residual machinery). Shards touch only their own
//    segment and slots, so ranks, pass history, residual series and
//    traffic tables are bit-identical for every thread count.
//  * Same-peer updates are applied locally without network messages
//    (Fig. 1 step b); cross-peer updates are counted in the traffic
//    meter, which every delivery mode bills once per pass from a local
//    tally.
//  * Presence (§3.1, §4.3): documents on absent peers neither compute
//    nor receive. Updates addressed to an absent peer wait in the
//    sender's per-edge outbox (newest value wins) and are delivered on
//    the first pass the destination peer is present. Messages are
//    counted once, at delivery. One per-peer mask says who is present;
//    the first step of every pass writes it: the membership
//    coordinator's mask, else the churn schedule's, else every peer,
//    then fault-plan crashes (peers still inside their downtime) masked
//    on top. Every later step of the pass reads that mask.
//  * Convergence: no document has a pending recompute and no update is
//    waiting in any outbox — the paper's "error in all the documents is
//    less than the error threshold" criterion. With a fault plan
//    attached, in-flight (delayed) messages, unacked retransmissions and
//    peers awaiting crash recovery also block convergence, and with the
//    mass audit enabled the final quiescent state must additionally pass
//    the rank-mass conservation check (leaks are repaired by
//    re-injection and the iteration continues).
//
// Fault model (extension; see fault/fault_plan.hpp): a FaultPlan attaches
// the full taxonomy — drop, duplication, bounded reordering, delivery
// delay, fail-stop peer crashes, and network partitions — driven one pass
// at a time. Crashes destroy sender outbox state and the peer's stored
// contributions (unlike graceful churn); on return the peer runs
// recovery: document ranks are restored from replicas
// (p2p/replication.hpp) where a live copy exists, and contributions are
// re-requested from live link sources otherwise. With
// FaultPlanConfig::acked_delivery, cross-peer sends carry sequence
// numbers and unacked messages retransmit with exponential backoff
// (net/reliable_channel.hpp); receivers reject stale reordered values and
// suppress duplicates. The MassAuditor (pagerank/mass_audit.hpp) tracks
// every emission and re-injects leaked contributions so the chaotic
// iteration still converges to the no-fault fixed point.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "graph/digraph.hpp"
#include "net/ip_cache.hpp"
#include "net/reliable_channel.hpp"
#include "net/traffic_meter.hpp"
#include "p2p/churn.hpp"
#include "p2p/membership.hpp"
#include "p2p/placement.hpp"
#include "p2p/replication.hpp"
#include "pagerank/mass_audit.hpp"
#include "pagerank/options.hpp"

namespace dprank {

/// One pass's tallies (pass_history() holds one per pass).
struct PassStats {
  std::uint64_t pass = 0;
  std::uint64_t docs_recomputed = 0;
  std::uint64_t messages_sent = 0;      // cross-peer, delivered immediately
  std::uint64_t messages_deferred = 0;  // parked in an outbox this pass
  std::uint64_t messages_delivered_late = 0;  // outbox drains this pass
  std::uint64_t local_updates = 0;
  std::uint64_t max_peer_messages = 0;  // busiest sender, for Eq. 4
  double max_rel_change = 0.0;
  // Fault extensions (all zero without a fault plan or membership).
  std::uint64_t crashes = 0;            // fault-plan and membership crashes
  std::uint64_t recovered_docs = 0;     // documents rebuilt this pass
  std::uint64_t retransmissions = 0;    // acked-delivery retries this pass
  std::uint64_t repair_messages = 0;    // mass-audit re-injections
  /// Dirty documents whose recompute the residual scheduler pushed to a
  /// later pass (always zero under Schedule::kFifo).
  std::uint64_t docs_deferred = 0;
  // Dynamic-membership extensions (all zero without attach_membership).
  /// Documents whose ownership moved this pass (join pulls, leave pushes
  /// and crash-range reconstructions).
  std::uint64_t handoff_docs = 0;
  /// Cross-peer sends addressed to a crashed-but-undeclared owner — the
  /// detection-latency window where senders still query the stale owner.
  std::uint64_t stale_owner_queries = 0;
};

struct DistributedRunResult {
  std::uint64_t passes = 0;
  bool converged = false;
  /// Rank-mass conservation at termination (1.0 = every emitted
  /// contribution accounted for). Only meaningful with the mass audit
  /// enabled; 1.0 otherwise.
  double mass_ratio = 1.0;
  /// Audit rounds that found leaks and re-injected mass.
  std::uint64_t repair_rounds = 0;
};

class DistributedPagerank {
 public:
  /// Observer invoked after every pass with (pass index, current ranks in
  /// document order); used to measure convergence trajectories (§4.3).
  using PassObserver =
      std::function<void(std::uint64_t, const std::vector<double>&)>;
  /// Per-pass simulated duration in microseconds, driven by the pass
  /// just completed (sim/time_model.hpp's make_pass_clock builds one
  /// from the Eq. 4 network model).
  using PassClock = std::function<double(const PassStats&)>;

  /// Declared mean relative error against centralized_pagerank of a
  /// fifo run at the default ε = 1e-3 on a 2k-doc paper graph over 40
  /// peers, with slack: seeds 7, 21 and 42 measure 8e-5 to 4e-4. Tests
  /// hold runs to it wherever an exact oracle is at hand.
  static constexpr double kQualityBound = 0.01;

  /// The placement must cover exactly g.num_nodes() documents
  /// (std::invalid_argument otherwise); Digraph already caps the edge
  /// count at the engine's 32-bit cell and out-link indices. The engine
  /// keeps references: graph and placement must outlive it (temporaries
  /// are rejected at compile time). Construction only checks and keeps
  /// the start vector; run() builds the per-run state.
  DistributedPagerank(const Digraph& g, const Placement& placement,
                      const PagerankOptions& options);
  /// Warm start: every document starts at start_ranks[v] instead of
  /// options.initial_rank (the three-argument form passes that vector
  /// filled with initial_rank). Throws std::invalid_argument unless the
  /// vector covers the documents.
  DistributedPagerank(const Digraph& g, const Placement& placement,
                      const PagerankOptions& options,
                      std::vector<double> start_ranks);
  DistributedPagerank(Digraph&&, const Placement&, PagerankOptions) = delete;
  DistributedPagerank(const Digraph&, Placement&&, PagerankOptions) = delete;
  DistributedPagerank(Digraph&&, Placement&&, PagerankOptions) = delete;
  DistributedPagerank(Digraph&&, const Placement&, PagerankOptions,
                      std::vector<double>) = delete;
  DistributedPagerank(const Digraph&, Placement&&, PagerankOptions,
                      std::vector<double>) = delete;
  DistributedPagerank(Digraph&&, Placement&&, PagerankOptions,
                      std::vector<double>) = delete;
  DistributedPagerank(const DistributedPagerank&) = delete;
  DistributedPagerank& operator=(const DistributedPagerank&) = delete;
  DistributedPagerank(DistributedPagerank&&) = delete;
  DistributedPagerank& operator=(DistributedPagerank&&) = delete;

  /// Meter overlay hop costs (§3.2): every cross-peer update consults
  /// `cache` over `ring` — an enabled cache models IP caching (first
  /// message routed, then direct), a disabled one models Freenet-style
  /// per-message routing. Both must outlive the engine. Call before
  /// run(); without this, every message is billed one hop.
  void attach_overlay(const ChordRing& ring, IpCache& cache);

  /// Deliver every update to each cached copy of the destination
  /// document as well (§2.3: "all copies of the document can contain
  /// the correct computed pagerank"). Replica addresses are pointers
  /// held at the source, so replica sends cost one hop. Replicas on
  /// absent peers are skipped and counted stale. Must outlive the
  /// engine; call before run(). With a fault plan attached, replicas
  /// additionally serve as the crash-recovery rank store.
  void attach_replicas(const ReplicaRegistry& replicas);

  /// Attach the unified fault plan (drop/duplicate/reorder/delay/crash/
  /// partition; see fault/fault_plan.hpp). The plan is driven one pass at
  /// a time and advances its own RNG streams — it must outlive the engine
  /// and must not be shared between engines. Call before run(), at most
  /// once.
  void attach_fault_plan(FaultPlan& plan);

  /// Attach a dynamic-membership coordinator (p2p/membership.hpp): the
  /// peer population changes while the iteration runs. Each pass the
  /// engine pulls the coordinator's PassPlan and acts on it — crashed
  /// peers lose sender state and stored contributions, declared-dead
  /// peers trigger outbox eviction (dropped_dead) and channel give-up,
  /// leavers hand their in-flight sends to their ring heir, and every
  /// document handoff moves parked state to the new owner (join/leave)
  /// or reconstructs the range from replicas and live sources
  /// (kReconstruct). The coordinator must share this engine's Placement
  /// object and must outlive it; call before run(). Its mask is each
  /// pass's base presence, so run() refuses a ChurnSchedule beside it. A
  /// fault plan's message faults and partitions compose with it, but
  /// run() refuses fault-plan crashes (temporary, documents stay put):
  /// schedule crashes as membership events. attach_overlay (a static
  /// converged ring) and this reject each other.
  void attach_membership(MembershipCoordinator& membership);

  /// Enable the rank-mass conservation audit: at every would-be
  /// convergence the engine audits the contribution ledger and, if the
  /// accounted mass ratio deviates from 1.0 beyond `tolerance`,
  /// re-injects exactly the leaked contributions and keeps iterating.
  /// Call before run().
  void enable_mass_audit(double tolerance = 1e-9);

  /// Publish run telemetry into `registry` (obs/metrics.hpp) when run()
  /// finishes: the traffic ledger under net.*, run totals under
  /// pagerank.* counters, the per-pass residual series
  /// `pagerank.residual` (x = pass, y = max relative change — matching
  /// pass_history() entry for entry), recompute/crash timelines, and a
  /// histogram of per-pass message counts. Flush-at-end keeps the hot
  /// loop untouched; live per-send metrics come from the attached
  /// IpCache (IpCache::bind_metrics). The registry must outlive the
  /// engine. Call before run().
  void attach_metrics(obs::MetricsRegistry& registry);

  /// Attach a causal message tracer (obs/trace.hpp). Every cross-peer
  /// update mints a TraceId at send time; DHT routing hops, outbox
  /// parking, delivery delay, drops, retransmissions, crash losses and
  /// the final application all append events under that id, so the
  /// exported Chrome trace reconstructs any message's journey by id.
  /// `clock` advances simulated time once per pass (1 us per pass when
  /// omitted — ordering only). Tracer must outlive the engine; call
  /// before run().
  void attach_tracer(obs::Tracer& tracer, PassClock clock = nullptr);

  /// Run to convergence. `churn == nullptr` means all peers always
  /// present. Can be called once per engine instance. Builds the slot
  /// layout first (its cost is part of the run); an observer receives
  /// the ranks in document order, translated each pass.
  DistributedRunResult run(ChurnSchedule* churn = nullptr,
                           const PassObserver& observer = nullptr);

  /// In document order before and after run() (the start vector before).
  [[nodiscard]] const std::vector<double>& ranks() const { return ranks_; }
  [[nodiscard]] const TrafficMeter& traffic() const { return meter_; }
  [[nodiscard]] const std::vector<PassStats>& pass_history() const {
    return history_;
  }
  [[nodiscard]] std::uint64_t outbox_peak() const { return outbox_peak_; }
  /// Bytes held by the engine's per-document / per-edge arrays (capacity,
  /// not size — what the allocator actually carries): the slot layout,
  /// and those only some runs allocate — the outbox (runs that can park),
  /// the mass-audit ledger, the channel's per-slot records, the replica
  /// rank store and the parked trace ids. Graph storage is reported
  /// separately by Digraph::memory_bytes(); both feed the mem.* gauges
  /// and the scale bench's bytes-per-edge figure.
  [[nodiscard]] std::uint64_t memory_bytes() const;
  [[nodiscard]] std::uint64_t replica_messages() const {
    return replica_messages_;
  }
  [[nodiscard]] std::uint64_t replica_stale_skips() const {
    return replica_stale_;
  }
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }
  [[nodiscard]] std::uint64_t duplicated_messages() const {
    return duplicated_;
  }

  // ---- Fault-plan observability (zero without an attached plan) ----
  [[nodiscard]] std::uint64_t crashes() const { return crashes_seen_; }
  [[nodiscard]] std::uint64_t recovered_docs() const {
    return recovered_docs_;
  }
  [[nodiscard]] std::uint64_t replica_restores() const {
    return replica_restores_;
  }
  [[nodiscard]] std::uint64_t recovery_messages() const {
    return recovery_messages_;
  }
  [[nodiscard]] std::uint64_t repair_messages() const {
    return repair_messages_;
  }
  [[nodiscard]] std::uint64_t partition_deferrals() const {
    return partition_deferrals_;
  }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return channel_ ? channel_->retransmissions() : 0;
  }
  [[nodiscard]] std::uint64_t stale_rejected() const {
    return channel_ ? channel_->stale_rejected() : 0;
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return channel_ ? channel_->duplicates_suppressed() : 0;
  }
  /// Records the channel retired through the `gave_up` terminal outcome
  /// (declared-dead destinations + exhausted retry budgets).
  [[nodiscard]] std::uint64_t gave_up() const {
    return channel_ ? channel_->gave_up() : 0;
  }

  // ---- Membership observability (zero without attach_membership) ----
  [[nodiscard]] std::uint64_t handoff_docs() const { return handoff_docs_; }
  [[nodiscard]] std::uint64_t stale_owner_queries() const {
    return stale_owner_queries_;
  }
  /// Parked updates evicted when their destination was declared dead.
  [[nodiscard]] std::uint64_t outbox_dropped_dead() const {
    return outbox_dropped_dead_;
  }
  /// Ledger view; nullptr until enable_mass_audit() (or an audit-enabled
  /// run) creates it.
  [[nodiscard]] const MassAuditor* mass_auditor() const {
    return auditor_.get();
  }

  /// Full engine invariant walk (contracts.hpp; subsystem "pagerank"),
  /// plus a cascade into the attached subsystems (graph, overlay ring,
  /// reliable channel, membership coordinator). Checks, at a pass
  /// boundary (before run(), only the start vector's size):
  ///  * per-edge array sizing matches the graph;
  ///  * the slot layout — slot -> document and document -> slot are
  ///    inverse maps, the owner mirror equals the placement, cell and
  ///    out-link offsets match the degrees, and every out-link's target
  ///    slot and cell match the graph's target and cross index;
  ///  * dirty-set integrity — in_dirty_[s] set exactly for the slots
  ///    queued in dirty_, no duplicates (the parallel merge precondition);
  ///  * outbox bookkeeping — pending flags, the per-destination deferred
  ///    lists and pending_count agree edge for edge, every parked edge is
  ///    filed under the peer owning its target, and the peak never
  ///    understates the live count;
  ///  * delay-buffer accounting (delayed_total_ vs buffered messages);
  ///  * rank-mass identity on fault-free runs — the MassAuditor ledger
  ///    balances exactly against the applied + parked values (§2.3's
  ///    fixed point; skipped under a fault plan, where transient leaks
  ///    are expected until audit_and_repair re-injects them).
  /// Findings name documents, not slots. Driven every
  /// PagerankOptions::validate_every_n_passes passes by run(); callable
  /// directly after run() returns. Throws contracts::ContractViolation
  /// on the first violation; no-op when contracts are compiled out.
  void validate_state() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates
  struct DelayedMsg {
    EdgeId edge = 0;
    PeerId src = 0;
    double value = 0.0;
    std::uint32_t seq = 0;
    obs::TraceId trace = obs::kNoTrace;
  };

  /// Where an out-edge's update lands: the target's slot and the cell
  /// that holds the edge's contribution.
  struct EdgeTarget {
    NodeId slot = 0;
    std::uint32_t cell = 0;
  };

  /// The pass's first step: write present_ (the coordinator's mask after
  /// its plan is applied, else the churn schedule's, else every peer),
  /// then strike fault-plan crashes, mask the peers still down, rebuild
  /// the peers back from downtime and deliver delayed and retried sends.
  void begin_pass(std::uint64_t pass, ChurnSchedule* churn,
                  PassStats& stats);
  void deliver_deferred(PassStats& stats);
  /// Queue slot s for the next pass (mark_dirty) or this one.
  void mark_dirty(NodeId s);
  void mark_dirty_now(NodeId s);
  /// Overlay hop bill for one update from peer `src` to the document
  /// `target_doc` held by `holder`; 1 when no overlay is attached.
  [[nodiscard]] std::uint64_t send_hops(PeerId src, PeerId holder,
                                        NodeId target_doc);
  /// Fan an update for document v out to its cached copies (§2.3).
  void send_to_replicas(PeerId src, NodeId v, PassStats& stats);
  /// Bill this pass's tally into the traffic meter and reset it.
  void bill_pass();

  // ---- fault-plan machinery ----
  void prepare_fault_state();
  [[nodiscard]] bool reachable(PeerId a, PeerId b) const {
    return plan_ == nullptr || plan_->reachable(a, b);
  }
  /// Park the freshest value for `e` in the per-edge outbox (newest
  /// sequence number wins when acked delivery tracks them). `trace`
  /// continues the message's journey from the outbox when it drains.
  void park(EdgeId e, PeerId src, PeerId dest, double value,
            std::uint32_t seq, obs::TraceId trace, PassStats& stats);
  /// Apply a delivered value for edge `e` to its cell at `t`
  /// (sequence-checked under acked delivery). `now` marks the target
  /// dirty for the current pass instead of the next.
  bool apply_update(EdgeId e, EdgeTarget t, double value, std::uint32_t seq,
                    bool now);
  void crash_peer(PeerId p, std::uint64_t pass, PassStats& stats);
  void recover_peer(PeerId p, PassStats& stats);
  /// The documents `p` owns, ascending.
  [[nodiscard]] std::vector<NodeId> docs_of(PeerId p) const;
  /// Fail-stop wipe of `p` (fault-plan and membership crashes alike).
  /// Sender side: every update `p` had parked for offline destinations
  /// and its in-flight retransmission records. Receiver side: the stored
  /// contribution cells of `p`'s documents (values still parked at live
  /// senders survive).
  void wipe_peer(PeerId p);
  /// Rebuild documents whose state was lost (crash recovery and
  /// membership range reconstruction): restore every rank first — from a
  /// live replica where one is reachable from the owner, else the initial
  /// value — then re-request each in-link's current contribution, so the
  /// rebuild reads consistent source ranks whatever the document order.
  void rebuild_docs(const std::vector<NodeId>& docs, PassStats& stats);
  /// Mass-audit + trace the channel records that reached the `gave_up`
  /// terminal outcome since the last drain.
  void drain_gave_up();
  /// Act on one pass's membership plan (crashes, declared-dead
  /// evictions, leaver state transfer, document handoffs).
  void apply_membership(const MembershipCoordinator::PassPlan& mplan,
                        std::uint64_t pass, PassStats& stats);
  void deliver_delayed(std::uint64_t pass, PassStats& stats);
  void process_retries(std::uint64_t pass, PassStats& stats);
  /// Quiescence audit; returns true when mass is conserved (converged),
  /// false after re-injecting leaked contributions (keep iterating).
  bool audit_and_repair(PassStats& stats);
  /// The MassAuditor's view of edge e: its parked outbox value while it
  /// waits on an offline destination, else its applied cell.
  [[nodiscard]] double effective_value(EdgeId e) const;
  [[nodiscard]] MassAuditReport audit_ledger() const;

  // ---- telemetry ----
  /// End the journey `t` (no-op for kNoTrace) with the applied/stale
  /// terminal event at the receiving peer.
  void trace_terminal(obs::TraceId t, bool applied, PeerId pv);
  /// Journey mint + send/DHT-hop events for one cross-peer emission;
  /// returns the id to thread through the message's fate.
  [[nodiscard]] obs::TraceId trace_send(EdgeId e, PeerId pu, PeerId pv,
                                        NodeId v, double value,
                                        std::uint64_t pass,
                                        std::uint64_t hops);
  /// Publish run totals, the residual series and timelines to metrics_.
  void flush_metrics(const DistributedRunResult& result);

  const Digraph& graph_;
  const Placement& placement_;
  PagerankOptions options_;

  const ChordRing* ring_ = nullptr;
  IpCache* ip_cache_ = nullptr;
  const ReplicaRegistry* replicas_ = nullptr;
  std::uint64_t replica_messages_ = 0;
  std::uint64_t replica_stale_ = 0;

  MembershipCoordinator* membership_ = nullptr;
  std::uint64_t handoff_docs_ = 0;
  std::uint64_t stale_owner_queries_ = 0;
  std::uint64_t outbox_dropped_dead_ = 0;

  FaultPlan* plan_ = nullptr;
  std::unique_ptr<ReliableChannel> channel_;
  std::unique_ptr<MassAuditor> auditor_;
  bool audit_enabled_ = false;
  double audit_tolerance_ = 1e-9;
  static constexpr double kAuditSlack = 1e-12;
  double last_mass_ratio_ = 1.0;  // the last conserving audit's ratio
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t crashes_seen_ = 0;
  std::uint64_t recovered_docs_ = 0;
  std::uint64_t replica_restores_ = 0;
  std::uint64_t recovery_messages_ = 0;
  std::uint64_t repair_messages_ = 0;
  std::uint64_t repair_rounds_ = 0;
  std::uint64_t partition_deferrals_ = 0;

  // Per peer: 1 when present this pass. Written by begin_pass() alone,
  // between parallel regions; recompute shards only read it.
  std::vector<std::uint8_t> present_;
  // Per peer, fault-plan runs only: the first pass after a crash's
  // downtime; 0 once the peer is up and recovered.
  std::vector<std::uint64_t> down_until_;
  // Replica rank store (crash-recovery path), per slot.
  std::vector<double> replica_value_;   // last rank a live replica holds

  // Delivery-delay buffer: pass -> messages arriving at its start. A
  // node-based ordered map is right here: the fault path is cold, only
  // the earliest due passes are visited, and delivery order must follow
  // due-pass order.
  // dprank-analyze: allow(hot-path-map) -- cold fault path, due-pass order
  std::map<std::uint64_t, std::vector<DelayedMsg>> delayed_;
  std::uint64_t delayed_total_ = 0;

  // ---- slots: the run's peer-major numbering (see the header comment)
  // Built by prepare_pipeline(). Slot and cell indices are 32-bit, which
  // Digraph's edge-count cap guarantees.
  std::vector<NodeId> slot_doc_;     // slot -> document
  // Document -> slot, kept only by runs that start from edge ids (outbox
  // drains, delayed and retried sends, audit, handoffs, recovery).
  std::vector<NodeId> doc_slot_;
  // Slot -> owning peer, mirroring the placement (handoffs update it; a
  // moved document keeps its slot).
  std::vector<PeerId> slot_owner_;
  // Slot s's contribution cells are contrib_[cell_begin_[s],
  // cell_begin_[s + 1]), in the graph's in-list order.
  std::vector<std::uint32_t> cell_begin_;
  // Slot s's out-links are positions [out_begin_[s], out_begin_[s + 1]),
  // in the sender's out-edge order: position out_begin_[s] + j is edge
  // out_edge_begin(slot_doc_[s]) + j, landing in slot out_slot_[pos] at
  // cell out_cell_[pos].
  std::vector<std::uint32_t> out_begin_;
  std::vector<NodeId> out_slot_;
  std::vector<std::uint32_t> out_cell_;

  // Ranks: document order before and after run(), slot order during it
  // (permuted at both ends; never held twice while the passes run).
  std::vector<double> ranks_;
  // Delivered contribution cells, per slot in slot order: a slot's cells
  // are contiguous, so the recompute — the engine's hottest loop —
  // streams them, and a peer's cells sit together. Everything keyed by
  // message identity (outbox, sequence numbers, audit ledger) stays on
  // out-edge ids.
  std::vector<double> contrib_;
  // The outbox, per out-edge; allocated only by runs that can park.
  std::vector<double> pending_value_;  // undelivered value
  std::vector<std::uint8_t> pending_;  // outbox flag
  std::vector<std::uint32_t> pending_seq_;  // parked seq (acked mode only)
  // (edge, sender peer) pairs parked for an absent destination peer
  std::vector<std::vector<std::pair<EdgeId, PeerId>>> deferred_by_peer_;
  std::uint64_t total_pending_ = 0;
  std::uint64_t outbox_peak_ = 0;

  // Per slot. uint8_t, not vector<bool>: recompute shards clear the flags
  // of distinct slots concurrently, which must not share words.
  std::vector<std::uint8_t> in_dirty_;
  std::vector<NodeId> dirty_;       // slots to recompute this pass
  std::vector<NodeId> next_dirty_;  // slots to recompute next pass

  // ---- the pass pipeline (see the header comment) ----
  /// How the emission loop delivers an update; fixed for the run by
  /// prepare_pipeline() from what is attached and the schedule.
  enum class Delivery : std::uint8_t {
    kDirect,  // fifo, nothing attached: inline cell writes, or the outbox
              // for an absent peer (churn)
    kFull,    // a fault plan, tracer, overlay, replicas, membership, the
              // mass audit or the residual schedule is in play
  };
  /// One active peer's slice of the pass. Its dirty slots sit at
  /// grouped_[begin, end); the recompute step writes the senders to the
  /// front of senders_[begin, end) and the slots that stay dirty
  /// (residual deferrals and held emissions) to its back — the two never
  /// meet, since a slot is at most one of them.
  struct Segment {
    PeerId peer = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t recomputed = 0;
    std::uint64_t senders = 0;   // senders_[begin, begin + senders)
    std::uint64_t kept = 0;      // senders_[end - kept, end)
    std::uint64_t deferred = 0;  // residual tail pushed to a later pass
    double max_rel = 0.0;
  };

  /// True when a fault plan, tracer, overlay, replicas, membership or
  /// the mass audit is attached.
  [[nodiscard]] bool has_attachments() const;
  /// Fixes the delivery mode, builds the slot layout (which permutes
  /// ranks_ into slot order) and sizes the per-run state. `churn`: a
  /// churn schedule drives presence, so updates can park.
  void prepare_pipeline(bool churn);
  void build_slots(bool keep_doc_slot);
  /// The passes themselves, with ranks_ in slot order.
  void run_passes(ChurnSchedule* churn, const PassObserver& observer,
                  DistributedRunResult& result);
  /// Target slot and cell of out-edge e (needs doc_slot_).
  [[nodiscard]] EdgeTarget edge_target(EdgeId e) const;
  /// The document whose out-edge e is: a binary search over the
  /// graph's out-offsets, for the cold audit-repair and leaver paths.
  [[nodiscard]] NodeId edge_source(EdgeId e) const;
  /// One pass through the pipeline: group, recompute (sharded on the
  /// pool when there is one), merge the segments in peer order, emit.
  void run_pass(std::uint64_t pass, PassStats& stats,
                obs::Histogram* batch_hist);
  /// Step 1: counting sort of dirty_ into peer-major segments (peers
  /// ascending, dirty_ order within a peer).
  void group_dirty();
  /// Steps 2 and 3 for one segment: residual selection, fold, epilogue.
  /// Touches only the segment's slices and its own slots, so segments
  /// recompute concurrently.
  void recompute_segment(Segment& s);
  /// Step 4: the sender-major emission loop.
  template <Delivery kMode>
  void emit(std::uint64_t pass, PassStats& stats, obs::Histogram* batch_hist);

  std::unique_ptr<ThreadPool> pool_;   // only when options_.threads > 1
  Delivery delivery_ = Delivery::kDirect;
  std::vector<Segment> segments_;   // this pass, peers ascending
  std::vector<std::uint64_t> peer_cursor_;  // per peer: sort count/cursor
  std::vector<NodeId> grouped_;  // dirty slots, grouped peer-major
  std::vector<NodeId> senders_;  // per segment: senders, then kept slots
  // Emission scratch for the batch-size histogram: the current source
  // peer's wire messages per destination, reset through touched_dsts_.
  std::vector<std::uint32_t> dst_count32_;
  std::vector<PeerId> touched_dsts_;

  // ---- residual scheduler state (Schedule::kResidual only) ----
  bool residual_mode_ = false;
  double eff_epsilon_ = 0.0;   // this pass's emission threshold
  double prev_max_rel_ = 0.0;  // last pass's max relative change
  // Per slot. Accumulated |Δcontribution| since the document's last
  // recompute; +inf until first recomputed, so pass 0 processes
  // everything.
  std::vector<double> residual_;
  // Per slot. Rank value behind the document's last emission: the
  // emission gate compares against what the out-links actually hold, not
  // last pass's rank, so coalesced (deferred) updates are never silently
  // dropped.
  std::vector<double> last_sent_;
  std::vector<std::uint8_t> defer_age_;  // consecutive deferrals

  TrafficMeter meter_;
  // The pass's wire messages, their overlay hops and its local updates,
  // tallied by emission, late delivery and replica fan-out and billed
  // into meter_ once per pass (each meter add is an atomic RMW).
  struct PassBill {
    std::uint64_t messages = 0;
    std::uint64_t hops = 0;
    std::uint64_t local = 0;
  };
  PassBill bill_;
  std::vector<PassStats> history_;
  bool ran_ = false;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  PassClock pass_clock_;
  std::vector<obs::TraceId> pending_trace_;  // parked journey per edge
};

}  // namespace dprank
