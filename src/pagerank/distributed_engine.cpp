#include "pagerank/distributed_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "common/guid.hpp"
#include "net/message.hpp"
#include "obs/mem_probe.hpp"

namespace dprank {

namespace {

// kResidual: defer a document whose relative residual is below this
// fraction of the previous pass's max relative change.
constexpr double kResidualDeferRatio = 0.5;

// Transport header of a §4.6.1 bulk transfer. Membership handoffs move a
// document's rank and stored contributions this way, each value billed
// at PagerankUpdate::kWireBytes behind one header.
constexpr std::uint32_t kBatchHeaderBytes = 16;

}  // namespace

DistributedPagerank::DistributedPagerank(const Digraph& g,
                                         const Placement& placement,
                                         const PagerankOptions& options)
    : DistributedPagerank(
          g, placement, options,
          std::vector<double>(g.num_nodes(), options.initial_rank)) {}

DistributedPagerank::DistributedPagerank(const Digraph& g,
                                         const Placement& placement,
                                         const PagerankOptions& options,
                                         std::vector<double> start_ranks)
    : graph_(g),
      placement_(placement),
      options_(options),
      ranks_(std::move(start_ranks)) {
  if (placement.num_docs() != g.num_nodes()) {
    throw std::invalid_argument(
        "DistributedPagerank: placement does not cover the graph");
  }
  if (ranks_.size() != g.num_nodes()) {
    throw std::invalid_argument(
        "DistributedPagerank: start vector does not cover the graph");
  }
  const NodeId n = g.num_nodes();
  // "Available pagerank for in-links from the previous iteration" at
  // pass 0 is the start value: contribution of edge u->v starts at
  // ranks_[u] / outdeg(u). Cells live at in-CSR positions (see the
  // header): iterate per destination, reading each source's out-degree.
  contrib_.resize(g.num_edges());
  // One division per *source document* (identical to dividing per edge —
  // same operands, same rounding), then a scatter: n divisions instead of
  // m for the million-doc constructor.
  std::vector<double> init_contrib(n);
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t deg = g.out_degree(u);
    init_contrib[u] = deg == 0 ? 0.0 : ranks_[u] / static_cast<double>(deg);
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto sources = g.in_neighbors(v);
    const EdgeId base = g.in_edge_begin(v);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      contrib_[base + i] = init_contrib[sources[i]];
    }
  }
  pending_value_.assign(g.num_edges(), 0.0);
  pending_.assign(g.num_edges(), false);
  deferred_by_peer_.resize(placement.num_peers());
  in_dirty_.assign(n, true);
  dirty_.resize(n);
  for (NodeId v = 0; v < n; ++v) dirty_[v] = v;  // first pass: everyone
  next_dirty_.reserve(n);
  residual_mode_ = options_.schedule == Schedule::kResidual;
  if (residual_mode_) {
    residual_.assign(n, std::numeric_limits<double>::infinity());
    last_sent_ = ranks_;
    defer_age_.assign(n, 0);
  }
}

void DistributedPagerank::attach_overlay(const ChordRing& ring,
                                         IpCache& cache) {
  if (ran_) throw std::logic_error("attach_overlay after run");
  if (membership_ != nullptr) {
    throw std::logic_error(
        "attach_overlay: dynamic membership is attached; the static "
        "converged ring and the self-healing ring are mutually exclusive");
  }
  if (ring.size() != placement_.num_peers()) {
    throw std::invalid_argument(
        "attach_overlay: ring size does not match placement peers");
  }
  ring_ = &ring;
  ip_cache_ = &cache;
}

void DistributedPagerank::attach_replicas(const ReplicaRegistry& replicas) {
  if (ran_) throw std::logic_error("attach_replicas after run");
  if (replicas.num_docs() != placement_.num_docs()) {
    throw std::invalid_argument(
        "attach_replicas: registry does not cover the documents");
  }
  replicas_ = &replicas;
}

void DistributedPagerank::attach_fault_plan(FaultPlan& plan) {
  if (ran_) throw std::logic_error("attach_fault_plan after run");
  if (plan_ != nullptr) {
    throw std::logic_error(
        "attach_fault_plan: a fault plan is already attached");
  }
  plan_ = &plan;
}

void DistributedPagerank::attach_membership(
    MembershipCoordinator& membership) {
  if (ran_) throw std::logic_error("attach_membership after run");
  if (ring_ != nullptr) {
    throw std::logic_error(
        "attach_membership: attach_overlay models a fixed converged ring; "
        "dynamic membership owns its own self-healing ring");
  }
  if (&membership.placement() != &placement_) {
    throw std::invalid_argument(
        "attach_membership: the coordinator must share this engine's "
        "Placement object (handoffs mutate it in place)");
  }
  membership_ = &membership;
}

void DistributedPagerank::enable_mass_audit(double tolerance) {
  if (ran_) throw std::logic_error("enable_mass_audit after run");
  if (tolerance < 0.0) {
    throw std::invalid_argument("enable_mass_audit: negative tolerance");
  }
  audit_enabled_ = true;
  audit_tolerance_ = tolerance;
}

void DistributedPagerank::attach_metrics(obs::MetricsRegistry& registry) {
  if (ran_) throw std::logic_error("attach_metrics after run");
  metrics_ = &registry;
}

void DistributedPagerank::attach_tracer(obs::Tracer& tracer,
                                        PassClock clock) {
  if (ran_) throw std::logic_error("attach_tracer after run");
  tracer_ = &tracer;
  pass_clock_ = std::move(clock);
  pending_trace_.assign(graph_.num_edges(), obs::kNoTrace);
}

void DistributedPagerank::trace_terminal(obs::TraceId t, bool applied,
                                         PeerId pv) {
  if (t == obs::kNoTrace) return;
  tracer_->async_end(t, applied ? "update.apply" : "update.stale",
                     "pagerank", pv, {});
}

obs::TraceId DistributedPagerank::trace_send(EdgeId e, PeerId pu, PeerId pv,
                                             NodeId v, double value,
                                             std::uint64_t pass,
                                             std::uint64_t hops) {
  const obs::TraceId tid = tracer_->begin_trace();
  if (tid == obs::kNoTrace) return tid;  // unsampled journey
  tracer_->async_begin(tid, "update.send", "pagerank", pu,
                       {{"edge", static_cast<double>(e)},
                        {"pass", static_cast<double>(pass)},
                        {"value", value}});
  if (hops > 1 && ring_ != nullptr) {
    // Hop-by-hop overlay story: send_hops() already billed the route and
    // updated the cache; route() is read-only, so re-deriving the path
    // changes nothing the simulation can observe.
    const auto route = ring_->route(pu, document_guid(v));
    for (const PeerId hop : route.hops) {
      tracer_->async_step(tid, "dht.hop", "dht", hop, {});
    }
    if (route.destination != pv) {
      tracer_->async_step(tid, "dht.hop", "dht", pv, {});
    }
  }
  return tid;
}

std::uint64_t DistributedPagerank::send_hops(PeerId src, PeerId holder,
                                             NodeId target_doc) {
  if (ring_ == nullptr) return 1;
  return std::max<std::uint64_t>(
      1, ip_cache_->send_hops_to_peer(src, holder, document_guid(target_doc),
                                      *ring_));
}

void DistributedPagerank::mark_dirty(NodeId v) {
  if (!in_dirty_[v]) {
    in_dirty_[v] = true;
    next_dirty_.push_back(v);
  }
}

void DistributedPagerank::mark_dirty_now(NodeId v) {
  if (!in_dirty_[v]) {
    in_dirty_[v] = true;
    dirty_.push_back(v);
  }
}

void DistributedPagerank::send_to_replicas(PeerId src, NodeId v,
                                           const std::vector<bool>& presence,
                                           PassStats& stats) {
  for (const PeerId rp : replicas_->replicas_of(v)) {
    if (rp == src) {
      ++bill_.local;
      ++stats.local_updates;
    } else if (presence[rp]) {
      // Replica addresses are pointers held at the source (§2.3):
      // replica sends are always direct.
      ++bill_.messages;
      ++bill_.hops;
      ++replica_messages_;
      ++stats.messages_sent;
    } else {
      ++replica_stale_;
    }
  }
}

void DistributedPagerank::bill_pass() {
  if (bill_.messages != 0) {
    meter_.record_messages(bill_.messages, PagerankUpdate::kWireBytes,
                           bill_.hops);
  }
  if (bill_.local != 0) meter_.record_local_updates(bill_.local);
  bill_ = {};
}

void DistributedPagerank::park(EdgeId e, PeerId src, PeerId dest,
                               double value, std::uint32_t seq,
                               obs::TraceId trace, PassStats& stats) {
  if (channel_ != nullptr) {
    if (pending_[e] && pending_seq_[e] > seq) {
      // A fresher emission is already parked for this edge.
      ++stats.messages_deferred;
      if (trace != obs::kNoTrace) {
        tracer_->async_end(trace, "update.superseded", "net", dest, {});
      }
      return;
    }
    pending_seq_[e] = seq;
  }
  pending_value_[e] = value;
  if (!pending_[e]) {
    pending_[e] = true;
    deferred_by_peer_[dest].emplace_back(e, src);
    ++total_pending_;
    outbox_peak_ = std::max(outbox_peak_, total_pending_);
  }
  if (tracer_ != nullptr) {
    obs::TraceId& slot = pending_trace_[e];
    if (slot != obs::kNoTrace && slot != trace) {
      // Newest value wins the outbox slot; the overwritten journey ends.
      tracer_->async_end(slot, "update.superseded", "net", dest, {});
    }
    slot = trace;
    if (trace != obs::kNoTrace) {
      tracer_->async_step(trace, "outbox.park", "net", dest,
                          {{"edge", static_cast<double>(e)}});
    }
  }
  ++stats.messages_deferred;
}

bool DistributedPagerank::apply_update(EdgeId e, double value,
                                       std::uint32_t seq, bool now) {
  if (channel_ != nullptr && !channel_->accept(e, seq)) {
    return false;  // stale reordered value or duplicate: rejected
  }
  const EdgeId cell = graph_.out_to_in_edge(e);
  const NodeId v = graph_.out_target(e);
  if (residual_mode_) residual_[v] += std::abs(value - contrib_[cell]);
  contrib_[cell] = value;
  if (now) {
    mark_dirty_now(v);
  } else {
    mark_dirty(v);
  }
  if (channel_ != nullptr) channel_->ack(e, seq);
  return true;
}

void DistributedPagerank::prepare_fault_state() {
  const NodeId n = graph_.num_nodes();
  if (plan_ != nullptr) {
    const PeerId num_peers = placement_.num_peers();
    crashed_until_.assign(num_peers, 0);
    needs_recovery_.assign(num_peers, false);
    if (plan_->config().acked_delivery) {
      channel_ = std::make_unique<ReliableChannel>(
          ReliableChannel::Config{plan_->config().ack_timeout_passes,
                                  plan_->config().retry_backoff_cap,
                                  plan_->config().retry_max_attempts},
          graph_.num_edges());
      pending_seq_.assign(graph_.num_edges(), 0);
    }
  }
  if ((plan_ != nullptr || membership_ != nullptr) && replicas_ != nullptr &&
      !replicas_->empty()) {
    // Replicas double as the rank store crash recovery (fault plan) and
    // crash-range reconstruction (membership) restore from. No pass has
    // run, so ranks_ still holds the start vector.
    replica_value_ = ranks_;
  }
  // Periodic validation re-uses the mass ledger for the fault-free
  // conservation identity — only worth feeding when contracts are
  // compiled in (validate_state() is a no-op otherwise).
  const bool audit_for_validation =
      options_.validate_every_n_passes != 0 && contracts::enabled();
  if (plan_ != nullptr || membership_ != nullptr || audit_enabled_ ||
      audit_for_validation) {
    auditor_ = std::make_unique<MassAuditor>(graph_, ranks_);
  }
  // The audit's repair pass and the membership handoffs both need to map
  // an out-edge back to its source document.
  if (audit_enabled_ || membership_ != nullptr) {
    edge_src_.resize(graph_.num_edges());
    for (NodeId u = 0; u < n; ++u) {
      for (EdgeId e = graph_.out_edge_begin(u); e < graph_.out_edge_end(u);
           ++e) {
        edge_src_[e] = u;
      }
    }
  }
}

void DistributedPagerank::crash_peer(PeerId p, std::uint64_t pass) {
  ++crashes_seen_;
  const std::uint32_t downtime =
      std::max<std::uint32_t>(1, plan_->config().crash_downtime_passes);
  crashed_until_[p] = pass + downtime;
  needs_recovery_[p] = true;
  if (tracer_ != nullptr) {
    tracer_->instant("peer.crash", "fault", p,
                     {{"pass", static_cast<double>(pass)},
                      {"downtime", static_cast<double>(downtime)}});
  }

  wipe_peer(p);
}

std::vector<NodeId> DistributedPagerank::docs_of(PeerId p) const {
  std::vector<NodeId> docs;
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (placement_.peer_of(v) == p) docs.push_back(v);
  }
  return docs;
}

void DistributedPagerank::wipe_peer(PeerId p) {
  // Sender-side state lost: every update p had parked for offline
  // destinations vanishes with it.
  for (auto& entries : deferred_by_peer_) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].second == p) {
        const EdgeId e = entries[i].first;
        pending_[e] = false;
        --total_pending_;
        if (auditor_ != nullptr) auditor_->on_known_loss(pending_value_[e]);
        if (tracer_ != nullptr && pending_trace_[e] != obs::kNoTrace) {
          tracer_->async_end(pending_trace_[e], "crash.loss", "fault", p,
                             {});
          pending_trace_[e] = obs::kNoTrace;
        }
      } else {
        entries[kept++] = entries[i];
      }
    }
    entries.resize(kept);
  }
  // In-flight retransmission records from p are lost too (delayed
  // messages already on the wire survive — they are in the network, not
  // in p's memory).
  if (channel_ != nullptr) {
    for (const auto& lost : channel_->forget_sender(p)) {
      if (auditor_ != nullptr) auditor_->on_known_loss(lost.value);
      if (tracer_ != nullptr && lost.trace != obs::kNoTrace) {
        tracer_->async_end(lost.trace, "crash.loss", "fault", p, {});
      }
    }
  }
  // Receiver-side state lost: the cells feeding p's documents. Values
  // still parked at live senders survive.
  for (const NodeId v : docs_of(p)) {
    const auto slots = graph_.in_to_out_edge(v);
    const EdgeId base = graph_.in_edge_begin(v);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!pending_[slots[i]] && auditor_ != nullptr) {
        auditor_->on_known_loss(contrib_[base + i]);
      }
      contrib_[base + i] = 0.0;
    }
  }
}

void DistributedPagerank::recover_peer(PeerId p,
                                       const std::vector<bool>& presence,
                                       PassStats& stats) {
  needs_recovery_[p] = false;
  if (tracer_ != nullptr) tracer_->instant("peer.recover", "fault", p, {});
  rebuild_docs(docs_of(p), presence, stats);
}

void DistributedPagerank::rebuild_docs(const std::vector<NodeId>& docs,
                                       const std::vector<bool>& presence,
                                       PassStats& stats) {
  // Step 1: restore document ranks — from a live replica copy where one
  // exists (one fetch message per document), from the initial value
  // otherwise.
  for (const NodeId v : docs) {
    const PeerId owner = placement_.peer_of(v);
    bool restored = false;
    if (!replica_value_.empty()) {
      for (const PeerId rp : replicas_->replicas_of(v)) {
        if (presence[rp] && reachable(rp, owner)) {
          ranks_[v] = replica_value_[v];
          meter_.record_message(PagerankUpdate::kWireBytes);
          ++replica_restores_;
          ++recovery_messages_;
          restored = true;
          break;
        }
      }
    }
    if (!restored) ranks_[v] = options_.initial_rank;
    ++recovered_docs_;
    ++stats.recovered_docs;
  }
  // Step 2: rebuild the contribution store by re-requesting each in-link
  // source's current contribution. Ranks were all restored above, so
  // same-peer sources are consistent regardless of document order.
  for (const NodeId v : docs) {
    const PeerId owner = placement_.peer_of(v);
    const auto sources = graph_.in_neighbors(v);
    const auto slots = graph_.in_to_out_edge(v);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      const EdgeId e = slots[i];
      const PeerId pu = placement_.peer_of(u);
      if (pu != owner && pending_[e]) {
        // The sender holds a parked (fresher) value for this edge; the
        // outbox drain later this pass delivers it.
        continue;
      }
      if (pu != owner && (!presence[pu] || !reachable(pu, owner))) {
        // Source unreachable: the cell stays empty until the source's
        // next emission, its outbox, or the mass audit repairs it.
        continue;
      }
      const double c =
          ranks_[u] / static_cast<double>(graph_.out_degree(u));
      contrib_[graph_.in_edge_begin(v) + i] = c;
      if (auditor_ != nullptr) auditor_->on_emit(e, c);
      if (channel_ != nullptr) {
        const std::uint32_t seq = channel_->next_seq(e);
        (void)channel_->accept(e, seq);
        channel_->ack(e, seq);
      }
      if (pu == owner) {
        meter_.record_local_update();
        ++stats.local_updates;
      } else {
        // One pull: the re-request out, the contribution back.
        meter_.record_resend(PagerankUpdate::kWireBytes);
        meter_.record_message(PagerankUpdate::kWireBytes,
                              send_hops(pu, owner, v));
        ++recovery_messages_;
      }
    }
    // A rebuilt document must recompute promptly whatever its residual
    // history says: its cells were just rewritten wholesale.
    if (residual_mode_) {
      residual_[v] = std::numeric_limits<double>::infinity();
    }
    mark_dirty_now(v);
  }
}

void DistributedPagerank::drain_gave_up() {
  if (channel_ == nullptr) return;
  for (const auto& g : channel_->take_gave_up()) {
    if (auditor_ != nullptr) auditor_->on_known_loss(g.value);
    if (tracer_ != nullptr && g.trace != obs::kNoTrace) {
      tracer_->async_end(g.trace, "net.gave_up", "net",
                         static_cast<PeerId>(g.dest), {});
    }
  }
}

void DistributedPagerank::apply_membership(
    const MembershipCoordinator::PassPlan& mplan, std::uint64_t pass,
    PassStats& stats) {
  const std::vector<bool>& presence = membership_->presence();

  // 1. Fail-stop crashes: the peer's sender-side outbox state,
  //    retransmission records and stored contribution cells vanish.
  //    Ownership of its documents stays frozen on the dead id until the
  //    detector's verdict (the coordinator holds the range back), so
  //    parked updates addressed to it stay correctly filed meanwhile.
  for (const PeerId p : mplan.crashes) {
    ++crashes_seen_;
    ++stats.crashes;
    if (tracer_ != nullptr) {
      tracer_->instant("peer.crash", "fault", p,
                       {{"pass", static_cast<double>(pass)}});
    }
    wipe_peer(p);
  }

  // 2. Graceful leavers: in-flight sender responsibility moves to the
  //    ring heir along with the documents (§3.1 "notify before
  //    departing", extended to permanent departure). Parked entries are
  //    re-labelled to the peer now owning each edge's source.
  for (const auto& [leaver, heir] : mplan.leaves) {
    for (auto& entries : deferred_by_peer_) {
      for (auto& [e, src] : entries) {
        if (src == leaver) src = placement_.peer_of(edge_src_[e]);
      }
    }
    if (channel_ != nullptr) channel_->reassign_sender(leaver, heir);
  }

  // 3. Declared dead: the net layer stops waiting. Parked updates
  //    addressed to the dead peer are evicted (outbox_dropped_dead) and
  //    the channel abandons retransmission (gave_up) — both
  //    losses are audited so the quiescence repair re-injects the mass.
  for (const PeerId d : mplan.declared_dead) {
    auto& entries = deferred_by_peer_[d];
    for (const auto& [e, src] : entries) {
      pending_[e] = false;
      --total_pending_;
      ++outbox_dropped_dead_;
      if (auditor_ != nullptr) auditor_->on_known_loss(pending_value_[e]);
      if (tracer_ != nullptr && pending_trace_[e] != obs::kNoTrace) {
        tracer_->async_end(pending_trace_[e], "outbox.dropped_dead", "net",
                           d, {});
        pending_trace_[e] = obs::kNoTrace;
      }
    }
    entries.clear();
    if (channel_ != nullptr) (void)channel_->give_up_on_dest(d);
  }
  drain_gave_up();

  // 4. Handoffs. A reconstructed range (its owner was declared dead)
  //    is rebuilt exactly like a recovering peer's documents.
  stats.handoff_docs += mplan.handoffs.size();
  handoff_docs_ += mplan.handoffs.size();
  std::vector<NodeId> reconstruct;
  for (const auto& h : mplan.handoffs) {
    if (h.reason == MembershipCoordinator::Handoff::Reason::kReconstruct) {
      reconstruct.push_back(h.doc);
      continue;
    }
    // Live-to-live transfer: the new owner pulls (join) or the leaver
    // pushes (leave) the document's rank and its stored contribution
    // cells in one bulk message; the values themselves are already
    // correct, so only traffic and dirty bookkeeping change.
    const std::size_t cells = graph_.in_neighbors(h.doc).size();
    meter_.record_batch(1 + cells, PagerankUpdate::kWireBytes,
                        kBatchHeaderBytes);
  }
  // Overlay and membership are mutually exclusive, so send_hops bills
  // every reconstruction pull one hop, as a direct message.
  rebuild_docs(reconstruct, presence, stats);

  // 5. Re-file parked entries whose target changed owner: the outbox
  //    files every parked edge under the peer owning its target
  //    (validate_state's invariant), and that peer just changed for the
  //    moved ranges. Only the old owners' lists can hold stale filings.
  if (!mplan.handoffs.empty()) {
    std::vector<PeerId> affected;
    affected.reserve(mplan.handoffs.size());
    for (const auto& h : mplan.handoffs) affected.push_back(h.from);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (const PeerId from : affected) {
      auto& entries = deferred_by_peer_[from];
      std::size_t kept = 0;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const PeerId owner =
            placement_.peer_of(graph_.out_target(entries[i].first));
        if (owner == from) {
          entries[kept++] = entries[i];
        } else {
          deferred_by_peer_[owner].push_back(entries[i]);
        }
      }
      entries.resize(kept);
    }
  }
}

void DistributedPagerank::deliver_delayed(std::uint64_t pass,
                                          const std::vector<bool>& presence,
                                          PassStats& stats) {
  auto it = delayed_.begin();
  while (it != delayed_.end() && it->first <= pass) {
    for (const DelayedMsg& m : it->second) {
      const NodeId v = graph_.out_target(m.edge);
      const PeerId pv = placement_.peer_of(v);
      if (presence[pv] && reachable(m.src, pv)) {
        // Traffic was billed at send time.
        const bool applied = apply_update(m.edge, m.value, m.seq, /*now=*/true);
        trace_terminal(m.trace, applied, pv);
      } else {
        park(m.edge, m.src, pv, m.value, m.seq, m.trace, stats);
      }
    }
    delayed_total_ -= it->second.size();
    it = delayed_.erase(it);
  }
}

void DistributedPagerank::process_retries(std::uint64_t pass,
                                          const std::vector<bool>& presence,
                                          PassStats& stats) {
  if (channel_ == nullptr) return;
  const std::uint64_t before = channel_->retransmissions();
  for (auto& pend : channel_->take_due(pass)) {
    const EdgeId e = pend.slot;
    const NodeId v = graph_.out_target(e);
    const PeerId pv = placement_.peer_of(v);
    if (!presence[pv] || !reachable(pend.src, pv)) {
      // Destination offline or partitioned: hand the message to the §3.1
      // store-and-resend outbox instead of burning retries.
      park(e, pend.src, pv, pend.value, pend.seq, pend.trace, stats);
      continue;
    }
    const SendFate fate = plan_->fate_for_send();
    meter_.record_resend(PagerankUpdate::kWireBytes);
    if (pend.trace != obs::kNoTrace) {
      tracer_->async_step(pend.trace, "net.retransmit", "net", pend.src,
                          {{"attempt", static_cast<double>(pend.attempt + 1)}});
    }
    if (fate.dropped) {
      ++dropped_;
      if (pend.trace != obs::kNoTrace) {
        tracer_->async_step(pend.trace, "net.drop", "fault", pv, {});
      }
      pend.attempt += 1;  // exponential backoff grows
      channel_->track(pend, pass);
    } else {
      // Retransmissions are point-to-point recovery sends: they skip the
      // delay model; duplicates only cost traffic.
      if (fate.duplicated) {
        meter_.record_resend(PagerankUpdate::kWireBytes);
        ++duplicated_;
      }
      const bool applied = apply_update(e, pend.value, pend.seq, /*now=*/true);
      trace_terminal(pend.trace, applied, pv);
    }
  }
  stats.retransmissions += channel_->retransmissions() - before;
  // Records whose retry budget ran out during re-track above reached the
  // gave_up terminal outcome: account the loss now, not at quiescence.
  drain_gave_up();
}

void DistributedPagerank::build_effective(std::vector<double>& out) const {
  // Effective value per edge: the applied cell (permuted back from its
  // in-CSR position to the out-edge id the ledger is keyed by), or the
  // parked outbox value for edges still waiting on an offline
  // destination.
  const EdgeId m = graph_.num_edges();
  out.resize(m);
  for (EdgeId e = 0; e < m; ++e) out[e] = contrib_[graph_.out_to_in_edge(e)];
  for (const auto& entries : deferred_by_peer_) {
    for (const auto& [e, src] : entries) {
      out[e] = pending_value_[e];
    }
  }
}

bool DistributedPagerank::audit_and_repair(const std::vector<bool>& presence,
                                           PassStats& stats) {
  build_effective(effective_scratch_);
  const MassAuditReport report =
      auditor_->audit(effective_scratch_, kAuditSlack);
  if (report.conserved(audit_tolerance_)) {
    last_audit_ = report;
    return true;
  }
  // Proportional re-injection: re-send exactly the contributions the
  // ledger says went missing, then keep iterating.
  ++repair_rounds_;
  for (const EdgeId e :
       auditor_->leaking_edges(effective_scratch_, kAuditSlack)) {
    const NodeId v = graph_.out_target(e);
    const PeerId pv = placement_.peer_of(v);
    const PeerId pu = placement_.peer_of(edge_src_[e]);
    const double value = auditor_->expected(e);
    const std::uint32_t seq =
        channel_ != nullptr ? channel_->next_seq(e) : 0;
    if (presence[pv] && reachable(pu, pv)) {
      (void)apply_update(e, value, seq, /*now=*/false);
      meter_.record_resend(PagerankUpdate::kWireBytes);
      ++repair_messages_;
      ++stats.repair_messages;
    } else {
      park(e, pu, pv, value, seq, obs::kNoTrace, stats);
    }
  }
  return false;
}

bool DistributedPagerank::has_attachments() const {
  return plan_ != nullptr || tracer_ != nullptr || replicas_ != nullptr ||
         ring_ != nullptr || membership_ != nullptr || audit_enabled_;
}

void DistributedPagerank::prepare_pipeline(bool churn) {
  // Fault plans, tracers, overlays, replicas, membership and the audit
  // consume per-send state (RNG draws, cache warms, trace events, stale
  // owners, ledger losses), and the residual schedule folds per-update
  // deltas: all of them take the full delivery. Plain fifo runs keep the
  // inline cell writes and bulk billing.
  if (has_attachments() || residual_mode_) {
    delivery_ = Delivery::kFull;
  } else {
    delivery_ = churn ? Delivery::kParkable : Delivery::kDirect;
  }
  const std::uint32_t threads = std::max<std::uint32_t>(1, options_.threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
  // Flat scratch sized once here, so no pass ever grows an allocation.
  const NodeId n = graph_.num_nodes();
  const PeerId num_peers = placement_.num_peers();
  docs_.resize(n);
  acc_.resize(n);
  senders_.resize(n);
  peer_cursor_.assign(num_peers, 0);
  segments_.reserve(num_peers);
  dst_count32_.assign(num_peers, 0);
  touched_dsts_.reserve(num_peers);
  simd_level_ = simd::active_level();
}

void DistributedPagerank::run_pass(const std::vector<bool>& presence,
                                   std::uint64_t pass, PassStats& stats,
                                   obs::Histogram* batch_hist) {
  group_dirty();
  if (pool_ != nullptr) {
    pool_->run(static_cast<unsigned>(segments_.size()),
               [&](unsigned shard, unsigned) {
                 recompute_segment(segments_[shard], presence);
               });
  } else {
    for (Segment& s : segments_) recompute_segment(s, presence);
  }
  // Merge in peer order. Documents on absent peers, residual deferrals
  // and held emissions keep their dirty flags and are queued for the
  // next pass.
  for (const Segment& s : segments_) {
    if (!presence[s.peer]) {
      next_dirty_.insert(next_dirty_.end(), docs_.data() + s.begin,
                         docs_.data() + s.end);
      continue;
    }
    stats.docs_recomputed += s.recomputed;
    stats.max_rel_change = std::max(stats.max_rel_change, s.max_rel);
    stats.docs_deferred += s.deferred;
    next_dirty_.insert(next_dirty_.end(), senders_.data() + s.end - s.kept,
                       senders_.data() + s.end);
  }
  prev_max_rel_ = stats.max_rel_change;
  switch (delivery_) {
    case Delivery::kDirect:
      emit<Delivery::kDirect>(presence, pass, stats, batch_hist);
      break;
    case Delivery::kParkable:
      emit<Delivery::kParkable>(presence, pass, stats, batch_hist);
      break;
    case Delivery::kFull:
      emit<Delivery::kFull>(presence, pass, stats, batch_hist);
      break;
  }
}

void DistributedPagerank::group_dirty() {
  // Count per peer, carve segments in ascending peer order, then a
  // stable scatter; peer_cursor_ is zero again on return.
  segments_.clear();
  for (const NodeId v : dirty_) {
    const PeerId p = placement_.peer_of(v);
    if (peer_cursor_[p]++ == 0) segments_.push_back({.peer = p});
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.peer < b.peer; });
  std::uint64_t off = 0;
  for (Segment& s : segments_) {
    s.begin = off;
    off += peer_cursor_[s.peer];
    s.end = off;
    peer_cursor_[s.peer] = s.begin;
  }
  for (const NodeId v : dirty_) {
    docs_[peer_cursor_[placement_.peer_of(v)]++] = v;
  }
  for (const Segment& s : segments_) peer_cursor_[s.peer] = 0;
}

void DistributedPagerank::recompute_segment(Segment& s,
                                            const std::vector<bool>& presence) {
  if (!presence[s.peer]) return;  // docs stay dirty; requeued by the merge
  NodeId* const docs = docs_.data() + s.begin;
  std::uint64_t n = s.end - s.begin;
  const double d = options_.damping;
  if (residual_mode_) {
    // Step 2: highest accumulated |Δcontribution| first (ties by id), so
    // one recompute coalesces every update behind the largest pending
    // mass. While the iteration is still far from converging, the
    // low-residual tail is deferred; once the last pass was within
    // epsilon the endgame runs exhaustively, exactly like fifo.
    std::sort(docs, docs + n, [this](NodeId a, NodeId b) {
      const double ra = residual_[a];
      const double rb = residual_[b];
      return ra != rb ? ra > rb : a < b;
    });
    if (prev_max_rel_ > options_.epsilon) {
      const double cutoff = kResidualDeferRatio * prev_max_rel_;
      std::uint64_t selected = 1;  // every peer processes its top document
      for (std::uint64_t i = 1; i < n; ++i) {
        const NodeId v = docs[i];
        // The damped residual bounds this document's possible rank
        // change; relative to its current rank it is the analogue of the
        // epsilon test. The age cap forces periodic progress, so
        // deferral cannot starve anyone.
        const double denom = ranks_[v] > 0 ? ranks_[v] : -ranks_[v];
        const double relres =
            denom > 0 ? d * residual_[v] / denom : d * residual_[v];
        if (defer_age_[v] < options_.residual_max_defer && relres < cutoff) {
          ++defer_age_[v];
          senders_[s.end - ++s.kept] = v;  // in_dirty_ stays set
        } else {
          docs[selected++] = v;
        }
      }
      s.deferred = s.kept;
      n = selected;
    }
  }

  // Step 3: the fold kernel (common/simd.hpp) writes each document's cell
  // sum — one document per lane, each in exact left-to-right scalar
  // order, so the sums are bit-identical at every SIMD level. The
  // epilogue then walks the segment in order: rank writes, the max fold
  // and sender selection.
  double* const acc = acc_.data() + s.begin;
  simd::fold_cells(simd_level_, contrib_.data(), graph_.in_offsets_data(),
                   docs, n, acc);
  const double base = 1.0 - d;
  const double eps = options_.epsilon;
  const float* const inv_deg = graph_.inv_out_degrees().data();
  const bool track_replica_values = !replica_value_.empty();
  double max_rel = 0.0;
  std::uint64_t senders = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const NodeId v = docs[i];
    in_dirty_[v] = 0;
    const double newrank = base + d * acc[i];
    const double rel = relative_change(ranks_[v], newrank);
    ranks_[v] = newrank;
    if (rel > max_rel) max_rel = rel;
    if (track_replica_values) {
      // A live replica mirrors the recomputation (§2.3: replicas
      // receive the same updates) — the copy crash recovery restores.
      for (const PeerId rp : replicas_->replicas_of(v)) {
        if (presence[rp]) {
          replica_value_[v] = newrank;
          break;
        }
      }
    }
    // inv_out_degree(v) != 0 is exactly out_degree(v) != 0 (the stored
    // inverse is 0 only for degree 0), one 4-byte load.
    const bool has_out_links = inv_deg[v] != 0.0f;
    if (!residual_mode_) {
      if (rel > eps && has_out_links) senders_[s.begin + senders++] = v;
      continue;
    }
    residual_[v] = 0.0;
    defer_age_[v] = 0;
    if (!has_out_links) continue;
    // Emission gate against the value the out-links actually hold (the
    // last emission), not last pass's rank — a deferred document's
    // coalesced change is judged in full.
    const double rel_sent = relative_change(last_sent_[v], newrank);
    if (rel_sent > eff_epsilon_) {
      senders_[s.begin + senders++] = v;
      last_sent_[v] = newrank;
    } else if (rel_sent > eps) {
      // Cleared epsilon but not this pass's adaptive threshold: hold the
      // emission (stay dirty) instead of dropping it — it goes out once
      // the schedule tightens.
      in_dirty_[v] = 1;
      senders_[s.end - ++s.kept] = v;
    }
  }
  s.recomputed = n;
  s.senders = senders;
  s.max_rel = max_rel;
}

template <DistributedPagerank::Delivery kMode>
void DistributedPagerank::emit(const std::vector<bool>& presence,
                               std::uint64_t pass, PassStats& stats,
                               obs::Histogram* batch_hist) {
  // Peers ascending, each peer's senders in recompute order, each
  // sender's out-links in edge order: the canonical order fault-plan RNG
  // draws, IP cache warms and trace events consume. An update that
  // reaches its destination this pass is local (same peer) or one wire
  // message; wire messages are also tallied per destination peer when
  // the batch-size histogram is recorded.
  std::uint64_t delivered_total = 0;
  std::uint64_t hops_total = 0;  // full delivery: overlay hops vary per send
  std::uint64_t local_total = 0;
  // Size-1 batches dominate incremental passes; each histogram record
  // is several atomic RMWs, so they are counted here and recorded once.
  // record_count(1.0, k) is bit-identical to k separate record(1.0)
  // calls: the values are small integers (sums stay exact) and
  // bucket/min/max updates commute.
  std::uint64_t ones = 0;
  // Narrow (32-bit) cross index when the graph carries one — half the
  // index bytes through the hottest random-access loop.
  const std::uint32_t* const cross32 = graph_.out_to_in32_data();
  MassAuditor* const auditor = auditor_.get();
  const bool fan_out = replicas_ != nullptr && !replicas_->empty();
  for (const Segment& s : segments_) {
    const PeerId p = s.peer;
    std::uint64_t wire = 0;  // this peer's wire messages
    const auto count_wire = [&](PeerId dst) {
      ++wire;
      if (batch_hist != nullptr && dst_count32_[dst]++ == 0) {
        touched_dsts_.push_back(dst);
      }
    };
    for (std::uint64_t i = s.begin; i < s.begin + s.senders; ++i) {
      const NodeId u = senders_[i];
      const double c = ranks_[u] / static_cast<double>(graph_.out_degree(u));
      const EdgeId out_end = graph_.out_edge_end(u);
      for (EdgeId e = graph_.out_edge_begin(u); e < out_end; ++e) {
        const NodeId v = graph_.out_target(e);
        const PeerId pv = placement_.peer_of(v);
        if (auditor != nullptr) auditor->on_emit(e, c);
        if constexpr (kMode != Delivery::kFull) {
          if (kMode == Delivery::kDirect || presence[pv]) {
            contrib_[cross32 != nullptr ? static_cast<EdgeId>(cross32[e])
                                        : graph_.out_to_in_edge(e)] = c;
            mark_dirty(v);
            if (pv == p) {
              ++local_total;
            } else {
              count_wire(pv);
            }
          } else {
            park(e, p, pv, c, 0, obs::kNoTrace, stats);
          }
        } else {
          bool replica_eligible = true;
          if (pv == p) {
            // Fig. 1b: a same-peer update needs no network message.
            const EdgeId cell = graph_.out_to_in_edge(e);
            if (residual_mode_) residual_[v] += std::abs(c - contrib_[cell]);
            contrib_[cell] = c;
            mark_dirty(v);
            ++local_total;
          } else if (presence[pv] && reachable(p, pv)) {
            const std::uint32_t seq =
                channel_ != nullptr ? channel_->next_seq(e) : 0;
            SendFate fate;
            if (plan_ != nullptr) fate = plan_->fate_for_send();
            // The sender pays for the message whatever its fate.
            const std::uint64_t hops = send_hops(p, pv, v);
            hops_total += hops;
            count_wire(pv);
            const obs::TraceId tid =
                tracer_ != nullptr ? trace_send(e, p, pv, v, c, pass, hops)
                                   : obs::kNoTrace;
            if (fate.dropped) {
              ++dropped_;
              if (tid != obs::kNoTrace) {
                tracer_->async_step(tid, "net.drop", "fault", pv, {});
              }
              if (channel_ != nullptr) {
                // Unacked: schedule the retransmission.
                channel_->track({e, pv, p, c, seq, 0, tid}, pass);
              } else {
                if (auditor != nullptr) auditor->on_known_loss(c);
                if (tid != obs::kNoTrace) {
                  tracer_->async_end(tid, "update.lost", "fault", pv, {});
                }
              }
              replica_eligible = false;  // lost before the fan-out point
            } else {
              if (fate.delay_passes > 0) {
                delayed_[pass + 1 + fate.delay_passes].push_back(
                    {e, p, c, seq, tid});
                ++delayed_total_;
                if (tid != obs::kNoTrace) {
                  tracer_->async_step(
                      tid, "net.delay", "fault", pv,
                      {{"passes", static_cast<double>(fate.delay_passes)}});
                }
              } else {
                const bool applied = apply_update(e, c, seq, /*now=*/false);
                trace_terminal(tid, applied, pv);
              }
              if (fate.duplicated) {
                // Idempotent overwrite: the duplicate only costs traffic.
                ++bill_.messages;
                ++bill_.hops;
                ++stats.messages_sent;
                ++duplicated_;
                if (tracer_ != nullptr) {
                  tracer_->instant("net.duplicate", "fault", pv, {});
                }
                if (channel_ != nullptr && fate.delay_passes == 0) {
                  (void)channel_->accept(e, seq);  // suppressed by seq
                }
              }
            }
          } else {
            if (plan_ != nullptr && presence[pv]) ++partition_deferrals_;
            if (membership_ != nullptr && membership_->undetected_crash(pv)) {
              // The sender does not know the owner is gone yet: the query
              // goes out to the stale owner and parks until the verdict.
              ++stale_owner_queries_;
              ++stats.stale_owner_queries;
            }
            const std::uint32_t seq =
                channel_ != nullptr ? channel_->next_seq(e) : 0;
            const obs::TraceId tid =
                tracer_ != nullptr ? trace_send(e, p, pv, v, c, pass, 1)
                                   : obs::kNoTrace;
            park(e, p, pv, c, seq, tid, stats);
          }
          if (replica_eligible && fan_out && presence[pv]) {
            send_to_replicas(p, v, presence, stats);
          }
        }
      }
    }
    // This source peer's batches, one per destination peer.
    for (const PeerId dst : touched_dsts_) {
      const std::uint32_t k = dst_count32_[dst];
      dst_count32_[dst] = 0;
      if (k == 1) {
        ++ones;
      } else {
        batch_hist->record(static_cast<double>(k));
      }
    }
    touched_dsts_.clear();
    delivered_total += wire;
    stats.messages_sent += wire;
    stats.max_peer_messages = std::max(stats.max_peer_messages, wire);
  }
  if (ones != 0) batch_hist->record_count(1.0, ones);
  // Only full delivery routes over an overlay; every other wire message
  // is one direct hop.
  bill_.messages += delivered_total;
  bill_.hops += kMode == Delivery::kFull ? hops_total : delivered_total;
  bill_.local += local_total;
  stats.local_updates += local_total;
}

void DistributedPagerank::deliver_deferred(const std::vector<bool>& presence,
                                           PassStats& stats) {
  const bool selective = plan_ != nullptr && plan_->partition_active();
  for (PeerId p = 0; p < deferred_by_peer_.size(); ++p) {
    auto& entries = deferred_by_peer_[p];
    if (!presence[p] || entries.empty()) continue;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto [e, src_peer] = entries[i];
      if (selective && !plan_->reachable(src_peer, p)) {
        entries[kept++] = entries[i];  // still cut off: stays parked
        continue;
      }
      const std::uint32_t seq =
          channel_ != nullptr ? pending_seq_[e] : 0;
      obs::TraceId t = obs::kNoTrace;
      if (tracer_ != nullptr) {
        t = pending_trace_[e];
        pending_trace_[e] = obs::kNoTrace;
      }
      pending_[e] = false;
      --total_pending_;
      const bool applied = apply_update(e, pending_value_[e], seq, /*now=*/true);
      const NodeId v = graph_.out_target(e);
      ++bill_.messages;
      bill_.hops += send_hops(src_peer, p, v);
      ++stats.messages_delivered_late;
      if (t != obs::kNoTrace) {
        tracer_->async_step(t, "outbox.deliver", "net", p, {});
        trace_terminal(t, applied, p);
      }
      if (replicas_ != nullptr && !replicas_->empty()) {
        send_to_replicas(src_peer, v, presence, stats);
      }
    }
    entries.resize(kept);
  }
}

std::uint64_t DistributedPagerank::memory_bytes() const {
  const auto bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) *
           sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(ranks_) + bytes(contrib_) + bytes(pending_value_) +
         bytes(pending_) + bytes(pending_seq_) + bytes(in_dirty_) +
         bytes(dirty_) + bytes(next_dirty_) + bytes(docs_) + bytes(acc_) +
         bytes(senders_) + bytes(peer_cursor_) + bytes(segments_) +
         bytes(dst_count32_) + bytes(touched_dsts_) + bytes(residual_) +
         bytes(last_sent_) + bytes(defer_age_) + bytes(edge_src_) +
         bytes(replica_value_) + bytes(effective_scratch_) +
         bytes(pending_trace_) +
         (auditor_ != nullptr ? auditor_->memory_bytes() : 0) +
         (channel_ != nullptr ? channel_->memory_bytes() : 0);
}

void DistributedPagerank::validate_state() const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "pagerank";
  const NodeId n = graph_.num_nodes();
  const EdgeId m = graph_.num_edges();
  DPRANK_INVARIANT(ranks_.size() == n, kSub,
                   "rank array does not cover the documents");
  DPRANK_INVARIANT(contrib_.size() == m, kSub,
                   "contribution store does not cover the edges");
  DPRANK_INVARIANT(pending_.size() == m && pending_value_.size() == m, kSub,
                   "outbox arrays do not cover the edges");
  DPRANK_INVARIANT(pending_seq_.empty() || pending_seq_.size() == m, kSub,
                   "parked-sequence array does not cover the edges");

  // Dirty-set integrity: the recompute queues and the membership flags
  // must agree exactly — a document queued twice would be recomputed
  // twice in one pass, and a flagged-but-unqueued document would never
  // be recomputed again. This is the precondition group_dirty() relies
  // on for its deterministic peer segments.
  std::vector<std::uint8_t> queued(n, 0);
  const auto check_queue = [&](const std::vector<NodeId>& q) {
    for (const NodeId v : q) {
      DPRANK_INVARIANT(v < n, kSub, "dirty queue holds an unknown document");
      DPRANK_INVARIANT(queued[v] == 0, kSub,
                       "document " + std::to_string(v) +
                           " queued for recompute twice");
      queued[v] = 1;
      DPRANK_INVARIANT(in_dirty_[v] != 0, kSub,
                       "document " + std::to_string(v) +
                           " queued for recompute but not flagged dirty");
    }
  };
  check_queue(dirty_);
  check_queue(next_dirty_);
  std::size_t flagged = 0;
  for (NodeId v = 0; v < n; ++v) flagged += in_dirty_[v] != 0 ? 1 : 0;
  DPRANK_INVARIANT(
      flagged == dirty_.size() + next_dirty_.size(), kSub,
      "dirty flags (" + std::to_string(flagged) +
          ") disagree with the recompute queues (" +
          std::to_string(dirty_.size() + next_dirty_.size()) +
          ") — flagged-but-unqueued documents lose updates");

  // Parked-update bookkeeping: pending flags, the per-destination deferred
  // lists and the counters are three views of one set of parked edges.
  std::vector<std::uint8_t> parked(m, 0);
  std::uint64_t parked_entries = 0;
  for (PeerId dest = 0; dest < deferred_by_peer_.size(); ++dest) {
    for (const auto& [e, src] : deferred_by_peer_[dest]) {
      DPRANK_INVARIANT(e < m, kSub, "parked entry holds an unknown edge");
      DPRANK_INVARIANT(parked[e] == 0, kSub,
                       "edge " + std::to_string(e) +
                           " parked in two deferred lists");
      parked[e] = 1;
      DPRANK_INVARIANT(pending_[e] != 0, kSub,
                       "edge " + std::to_string(e) +
                           " parked but not flagged pending");
      DPRANK_INVARIANT(
          placement_.peer_of(graph_.out_target(e)) == dest, kSub,
          "edge " + std::to_string(e) +
              " filed under a peer that does not own its target");
      DPRANK_INVARIANT(src < placement_.num_peers(), kSub,
                       "parked entry names an unknown sender peer");
      ++parked_entries;
    }
  }
  std::uint64_t flagged_edges = 0;
  for (EdgeId e = 0; e < m; ++e) flagged_edges += pending_[e] != 0 ? 1 : 0;
  DPRANK_INVARIANT(flagged_edges == parked_entries, kSub,
                   "outbox credit leak: " + std::to_string(flagged_edges) +
                       " edges flagged pending vs " +
                       std::to_string(parked_entries) +
                       " parked in deferred lists");
  DPRANK_INVARIANT(total_pending_ == parked_entries, kSub,
                   "outbox credit leak: pending count " +
                       std::to_string(total_pending_) + " vs " +
                       std::to_string(parked_entries) + " parked entries");
  DPRANK_INVARIANT(outbox_peak_ >= total_pending_, kSub,
                   "outbox peak understates the live pending count");

  // Residual-scheduler state: arrays cover the documents, residual mass
  // is non-negative, the defer age never escapes its cap, and any
  // document holding undigested residual is queued for a recompute (a
  // positive residual with no dirty flag would be an update the
  // scheduler lost).
  if (residual_mode_) {
    DPRANK_INVARIANT(residual_.size() == n && last_sent_.size() == n &&
                         defer_age_.size() == n,
                     kSub,
                     "residual-scheduler arrays do not cover the documents");
    for (NodeId v = 0; v < n; ++v) {
      DPRANK_INVARIANT(residual_[v] >= 0.0, kSub,
                       "negative residual at document " + std::to_string(v));
      DPRANK_INVARIANT(defer_age_[v] <= options_.residual_max_defer, kSub,
                       "defer age exceeds residual_max_defer at document " +
                           std::to_string(v));
      DPRANK_INVARIANT(!(residual_[v] > 0.0) || in_dirty_[v] != 0, kSub,
                       "document " + std::to_string(v) +
                           " holds residual mass but is not marked dirty");
    }
  }

  // Delivery-delay buffer accounting.
  std::uint64_t delayed_msgs = 0;
  for (const auto& [due, msgs] : delayed_) delayed_msgs += msgs.size();
  DPRANK_INVARIANT(delayed_msgs == delayed_total_, kSub,
                   "delay-buffer count disagrees with buffered messages");

  // Cascade into the attached subsystems: each reports under its own
  // subsystem tag, so a failure names the layer that broke.
  if (channel_ != nullptr) channel_->validate();
  graph_.validate();
  if (ring_ != nullptr) ring_->validate(/*route_samples=*/16);

  // Rank-mass conservation identity (§2.3): on fault-free runs every
  // emitted contribution is applied or parked, nothing else — the ledger
  // balances exactly. Under a fault plan or dynamic membership transient
  // leaks are expected (crash wipes, unacked drops, dropped_dead
  // evictions) until audit_and_repair re-injects them, so the identity
  // only holds at quiescence and is checked there by the audit machinery
  // instead.
  if (auditor_ != nullptr && plan_ == nullptr && membership_ == nullptr) {
    // Audit-only local (cold validation path).
    // dprank-analyze: allow(unaligned-hot-buffer) -- never gathered
    std::vector<double> effective;
    build_effective(effective);
    const MassAuditReport report = auditor_->audit(effective, kAuditSlack);
    DPRANK_INVARIANT(report.conserved(audit_tolerance_), kSub,
                     "rank mass leaked on a fault-free run: ratio " +
                         std::to_string(report.mass_ratio) + " across " +
                         std::to_string(report.leaking_edges) + " edge(s)");
  }
}

DistributedRunResult DistributedPagerank::run(ChurnSchedule* churn,
                                              const PassObserver& observer) {
  if (ran_) throw std::logic_error("DistributedPagerank::run: already ran");
  ran_ = true;
  if (churn != nullptr && churn->num_peers() != placement_.num_peers()) {
    throw std::invalid_argument("DistributedPagerank::run: churn peer count");
  }
  if (membership_ != nullptr && churn != nullptr) {
    throw std::invalid_argument(
        "DistributedPagerank::run: dynamic membership and a churn schedule "
        "both own the presence mask; attach one or the other");
  }
  if (membership_ != nullptr && plan_ != nullptr &&
      (!plan_->config().crashes.empty() ||
       plan_->config().crash_probability > 0.0)) {
    throw std::invalid_argument(
        "DistributedPagerank::run: fault-plan crashes are temporary "
        "(downtime + recovery) and index a static ownership map; with "
        "dynamic membership, schedule crashes as membership events");
  }
  prepare_fault_state();
  prepare_pipeline(churn != nullptr);

  const PeerId num_peers = placement_.num_peers();
  const std::vector<bool> all_present(num_peers, true);
  obs::Histogram* pass_wall =
      metrics_ != nullptr ? &metrics_->histogram("pagerank.pass_wall_us")
                          : nullptr;
  obs::Histogram* batch_hist =
      metrics_ != nullptr && !has_attachments()
          ? &metrics_->histogram("pagerank.batch_size")
          : nullptr;

  DistributedRunResult result;
  for (std::uint64_t pass = 0; pass < options_.max_passes; ++pass) {
    // Telemetry measures the simulator itself (real wall time per pass),
    // never feeds the simulation.
    // dprank-analyze: allow(nondet-source) -- measures the harness only
    const auto wall_start = std::chrono::steady_clock::now();
    PassStats stats;
    stats.pass = pass;
    const std::vector<bool>* presence =
        churn != nullptr ? &churn->presence_for_pass(pass) : &all_present;

    if (membership_ != nullptr) {
      // Membership pass hook: scheduled events strike, heartbeats feed
      // the detector, the ring stabilizes, ownership moves — then the
      // engine moves/wipes/rebuilds the corresponding state. The
      // coordinator's mask is the pass's base presence (a fault plan's
      // temporary effects compose on top below).
      apply_membership(membership_->begin_pass(pass), pass, stats);
      presence = &membership_->presence();
      if (contracts::enabled()) membership_->validate();
    }

    if (plan_ != nullptr) {
      // Fault-plan pass hook: partitions advance, crashes strike.
      const std::vector<PeerId> crashing = plan_->begin_pass(pass, num_peers);
      for (const PeerId p : crashing) crash_peer(p, pass);
      stats.crashes = crashing.size();
      presence_eff_ = *presence;
      for (PeerId p = 0; p < num_peers; ++p) {
        if (crashed_until_[p] > pass) presence_eff_[p] = false;
      }
      presence = &presence_eff_;
      // Crashed peers whose downtime ended and whom churn brought back
      // run recovery before any delivery touches them.
      for (PeerId p = 0; p < num_peers; ++p) {
        if (needs_recovery_[p] && presence_eff_[p]) {
          recover_peer(p, presence_eff_, stats);
        }
      }
      deliver_delayed(pass, *presence, stats);
      process_retries(pass, *presence, stats);
    }

    // Phase 0: outbox drains for peers that are present this pass.
    if (total_pending_ != 0) deliver_deferred(*presence, stats);

    // Phases 1-4, one pipeline (see the header comment): recompute the
    // documents that received updates — those on absent peers stay dirty
    // until their peer returns — and emit the senders' contributions,
    // visible next pass (or parked in the outbox for absent peers).
    if (residual_mode_) {
      // This pass's emission threshold: epsilon, or — under the adaptive
      // schedule — loosened while last pass's max relative change was
      // still large, tightening back to epsilon as the run settles.
      eff_epsilon_ =
          options_.adaptive_epsilon
              ? std::max(options_.epsilon, std::min(0.05, prev_max_rel_ / 8.0))
              : options_.epsilon;
    }
    run_pass(*presence, pass, stats, batch_hist);
    bill_pass();

    // Quiescence: nothing to recompute, nothing parked, nothing in
    // flight, nobody awaiting recovery — then, if auditing, the mass
    // ledger must balance (leaks are re-injected and the loop resumes).
    bool quiescent = next_dirty_.empty() && total_pending_ == 0;
    if (plan_ != nullptr && quiescent) {
      quiescent = delayed_total_ == 0 &&
                  (channel_ == nullptr || channel_->idle());
      if (quiescent) {
        for (PeerId p = 0; p < num_peers; ++p) {
          if (needs_recovery_[p]) {
            quiescent = false;
            break;
          }
        }
      }
    }
    if (membership_ != nullptr && quiescent) {
      // Convergence is meaningless while events remain scheduled or a
      // crash is still undeclared (its range is frozen, its updates are
      // parked): the run idles forward until membership settles.
      quiescent = membership_->quiescent();
    }
    if (quiescent && audit_enabled_) {
      quiescent = audit_and_repair(*presence, stats);
    }

    if (tracer_ != nullptr) {
      // One span per pass on the engine track (pid 0); the clock decides
      // how much simulated time the pass consumed.
      const double dur_us = pass_clock_ ? pass_clock_(stats) : 1.0;
      tracer_->complete(
          "pass", "engine", 0, dur_us,
          {{"pass", static_cast<double>(pass)},
           {"recomputed", static_cast<double>(stats.docs_recomputed)},
           {"sent", static_cast<double>(stats.messages_sent)},
           {"residual", stats.max_rel_change}});
      tracer_->advance_time(tracer_->now_us() + dur_us);
    }

    if (pass_wall != nullptr) {
      pass_wall->record(std::chrono::duration<double, std::micro>(
                            // Same telemetry read as wall_start.
                            // dprank-analyze: allow(nondet-source) -- ditto
                            std::chrono::steady_clock::now() - wall_start)
                            .count());
    }

    history_.push_back(stats);
    result.passes = pass + 1;
    if (observer) observer(pass, ranks_);

    dirty_.swap(next_dirty_);
    next_dirty_.clear();
    if (options_.validate_every_n_passes != 0 &&
        (pass + 1) % options_.validate_every_n_passes == 0) {
      validate_state();
    }
    if (quiescent) {
      result.converged = true;
      break;
    }
  }
  // Terminal sweep: whatever cadence was chosen, the final state is
  // always checked (convergence or pass-budget exhaustion alike).
  if (options_.validate_every_n_passes != 0) validate_state();
  if (audit_enabled_) {
    if (!result.converged) {
      // Ran out of passes: report the leak as it stands.
      build_effective(effective_scratch_);
      last_audit_ = auditor_->audit(effective_scratch_, kAuditSlack);
    }
    result.mass_ratio = last_audit_.mass_ratio;
  }
  result.repair_rounds = repair_rounds_;
  if (metrics_ != nullptr) flush_metrics(result);
  return result;
}

void DistributedPagerank::flush_metrics(const DistributedRunResult& result) {
  obs::MetricsRegistry& reg = *metrics_;
  meter_.flush_to(reg);
  reg.counter("pagerank.runs").add(1);
  reg.counter("pagerank.passes").add(result.passes);
  if (result.converged) reg.counter("pagerank.converged_runs").add(1);
  reg.counter("pagerank.dropped").add(dropped_);
  reg.counter("pagerank.duplicated").add(duplicated_);
  reg.counter("pagerank.crashes").add(crashes_seen_);
  reg.counter("pagerank.recovered_docs").add(recovered_docs_);
  reg.counter("pagerank.retransmissions").add(retransmissions());
  reg.counter("pagerank.repair_messages").add(repair_messages_);
  reg.counter("pagerank.replica_messages").add(replica_messages_);
  reg.gauge("pagerank.mass_ratio").set(result.mass_ratio);
  reg.gauge("pagerank.outbox_peak").set(static_cast<double>(outbox_peak_));
  reg.gauge("pagerank.threads")
      .set(static_cast<double>(std::max<std::uint32_t>(1, options_.threads)));
  // Memory footprint (scale bench, §DESIGN.md 14): graph CSR arrays,
  // the engine's per-document/per-edge arrays, and the OS-accounted
  // process peak — observability only, read after the run.
  reg.gauge("mem.graph_bytes")
      .set(static_cast<double>(graph_.memory_bytes()));
  reg.gauge("mem.engine_bytes").set(static_cast<double>(memory_bytes()));
  reg.gauge("mem.peak_rss_bytes")
      .set(static_cast<double>(obs::peak_rss_bytes()));

  // Per-pass telemetry, entry for entry with pass_history(): the residual
  // series is the convergence timeline Fig. 2-style plots read.
  obs::Series& residual = reg.series("pagerank.residual");
  obs::Series& recomputed = reg.series("pagerank.docs_recomputed");
  obs::Series& sent = reg.series("pagerank.messages_sent");
  obs::Histogram& pass_msgs = reg.histogram("pagerank.pass.messages");
  bool any_fault_event = false;
  for (const PassStats& p : history_) {
    const double x = static_cast<double>(p.pass);
    residual.append(x, p.max_rel_change);
    recomputed.append(x, static_cast<double>(p.docs_recomputed));
    sent.append(x, static_cast<double>(p.messages_sent));
    pass_msgs.record(static_cast<double>(p.messages_sent));
    if (p.crashes != 0 || p.recovered_docs != 0) any_fault_event = true;
  }
  if (residual_mode_) {
    // Scheduler telemetry: how much recompute work the residual order
    // pushed to later passes (always absent under Schedule::kFifo, so
    // fifo exports are unchanged byte for byte).
    std::uint64_t total_deferred = 0;
    obs::Series& deferred = reg.series("pagerank.deferred");
    for (const PassStats& p : history_) {
      total_deferred += p.docs_deferred;
      deferred.append(static_cast<double>(p.pass),
                      static_cast<double>(p.docs_deferred));
    }
    reg.counter("pagerank.docs_deferred").add(total_deferred);
  }
  if (membership_ != nullptr) {
    reg.counter("membership.events").add(membership_->events_applied());
    reg.counter("membership.handoff_docs").add(handoff_docs_);
    reg.counter("membership.stale_owner_queries").add(stale_owner_queries_);
    reg.counter("membership.outbox_dropped_dead").add(outbox_dropped_dead_);
    reg.counter("membership.gave_up").add(gave_up());
    reg.counter("membership.ring_repairs").add(membership_->ring().repairs());
    reg.counter("membership.emergency_rebootstraps")
        .add(membership_->ring().emergency_rebootstraps());
    reg.counter("membership.stabilize_rounds")
        .add(membership_->stabilize_rounds_total());
    reg.counter("membership.declared_dead")
        .add(membership_->detector().declared_dead());
    reg.counter("membership.false_suspicions")
        .add(membership_->detector().false_suspicions());
    reg.gauge("membership.live_peers")
        .set(static_cast<double>(membership_->live_peers()));
    // Crash -> verdict latency per death: recovery starts at the
    // verdict, so this histogram is the recovery-trigger latency the
    // chaos campaign reports.
    obs::Histogram& lat = reg.histogram("membership.detection_latency");
    for (const std::uint64_t l : membership_->detection_latencies()) {
      lat.record(static_cast<double>(l));
    }
    obs::Series& handoffs = reg.series("membership.handoffs");
    obs::Series& stale = reg.series("membership.stale_queries");
    for (const PassStats& p : history_) {
      if (p.handoff_docs != 0) {
        handoffs.append(static_cast<double>(p.pass),
                        static_cast<double>(p.handoff_docs));
      }
      if (p.stale_owner_queries != 0) {
        stale.append(static_cast<double>(p.pass),
                     static_cast<double>(p.stale_owner_queries));
      }
    }
  }
  if (any_fault_event) {
    obs::Series& crash_tl = reg.series("pagerank.crash_events");
    obs::Series& recovery_tl = reg.series("pagerank.recovery_events");
    for (const PassStats& p : history_) {
      if (p.crashes != 0) {
        crash_tl.append(static_cast<double>(p.pass),
                        static_cast<double>(p.crashes));
      }
      if (p.recovered_docs != 0) {
        recovery_tl.append(static_cast<double>(p.pass),
                           static_cast<double>(p.recovered_docs));
      }
    }
  }
}

}  // namespace dprank
