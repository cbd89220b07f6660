#include "pagerank/distributed_engine.hpp"

#include <algorithm>
#include <array>
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

/// values[perm[i]] = old values[i] for every i, in place, with two bits
/// of scratch per entry. A walker starts at a leader, reads its value,
/// then follows the permutation, leaving the value it carries at each
/// step and picking up the one it displaces; it stops on reaching a
/// leader, whose value that leader's own walker read first. Sixteen
/// walkers step in turn, so their cache misses overlap: one walker at a
/// time chains every load on the last and took six times as long at a
/// million documents.
void scatter_in_place(std::vector<double>& values,
                      const std::vector<NodeId>& perm) {
  const std::size_t n = values.size();
  std::vector<std::uint64_t> written((n + 63) / 64, 0);
  std::vector<std::uint64_t> leader((n + 63) / 64, 0);
  const auto test = [](const std::vector<std::uint64_t>& bits,
                       std::size_t i) {
    return (bits[i / 64] >> (i % 64) & 1U) != 0;
  };
  const auto set = [](std::vector<std::uint64_t>& bits, std::size_t i) {
    bits[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  constexpr std::size_t kWalkers = 16;
  std::array<std::size_t, kWalkers> at{};
  std::array<double, kWalkers> carry{};
  std::size_t next = 0;  // leaders are drawn in index order
  const auto start = [&](std::size_t w) {
    while (next < n && test(written, next)) ++next;
    if (next == n) return false;
    set(leader, next);
    at[w] = next;
    carry[w] = values[next++];
    return true;
  };
  std::size_t live = 0;
  while (live < kWalkers && start(live)) ++live;
  while (live != 0) {
    for (std::size_t w = 0; w < live;) {
      const std::size_t j = perm[at[w]];
      set(written, j);
      if (!test(leader, j)) {
        std::swap(carry[w], values[j]);
        at[w] = j;
      } else {
        values[j] = carry[w];
        if (!start(w)) {  // nothing left to lead: retire this walker
          --live;
          at[w] = at[live];
          carry[w] = carry[live];
          continue;
        }
      }
      ++w;
    }
  }
}

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
      ranks_(std::move(start_ranks)),
      residual_mode_(options.schedule == Schedule::kResidual) {
  if (placement.num_docs() != g.num_nodes()) {
    throw std::invalid_argument(
        "DistributedPagerank: placement does not cover the graph");
  }
  if (ranks_.size() != g.num_nodes()) {
    throw std::invalid_argument(
        "DistributedPagerank: start vector does not cover the graph");
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

void DistributedPagerank::mark_dirty(NodeId s) {
  if (!in_dirty_[s]) {
    in_dirty_[s] = true;
    next_dirty_.push_back(s);
  }
}

void DistributedPagerank::mark_dirty_now(NodeId s) {
  if (!in_dirty_[s]) {
    in_dirty_[s] = true;
    dirty_.push_back(s);
  }
}

void DistributedPagerank::send_to_replicas(PeerId src, NodeId v,
                                           PassStats& stats) {
  for (const PeerId rp : replicas_->replicas_of(v)) {
    if (rp == src) {
      ++bill_.local;
      ++stats.local_updates;
    } else if (present_[rp]) {
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

bool DistributedPagerank::apply_update(EdgeId e, EdgeTarget t, double value,
                                       std::uint32_t seq, bool now) {
  if (channel_ != nullptr && !channel_->accept(e, seq)) {
    return false;  // stale reordered value or duplicate: rejected
  }
  if (residual_mode_) residual_[t.slot] += std::abs(value - contrib_[t.cell]);
  contrib_[t.cell] = value;
  if (now) {
    mark_dirty_now(t.slot);
  } else {
    mark_dirty(t.slot);
  }
  if (channel_ != nullptr) channel_->ack(e, seq);
  return true;
}

DistributedPagerank::EdgeTarget DistributedPagerank::edge_target(
    EdgeId e) const {
  const NodeId v = graph_.out_target(e);
  const NodeId sv = doc_slot_[v];
  return {sv, cell_begin_[sv] + static_cast<std::uint32_t>(
                                    graph_.out_to_in_edge(e) -
                                    graph_.in_edge_begin(v))};
}

NodeId DistributedPagerank::edge_source(EdgeId e) const {
  // The last document whose out-edges begin at or before e.
  NodeId lo = 0;
  NodeId hi = graph_.num_nodes();
  while (hi - lo > 1) {
    const NodeId mid = lo + (hi - lo) / 2;
    if (graph_.out_edge_begin(mid) <= e) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void DistributedPagerank::prepare_fault_state() {
  if (plan_ != nullptr) {
    down_until_.assign(placement_.num_peers(), 0);
    if (plan_->config().acked_delivery) {
      channel_ = std::make_unique<ReliableChannel>(
          ReliableChannel::Config{plan_->config().ack_timeout_passes,
                                  plan_->config().retry_backoff_cap,
                                  plan_->config().retry_max_attempts},
          graph_.num_edges());
      pending_seq_.assign(graph_.num_edges(), 0);
    }
  }
  // Periodic validation re-uses the mass ledger for the fault-free
  // conservation identity — only worth feeding when contracts are
  // compiled in (validate_state() is a no-op otherwise).
  const bool audit_for_validation =
      options_.validate_every_n_passes != 0 && contracts::enabled();
  if (plan_ != nullptr || membership_ != nullptr || audit_enabled_ ||
      audit_for_validation) {
    // ranks_ still holds the start vector in document order.
    auditor_ = std::make_unique<MassAuditor>(graph_, ranks_);
  }
}

void DistributedPagerank::crash_peer(PeerId p, std::uint64_t pass,
                                     PassStats& stats) {
  ++crashes_seen_;
  ++stats.crashes;
  const std::uint32_t downtime =
      std::max<std::uint32_t>(1, plan_->config().crash_downtime_passes);
  down_until_[p] = pass + downtime;
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
    const auto edges = graph_.in_to_out_edge(v);
    const std::uint32_t base = cell_begin_[doc_slot_[v]];
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!pending_[edges[i]] && auditor_ != nullptr) {
        auditor_->on_known_loss(contrib_[base + i]);
      }
      contrib_[base + i] = 0.0;
    }
  }
}

void DistributedPagerank::recover_peer(PeerId p, PassStats& stats) {
  down_until_[p] = 0;
  if (tracer_ != nullptr) tracer_->instant("peer.recover", "fault", p, {});
  rebuild_docs(docs_of(p), stats);
}

void DistributedPagerank::rebuild_docs(const std::vector<NodeId>& docs,
                                       PassStats& stats) {
  // Step 1: restore document ranks — from a live replica copy where one
  // exists (one fetch message per document), from the initial value
  // otherwise.
  for (const NodeId v : docs) {
    const NodeId s = doc_slot_[v];
    const PeerId owner = placement_.peer_of(v);
    bool restored = false;
    if (!replica_value_.empty()) {
      for (const PeerId rp : replicas_->replicas_of(v)) {
        if (present_[rp] && reachable(rp, owner)) {
          ranks_[s] = replica_value_[s];
          meter_.record_message(PagerankUpdate::kWireBytes);
          ++replica_restores_;
          ++recovery_messages_;
          restored = true;
          break;
        }
      }
    }
    if (!restored) ranks_[s] = options_.initial_rank;
    ++recovered_docs_;
    ++stats.recovered_docs;
  }
  // Step 2: rebuild the contribution store by re-requesting each in-link
  // source's current contribution. Ranks were all restored above, so
  // same-peer sources are consistent regardless of document order.
  for (const NodeId v : docs) {
    const NodeId s = doc_slot_[v];
    const PeerId owner = placement_.peer_of(v);
    const auto sources = graph_.in_neighbors(v);
    const auto edges = graph_.in_to_out_edge(v);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      const EdgeId e = edges[i];
      const PeerId pu = placement_.peer_of(u);
      if (pu != owner && pending_[e]) {
        // The sender holds a parked (fresher) value for this edge; the
        // outbox drain later this pass delivers it.
        continue;
      }
      if (pu != owner && (!present_[pu] || !reachable(pu, owner))) {
        // Source unreachable: the cell stays empty until the source's
        // next emission, its outbox, or the mass audit repairs it.
        continue;
      }
      const double c =
          ranks_[doc_slot_[u]] / static_cast<double>(graph_.out_degree(u));
      contrib_[cell_begin_[s] + i] = c;
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
      residual_[s] = std::numeric_limits<double>::infinity();
    }
    mark_dirty_now(s);
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
  // The coordinator already moved ownership in the shared placement:
  // mirror it. A moved document keeps its slot, so its cells and
  // out-links stay where they are.
  for (const auto& h : mplan.handoffs) {
    slot_owner_[doc_slot_[h.doc]] = placement_.peer_of(h.doc);
  }

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
        if (src == leaver) src = placement_.peer_of(edge_source(e));
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
  rebuild_docs(reconstruct, stats);

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

void DistributedPagerank::begin_pass(std::uint64_t pass,
                                     ChurnSchedule* churn, PassStats& stats) {
  const auto copy_mask = [this](const std::vector<bool>& mask) {
    std::copy(mask.begin(), mask.end(), present_.begin());
  };
  if (membership_ != nullptr) {
    // Scheduled events strike, heartbeats feed the detector, the ring
    // stabilizes and ownership moves; the engine then moves, wipes and
    // rebuilds the matching state against the coordinator's new mask.
    const MembershipCoordinator::PassPlan& mplan =
        membership_->begin_pass(pass);
    copy_mask(membership_->presence());
    apply_membership(mplan, pass, stats);
  } else if (churn != nullptr) {
    copy_mask(churn->presence_for_pass(pass));
  } else {
    std::fill(present_.begin(), present_.end(), 1);
  }
  if (plan_ == nullptr) return;

  // Fault-plan crashes on top: partitions advance, crashes strike, and a
  // peer inside its downtime is absent whatever the base mask says.
  const PeerId num_peers = placement_.num_peers();
  for (const PeerId p : plan_->begin_pass(pass, num_peers)) {
    crash_peer(p, pass, stats);
  }
  for (PeerId p = 0; p < num_peers; ++p) {
    if (down_until_[p] > pass) present_[p] = 0;
  }
  // Crashed peers whose downtime ended and whom the base mask brought
  // back run recovery before any delivery touches them.
  for (PeerId p = 0; p < num_peers; ++p) {
    if (down_until_[p] != 0 && present_[p]) recover_peer(p, stats);
  }
  deliver_delayed(pass, stats);
  process_retries(pass, stats);
}

void DistributedPagerank::deliver_delayed(std::uint64_t pass,
                                          PassStats& stats) {
  auto it = delayed_.begin();
  while (it != delayed_.end() && it->first <= pass) {
    for (const DelayedMsg& m : it->second) {
      const NodeId v = graph_.out_target(m.edge);
      const PeerId pv = placement_.peer_of(v);
      if (present_[pv] && reachable(m.src, pv)) {
        // Traffic was billed at send time.
        const bool applied = apply_update(m.edge, edge_target(m.edge), m.value,
                                          m.seq, /*now=*/true);
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
                                          PassStats& stats) {
  if (channel_ == nullptr) return;
  const std::uint64_t before = channel_->retransmissions();
  for (auto& pend : channel_->take_due(pass)) {
    const EdgeId e = pend.slot;
    const NodeId v = graph_.out_target(e);
    const PeerId pv = placement_.peer_of(v);
    if (!present_[pv] || !reachable(pend.src, pv)) {
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
      const bool applied =
          apply_update(e, edge_target(e), pend.value, pend.seq, /*now=*/true);
      trace_terminal(pend.trace, applied, pv);
    }
  }
  stats.retransmissions += channel_->retransmissions() - before;
  // Records whose retry budget ran out during re-track above reached the
  // gave_up terminal outcome: account the loss now, not at quiescence.
  drain_gave_up();
}

double DistributedPagerank::effective_value(EdgeId e) const {
  return !pending_.empty() && pending_[e] != 0
             ? pending_value_[e]
             : contrib_[edge_target(e).cell];
}

MassAuditReport DistributedPagerank::audit_ledger() const {
  return auditor_->audit([this](EdgeId e) { return effective_value(e); },
                         kAuditSlack);
}

bool DistributedPagerank::audit_and_repair(PassStats& stats) {
  const MassAuditReport report = audit_ledger();
  if (report.conserved(audit_tolerance_)) {
    last_mass_ratio_ = report.mass_ratio;
    return true;
  }
  // Proportional re-injection: re-send exactly the contributions the
  // ledger says went missing, then keep iterating.
  ++repair_rounds_;
  for (const EdgeId e : auditor_->leaking_edges(
           [this](EdgeId edge) { return effective_value(edge); },
           kAuditSlack)) {
    const NodeId v = graph_.out_target(e);
    const PeerId pv = placement_.peer_of(v);
    const PeerId pu = placement_.peer_of(edge_source(e));
    const double value = auditor_->expected(e);
    const std::uint32_t seq =
        channel_ != nullptr ? channel_->next_seq(e) : 0;
    if (present_[pv] && reachable(pu, pv)) {
      (void)apply_update(e, edge_target(e), value, seq, /*now=*/false);
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
  delivery_ = has_attachments() || residual_mode_ ? Delivery::kFull
                                                  : Delivery::kDirect;
  // Updates park only for an absent or unreachable peer (churn, crashes,
  // membership, partitions) or for an audit repair that cannot land; a
  // run without any of these never touches the outbox.
  const bool can_park =
      churn || plan_ != nullptr || membership_ != nullptr || audit_enabled_;
  // Built before the per-run scratch below, so the build's transient
  // arrays are freed before the run's peak.
  build_slots(can_park || auditor_ != nullptr);

  const NodeId n = graph_.num_nodes();
  const EdgeId m = graph_.num_edges();
  const PeerId num_peers = placement_.num_peers();
  if (can_park) {
    pending_value_.assign(m, 0.0);
    pending_.assign(m, 0);
  }
  deferred_by_peer_.resize(num_peers);
  present_.assign(num_peers, 1);
  // Per-slot state starts from the start vector, now in slot order.
  in_dirty_.assign(n, 1);
  dirty_.resize(n);
  for (NodeId s = 0; s < n; ++s) dirty_[s] = s;  // first pass: everyone
  next_dirty_.reserve(n);
  if (residual_mode_) {
    residual_.assign(n, std::numeric_limits<double>::infinity());
    last_sent_ = ranks_;
    defer_age_.assign(n, 0);
  }
  if ((plan_ != nullptr || membership_ != nullptr) && replicas_ != nullptr &&
      !replicas_->empty()) {
    // Replicas double as the rank store crash recovery (fault plan) and
    // crash-range reconstruction (membership) restore from.
    replica_value_ = ranks_;
  }

  const std::uint32_t threads = std::max<std::uint32_t>(1, options_.threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
  // Flat scratch sized once here, so no pass ever grows an allocation.
  grouped_.resize(n);
  senders_.resize(n);
  peer_cursor_.assign(num_peers, 0);
  segments_.reserve(num_peers);
  dst_count32_.assign(num_peers, 0);
  touched_dsts_.reserve(num_peers);
}

void DistributedPagerank::build_slots(bool keep_doc_slot) {
  const NodeId n = graph_.num_nodes();
  const EdgeId m = graph_.num_edges();
  const PeerId num_peers = placement_.num_peers();
  // Stable counting sort of the documents by owning peer: a peer's slots
  // are contiguous and ascend by document id, so pass 0 groups the dirty
  // set into exactly the segments document order gives.
  std::vector<std::uint32_t> next_slot(std::size_t{num_peers} + 1, 0);
  for (NodeId v = 0; v < n; ++v) ++next_slot[placement_.peer_of(v) + 1];
  for (PeerId p = 0; p < num_peers; ++p) next_slot[p + 1] += next_slot[p];
  slot_doc_.resize(n);
  slot_owner_.resize(n);
  std::vector<NodeId> doc_slot(n);
  for (NodeId v = 0; v < n; ++v) {
    const PeerId p = placement_.peer_of(v);
    const NodeId s = next_slot[p]++;
    slot_doc_[s] = v;
    slot_owner_[s] = p;
    doc_slot[v] = s;
  }
  // The start vector into slot order, in place.
  scatter_in_place(ranks_, doc_slot);

  cell_begin_.resize(std::size_t{n} + 1);
  out_begin_.resize(std::size_t{n} + 1);
  cell_begin_[0] = 0;
  out_begin_[0] = 0;
  for (NodeId s = 0; s < n; ++s) {
    const NodeId v = slot_doc_[s];
    cell_begin_[s + 1] = cell_begin_[s] + graph_.in_degree(v);
    out_begin_[s + 1] = out_begin_[s] + graph_.out_degree(v);
  }

  // Out-links, walked in document order so the graph's arrays stream.
  // A cell keeps its place in the target's in-list order.
  out_slot_.resize(m);
  out_cell_.resize(m);
  for (NodeId u = 0; u < n; ++u) {
    std::uint32_t pos = out_begin_[doc_slot[u]];
    for (EdgeId e = graph_.out_edge_begin(u); e < graph_.out_edge_end(u);
         ++e, ++pos) {
      const NodeId v = graph_.out_target(e);
      const NodeId sv = doc_slot[v];
      out_slot_[pos] = sv;
      out_cell_[pos] = cell_begin_[sv] + static_cast<std::uint32_t>(
                                             graph_.out_to_in_edge(e) -
                                             graph_.in_edge_begin(v));
    }
  }
  if (keep_doc_slot) {
    doc_slot_ = std::move(doc_slot);
  } else {
    doc_slot = std::vector<NodeId>();  // released before the cells exist
  }

  // "Available pagerank for in-links from the previous iteration" at
  // pass 0 is the start value: the contribution of edge u->v starts at
  // R(u) / outdeg(u), one division per source scattered over its
  // out-links.
  contrib_.resize(m);
  for (NodeId s = 0; s < n; ++s) {
    const std::uint32_t begin = out_begin_[s];
    const std::uint32_t end = out_begin_[s + 1];
    if (begin == end) continue;
    const double c = ranks_[s] / static_cast<double>(end - begin);
    for (std::uint32_t pos = begin; pos < end; ++pos) {
      contrib_[out_cell_[pos]] = c;
    }
  }
}

void DistributedPagerank::run_pass(std::uint64_t pass, PassStats& stats,
                                   obs::Histogram* batch_hist) {
  group_dirty();
  if (pool_ != nullptr) {
    pool_->run(static_cast<unsigned>(segments_.size()),
               [&](unsigned shard, unsigned) {
                 recompute_segment(segments_[shard]);
               });
  } else {
    for (Segment& s : segments_) recompute_segment(s);
  }
  // Merge in peer order. Documents on absent peers, residual deferrals
  // and held emissions keep their dirty flags and are queued for the
  // next pass.
  for (const Segment& s : segments_) {
    if (!present_[s.peer]) {
      next_dirty_.insert(next_dirty_.end(), grouped_.data() + s.begin,
                         grouped_.data() + s.end);
      continue;
    }
    stats.docs_recomputed += s.recomputed;
    stats.max_rel_change = std::max(stats.max_rel_change, s.max_rel);
    stats.docs_deferred += s.deferred;
    next_dirty_.insert(next_dirty_.end(), senders_.data() + s.end - s.kept,
                       senders_.data() + s.end);
  }
  prev_max_rel_ = stats.max_rel_change;
  if (delivery_ == Delivery::kFull) {
    emit<Delivery::kFull>(pass, stats, batch_hist);
  } else {
    emit<Delivery::kDirect>(pass, stats, batch_hist);
  }
}

void DistributedPagerank::group_dirty() {
  // Count per peer, carve segments in ascending peer order, then a
  // stable scatter; peer_cursor_ is zero again on return.
  segments_.clear();
  for (const NodeId s : dirty_) {
    const PeerId p = slot_owner_[s];
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
  for (const NodeId s : dirty_) {
    grouped_[peer_cursor_[slot_owner_[s]]++] = s;
  }
  for (const Segment& s : segments_) peer_cursor_[s.peer] = 0;
}

void DistributedPagerank::recompute_segment(Segment& s) {
  if (!present_[s.peer]) return;  // slots stay dirty; requeued by the merge
  NodeId* const slots = grouped_.data() + s.begin;
  std::uint64_t n = s.end - s.begin;
  const double d = options_.damping;
  if (residual_mode_) {
    // Step 2: highest accumulated |Δcontribution| first (ties by document
    // id), so one recompute coalesces every update behind the largest
    // pending mass. While the iteration is still far from converging,
    // the low-residual tail is deferred; once the last pass was within
    // epsilon the endgame runs exhaustively, exactly like fifo.
    std::sort(slots, slots + n, [this](NodeId a, NodeId b) {
      const double ra = residual_[a];
      const double rb = residual_[b];
      return ra != rb ? ra > rb : slot_doc_[a] < slot_doc_[b];
    });
    if (prev_max_rel_ > options_.epsilon) {
      const double cutoff = kResidualDeferRatio * prev_max_rel_;
      std::uint64_t selected = 1;  // every peer processes its top document
      for (std::uint64_t i = 1; i < n; ++i) {
        const NodeId v = slots[i];
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
          slots[selected++] = v;
        }
      }
      s.deferred = s.kept;
      n = selected;
    }
  }

  // Step 3: one walk over the segment folds each slot's cells strictly
  // left to right (the graph's in-list order, so every fold adds the same
  // values in the same order), then writes the rank, folds the max and
  // picks the senders.
  const double* const cells = contrib_.data();
  const std::uint32_t* const cell_begin = cell_begin_.data();
  const std::uint32_t* const out_begin = out_begin_.data();
  const double base = 1.0 - d;
  const double eps = options_.epsilon;
  const bool track_replica_values = !replica_value_.empty();
  double max_rel = 0.0;
  std::uint64_t senders = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const NodeId v = slots[i];
    in_dirty_[v] = 0;
    double acc = 0.0;
    for (std::uint32_t c = cell_begin[v]; c < cell_begin[v + 1]; ++c) {
      acc += cells[c];
    }
    const double newrank = base + d * acc;
    const double rel = relative_change(ranks_[v], newrank);
    ranks_[v] = newrank;
    if (rel > max_rel) max_rel = rel;
    if (track_replica_values) {
      // A live replica mirrors the recomputation (§2.3: replicas
      // receive the same updates) — the copy crash recovery restores.
      for (const PeerId rp : replicas_->replicas_of(slot_doc_[v])) {
        if (present_[rp]) {
          replica_value_[v] = newrank;
          break;
        }
      }
    }
    const bool has_out_links = out_begin[v + 1] != out_begin[v];
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
void DistributedPagerank::emit(std::uint64_t pass, PassStats& stats,
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
  MassAuditor* const auditor = auditor_.get();
  // Only parking, the full delivery and the ledger name an update by its
  // out-edge id (only runs that can park allocate the outbox); plain
  // runs never read the graph here.
  const bool need_edge =
      kMode == Delivery::kFull || !pending_.empty() || auditor != nullptr;
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
      const NodeId su = senders_[i];
      const std::uint32_t out_first = out_begin_[su];
      const std::uint32_t out_end = out_begin_[su + 1];
      const double c = ranks_[su] / static_cast<double>(out_end - out_first);
      // Position out_first + j is the sender's out-edge e0 + j.
      const EdgeId e0 = need_edge ? graph_.out_edge_begin(slot_doc_[su]) : 0;
      for (std::uint32_t pos = out_first; pos < out_end; ++pos) {
        const EdgeTarget t{out_slot_[pos], out_cell_[pos]};
        const PeerId pv = slot_owner_[t.slot];
        const EdgeId e = e0 + (pos - out_first);
        if (auditor != nullptr) auditor->on_emit(e, c);
        if constexpr (kMode == Delivery::kDirect) {
          if (present_[pv]) {
            contrib_[t.cell] = c;
            mark_dirty(t.slot);
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
            if (residual_mode_) {
              residual_[t.slot] += std::abs(c - contrib_[t.cell]);
            }
            contrib_[t.cell] = c;
            mark_dirty(t.slot);
            ++local_total;
          } else if (present_[pv] && reachable(p, pv)) {
            const NodeId v = slot_doc_[t.slot];
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
                const bool applied = apply_update(e, t, c, seq, /*now=*/false);
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
            if (plan_ != nullptr && present_[pv]) ++partition_deferrals_;
            if (membership_ != nullptr && membership_->undetected_crash(pv)) {
              // The sender does not know the owner is gone yet: the query
              // goes out to the stale owner and parks until the verdict.
              ++stale_owner_queries_;
              ++stats.stale_owner_queries;
            }
            const std::uint32_t seq =
                channel_ != nullptr ? channel_->next_seq(e) : 0;
            const obs::TraceId tid =
                tracer_ != nullptr
                    ? trace_send(e, p, pv, slot_doc_[t.slot], c, pass, 1)
                    : obs::kNoTrace;
            park(e, p, pv, c, seq, tid, stats);
          }
          if (replica_eligible && fan_out && present_[pv]) {
            send_to_replicas(p, slot_doc_[t.slot], stats);
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

void DistributedPagerank::deliver_deferred(PassStats& stats) {
  const bool selective = plan_ != nullptr && plan_->partition_active();
  for (PeerId p = 0; p < deferred_by_peer_.size(); ++p) {
    auto& entries = deferred_by_peer_[p];
    if (!present_[p] || entries.empty()) continue;
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
      const bool applied = apply_update(e, edge_target(e), pending_value_[e],
                                        seq, /*now=*/true);
      const NodeId v = graph_.out_target(e);
      ++bill_.messages;
      bill_.hops += send_hops(src_peer, p, v);
      ++stats.messages_delivered_late;
      if (t != obs::kNoTrace) {
        tracer_->async_step(t, "outbox.deliver", "net", p, {});
        trace_terminal(t, applied, p);
      }
      if (replicas_ != nullptr && !replicas_->empty()) {
        send_to_replicas(src_peer, v, stats);
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
  return bytes(slot_doc_) + bytes(doc_slot_) + bytes(slot_owner_) +
         bytes(cell_begin_) + bytes(out_begin_) + bytes(out_slot_) +
         bytes(out_cell_) + bytes(ranks_) + bytes(contrib_) +
         bytes(pending_value_) + bytes(pending_) + bytes(pending_seq_) +
         bytes(in_dirty_) + bytes(dirty_) + bytes(next_dirty_) +
         bytes(grouped_) + bytes(senders_) + bytes(peer_cursor_) +
         bytes(segments_) + bytes(dst_count32_) + bytes(touched_dsts_) +
         bytes(residual_) + bytes(last_sent_) + bytes(defer_age_) +
         bytes(replica_value_) + bytes(pending_trace_) +
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
  if (cell_begin_.empty()) return;  // run() has not built its state yet
  DPRANK_INVARIANT(contrib_.size() == m, kSub,
                   "contribution store does not cover the edges");
  DPRANK_INVARIANT(
      pending_.empty() || (pending_.size() == m && pending_value_.size() == m),
      kSub, "outbox arrays do not cover the edges");
  DPRANK_INVARIANT(pending_seq_.empty() || pending_seq_.size() == m, kSub,
                   "parked-sequence array does not cover the edges");

  // Slot layout: slot -> document is a permutation whose inverse the
  // kept document -> slot map equals; the owner mirror follows the
  // placement; every offset matches the graph's degrees; and every
  // out-link lands on its target's slot, in the cell the graph's cross
  // index names.
  DPRANK_INVARIANT(slot_doc_.size() == n && slot_owner_.size() == n &&
                       cell_begin_.size() == std::size_t{n} + 1 &&
                       out_begin_.size() == std::size_t{n} + 1 &&
                       out_slot_.size() == m && out_cell_.size() == m,
                   kSub, "slot layout does not cover the graph");
  DPRANK_INVARIANT(doc_slot_.empty() || doc_slot_.size() == n, kSub,
                   "document -> slot map does not cover the documents");
  std::vector<NodeId> slot_of(n, n);  // n: no slot yet
  for (NodeId s = 0; s < n; ++s) {
    const NodeId v = slot_doc_[s];
    DPRANK_INVARIANT(v < n, kSub, "a slot maps to an unknown document");
    DPRANK_INVARIANT(slot_of[v] == n, kSub,
                     "document " + std::to_string(v) + " holds two slots");
    slot_of[v] = s;
  }
  for (NodeId v = 0; v < n && !doc_slot_.empty(); ++v) {
    DPRANK_INVARIANT(doc_slot_[v] == slot_of[v], kSub,
                     "document " + std::to_string(v) +
                         ": slot maps are not inverses");
  }
  DPRANK_INVARIANT(cell_begin_[0] == 0 && out_begin_[0] == 0, kSub,
                   "slot offsets do not start at zero");
  for (NodeId s = 0; s < n; ++s) {
    const NodeId v = slot_doc_[s];
    // Messages are built only when a check fails.
    const auto doc = [v] { return "document " + std::to_string(v); };
    DPRANK_INVARIANT(slot_owner_[s] == placement_.peer_of(v), kSub,
                     doc() + ": owner mirror says peer " +
                         std::to_string(slot_owner_[s]) +
                         ", the placement peer " +
                         std::to_string(placement_.peer_of(v)));
    DPRANK_INVARIANT(cell_begin_[s + 1] - cell_begin_[s] == graph_.in_degree(v),
                     kSub, doc() + ": cell range does not match its in-degree");
    DPRANK_INVARIANT(out_begin_[s + 1] - out_begin_[s] == graph_.out_degree(v),
                     kSub, doc() + ": out-link range does not match its "
                                   "out-degree");
    const EdgeId e0 = graph_.out_edge_begin(v);
    for (std::uint32_t j = 0; j < graph_.out_degree(v); ++j) {
      const std::uint32_t pos = out_begin_[s] + j;
      const NodeId w = graph_.out_target(e0 + j);
      const std::uint32_t cell =
          cell_begin_[slot_of[w]] +
          static_cast<std::uint32_t>(graph_.out_to_in_edge(e0 + j) -
                                     graph_.in_edge_begin(w));
      DPRANK_INVARIANT(out_slot_[pos] == slot_of[w], kSub,
                       doc() + ": out-link to document " + std::to_string(w) +
                           " points at another document's slot");
      DPRANK_INVARIANT(out_cell_[pos] == cell, kSub,
                       doc() + ": out-link to document " + std::to_string(w) +
                           " points at another edge's cell");
    }
  }

  // Dirty-set integrity: the recompute queues and the membership flags
  // must agree exactly — a document queued twice would be recomputed
  // twice in one pass, and a flagged-but-unqueued document would never
  // be recomputed again. This is the precondition group_dirty() relies
  // on for its deterministic peer segments. Queues hold slots.
  std::vector<std::uint8_t> queued(n, 0);
  const auto check_queue = [&](const std::vector<NodeId>& q) {
    for (const NodeId s : q) {
      DPRANK_INVARIANT(s < n, kSub, "dirty queue holds an unknown slot");
      DPRANK_INVARIANT(queued[s] == 0, kSub,
                       "document " + std::to_string(slot_doc_[s]) +
                           " queued for recompute twice");
      queued[s] = 1;
      DPRANK_INVARIANT(in_dirty_[s] != 0, kSub,
                       "document " + std::to_string(slot_doc_[s]) +
                           " queued for recompute but not flagged dirty");
    }
  };
  check_queue(dirty_);
  check_queue(next_dirty_);
  std::size_t flagged = 0;
  for (NodeId s = 0; s < n; ++s) flagged += in_dirty_[s] != 0 ? 1U : 0U;
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
      DPRANK_INVARIANT(!pending_.empty() && pending_[e] != 0, kSub,
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
  for (const std::uint8_t flag : pending_) flagged_edges += flag != 0 ? 1U : 0U;
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

  // Residual-scheduler state: arrays cover the slots, residual mass is
  // non-negative, the defer age never escapes its cap, and any document
  // holding undigested residual is queued for a recompute (a positive
  // residual with no dirty flag would be an update the scheduler lost).
  if (residual_mode_) {
    DPRANK_INVARIANT(residual_.size() == n && last_sent_.size() == n &&
                         defer_age_.size() == n,
                     kSub,
                     "residual-scheduler arrays do not cover the documents");
    for (NodeId s = 0; s < n; ++s) {
      const NodeId v = slot_doc_[s];
      DPRANK_INVARIANT(residual_[s] >= 0.0, kSub,
                       "negative residual at document " + std::to_string(v));
      DPRANK_INVARIANT(defer_age_[s] <= options_.residual_max_defer, kSub,
                       "defer age exceeds residual_max_defer at document " +
                           std::to_string(v));
      DPRANK_INVARIANT(!(residual_[s] > 0.0) || in_dirty_[s] != 0, kSub,
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
  if (membership_ != nullptr) membership_->validate();

  // Rank-mass conservation identity (§2.3): on fault-free runs every
  // emitted contribution is applied or parked, nothing else — the ledger
  // balances exactly. Under a fault plan or dynamic membership transient
  // leaks are expected (crash wipes, unacked drops, dropped_dead
  // evictions) until audit_and_repair re-injects them, so the identity
  // only holds at quiescence and is checked there by the audit machinery
  // instead.
  if (auditor_ != nullptr && plan_ == nullptr && membership_ == nullptr) {
    const MassAuditReport report = audit_ledger();
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
  // ranks() is back in document order however the run ends. In place:
  // every run array is still alive here, so a second rank vector would
  // raise the run's peak by its full size.
  DistributedRunResult result;
  try {
    run_passes(churn, observer, result);
  } catch (...) {
    scatter_in_place(ranks_, slot_doc_);
    throw;
  }
  scatter_in_place(ranks_, slot_doc_);
  result.repair_rounds = repair_rounds_;
  if (metrics_ != nullptr) flush_metrics(result);
  return result;
}

void DistributedPagerank::run_passes(ChurnSchedule* churn,
                                     const PassObserver& observer,
                                     DistributedRunResult& result) {
  obs::Histogram* pass_wall =
      metrics_ != nullptr ? &metrics_->histogram("pagerank.pass_wall_us")
                          : nullptr;
  obs::Histogram* batch_hist =
      metrics_ != nullptr && !has_attachments()
          ? &metrics_->histogram("pagerank.batch_size")
          : nullptr;
  std::vector<double> observed;  // an observer's ranks, in document order

  for (std::uint64_t pass = 0; pass < options_.max_passes; ++pass) {
    // Telemetry measures the simulator itself (real wall time per pass),
    // never feeds the simulation.
    // dprank-analyze: allow(nondet-source) -- measures the harness only
    const auto wall_start = std::chrono::steady_clock::now();
    PassStats stats;
    stats.pass = pass;
    begin_pass(pass, churn, stats);

    // Phase 0: outbox drains for peers that are present this pass.
    if (total_pending_ != 0) deliver_deferred(stats);

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
    run_pass(pass, stats, batch_hist);
    bill_pass();

    // Quiescence: nothing to recompute, nothing parked, nothing in
    // flight, nobody awaiting recovery — then, if auditing, the mass
    // ledger must balance (leaks are re-injected and the loop resumes).
    bool quiescent = next_dirty_.empty() && total_pending_ == 0;
    if (plan_ != nullptr && quiescent) {
      quiescent = delayed_total_ == 0 &&
                  (channel_ == nullptr || channel_->idle()) &&
                  std::ranges::all_of(down_until_, [](std::uint64_t until) {
                    return until == 0;
                  });
    }
    if (membership_ != nullptr && quiescent) {
      // Convergence is meaningless while events remain scheduled or a
      // crash is still undeclared (its range is frozen, its updates are
      // parked): the run idles forward until membership settles.
      quiescent = membership_->quiescent();
    }
    if (quiescent && audit_enabled_) quiescent = audit_and_repair(stats);

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
    if (observer) {
      // After the first pass a rank changes only when its slot is
      // recomputed or rebuilt, and either happens only to a slot queued
      // for this pass, so only those are copied: a full translation each
      // pass cost about as much as the pass itself at a million
      // documents.
      if (observed.empty()) {
        observed.resize(ranks_.size());
        for (NodeId s = 0; s < ranks_.size(); ++s) {
          observed[slot_doc_[s]] = ranks_[s];
        }
      } else {
        for (const NodeId s : dirty_) observed[slot_doc_[s]] = ranks_[s];
      }
      observer(pass, observed);
    }

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
    // Ran out of passes: report the leak as it stands.
    if (!result.converged) last_mass_ratio_ = audit_ledger().mass_ratio;
    result.mass_ratio = last_mass_ratio_;
  }
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
