#include "p2p/membership.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/guid.hpp"

namespace dprank {

namespace {

// The detector's timeouts: a crash is declared 3 passes after its last
// heartbeat (DESIGN.md §10.1).
constexpr FailureDetector::Config kDetector{.suspect_after_passes = 2,
                                            .confirm_after_suspicions = 2};
// Stabilization rounds the ring may spend in one pass.
constexpr std::size_t kStabilizeMaxRounds = 8;
// Passes of background stabilization after an event, so the round-robin
// finger repair keeps healing once the successor lists have converged.
constexpr std::uint64_t kHealPassesAfterEvent = 4;
// Routability probes of SelfHealingRing::validate() after each
// stabilization burst.
constexpr std::size_t kRingRouteSamples = 32;

bool contains_peer(const std::vector<PeerId>& v, PeerId p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

}  // namespace

MembershipCoordinator::MembershipCoordinator(
    Placement& placement, PeerId initial_peers,
    std::vector<MembershipEvent> schedule)
    : placement_(placement),
      ring_(initial_peers),
      detector_(kDetector),
      schedule_(std::move(schedule)) {
  if (initial_peers == 0) {
    throw std::invalid_argument("MembershipCoordinator: zero initial peers");
  }
  if (placement_.num_peers() < initial_peers) {
    throw std::invalid_argument(
        "MembershipCoordinator: placement capacity below initial peers");
  }
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.pass < b.pass;
                   });
  // Replay the schedule against a liveness model to reject impossible
  // histories up front (join of a live peer, removal of a dead one,
  // ids beyond placement capacity, emptying the ring).
  std::vector<bool> live(placement_.num_peers(), false);
  std::fill(live.begin(), live.begin() + initial_peers, true);
  std::uint64_t live_count = initial_peers;
  for (const MembershipEvent& ev : schedule_) {
    if (ev.peer >= placement_.num_peers()) {
      throw std::invalid_argument(
          "MembershipCoordinator: event peer beyond placement capacity");
    }
    switch (ev.kind) {
      case MembershipEvent::Kind::kJoin:
        if (live[ev.peer]) {
          throw std::invalid_argument(
              "MembershipCoordinator: join of a live peer");
        }
        live[ev.peer] = true;
        ++live_count;
        break;
      case MembershipEvent::Kind::kLeave:
      case MembershipEvent::Kind::kCrash:
        if (!live[ev.peer]) {
          throw std::invalid_argument(
              "MembershipCoordinator: departure of a non-live peer");
        }
        if (live_count == 1) {
          throw std::invalid_argument(
              "MembershipCoordinator: schedule empties the ring");
        }
        live[ev.peer] = false;
        --live_count;
        break;
    }
  }
  presence_.assign(placement_.num_peers(), false);
  for (PeerId p = 0; p < initial_peers; ++p) presence_[p] = true;
  live_count_ = initial_peers;
  for (PeerId p = 0; p < initial_peers; ++p) detector_.monitor(p, 0);
  // Normalize placement to ring ownership so the first pass starts from
  // a consistent-hash layout (the handoff deltas are computed against
  // this baseline).
  docs_by_guid_.reserve(placement_.num_docs());
  for (NodeId d = 0; d < placement_.num_docs(); ++d) {
    docs_by_guid_.emplace_back(document_guid(d), d);
    const PeerId owner =
        ring_.members().successor_of_key(docs_by_guid_.back().first);
    if (placement_.peer_of(d) != owner) placement_.reassign(d, owner);
  }
  std::sort(docs_by_guid_.begin(), docs_by_guid_.end());
}

const MembershipCoordinator::PassPlan& MembershipCoordinator::begin_pass(
    std::uint64_t pass) {
  if (pass < next_pass_) {
    throw std::invalid_argument(
        "MembershipCoordinator::begin_pass: passes must increase");
  }
  next_pass_ = pass + 1;
  plan_ = PassPlan{};

  // 1. Scheduled events striking at (or before, if the caller skipped
  //    passes) this pass.
  while (cursor_ < schedule_.size() && schedule_[cursor_].pass <= pass) {
    const MembershipEvent& ev = schedule_[cursor_++];
    ++events_applied_;
    switch (ev.kind) {
      case MembershipEvent::Kind::kJoin: {
        ring_.join(ev.peer, peer_guid(ev.peer));
        presence_[ev.peer] = true;
        ++live_count_;
        detector_.heartbeat(ev.peer, pass);
        plan_.joins.push_back(ev.peer);
        break;
      }
      case MembershipEvent::Kind::kLeave: {
        const Guid id = ring_.members().id_of(ev.peer);
        ring_.leave(ev.peer);
        // The heir is the successor that absorbs the leaver's arc: the
        // owner of the leaver's own id once it is gone.
        const PeerId heir = ring_.members().successor_of_key(id);
        presence_[ev.peer] = false;
        --live_count_;
        detector_.mark_left(ev.peer);
        plan_.leaves.emplace_back(ev.peer, heir);
        break;
      }
      case MembershipEvent::Kind::kCrash: {
        ring_.crash(ev.peer);
        presence_[ev.peer] = false;
        --live_count_;
        undetected_crashes_.emplace(ev.peer, pass);
        plan_.crashes.push_back(ev.peer);
        break;
      }
    }
  }

  // 2. Heartbeats from the live population, then the detector sweep.
  //    Crashed peers fall silent here, which is what starts their
  //    suspicion clock.
  for (PeerId p = 0; p < presence_.size(); ++p) {
    if (presence_[p]) detector_.heartbeat(p, pass);
  }
  for (const PeerId dead : detector_.tick(pass)) {
    plan_.declared_dead.push_back(dead);
    const auto it = undetected_crashes_.find(dead);
    if (it != undetected_crashes_.end()) {
      detection_latencies_.push_back(pass - it->second);
      undetected_crashes_.erase(it);
    }
  }

  // 3. Ring maintenance: a burst after any event, plus a few background
  //    passes so round-robin finger repair keeps healing after the
  //    successor lists have converged.
  const bool event_pass = plan_.any_event();
  if (event_pass) heal_passes_left_ = kHealPassesAfterEvent;
  if (event_pass || heal_passes_left_ > 0) {
    if (!event_pass) --heal_passes_left_;
    stabilize_rounds_total_ += ring_.stabilize(kStabilizeMaxRounds);
    ring_.validate(kRingRouteSamples);
  }

  // 4. Ownership: re-derive owner arcs from the repaired ring.
  //    Documents of an undetected crash stay frozen on the dead owner —
  //    the declaration pass is when their range moves (kReconstruct).
  if (event_pass) recompute_ownership();
  return plan_;
}

void MembershipCoordinator::recompute_ownership() {
  // Only two kinds of document can change owner on an event pass (every
  // other one is frozen on an undetected crash or already owned by the
  // successor of its GUID): those owned by a peer that left or was
  // declared dead, and those whose GUID falls in a joiner's arc.
  std::vector<NodeId> candidates;
  if (!plan_.leaves.empty() || !plan_.declared_dead.empty()) {
    std::vector<std::uint8_t> departed(placement_.num_peers(), 0);
    for (const auto& [peer, heir] : plan_.leaves) departed[peer] = 1;
    for (const PeerId peer : plan_.declared_dead) departed[peer] = 1;
    for (NodeId d = 0; d < placement_.num_docs(); ++d) {
      if (departed[placement_.peer_of(d)] != 0) candidates.push_back(d);
    }
  }
  const ChordRing& members = ring_.members();
  if (!plan_.joins.empty()) {
    const auto docs_after = [this](Guid key) {
      return std::upper_bound(
          docs_by_guid_.begin(), docs_by_guid_.end(), key,
          [](const Guid& k, const std::pair<Guid, NodeId>& e) {
            return k < e.first;
          });
    };
    const auto take = [&candidates](auto first, auto last) {
      for (auto it = first; it != last; ++it) candidates.push_back(it->second);
    };
    for (const PeerId joiner : plan_.joins) {
      if (!members.contains(joiner)) continue;  // departed again this pass
      // The joiner owns the keys in (predecessor's id, its own id].
      const Guid id = members.id_of(joiner);
      const PeerId pred = members.predecessor_peer(id);
      const Guid pred_id = members.id_of(pred);
      const auto lo = docs_after(pred_id);
      const auto hi = docs_after(id);
      if (pred == joiner) {  // alone on the ring: every key
        take(docs_by_guid_.begin(), docs_by_guid_.end());
      } else if (id < pred_id) {  // the arc wraps past the largest id
        take(lo, docs_by_guid_.end());
        take(docs_by_guid_.begin(), hi);
      } else {
        take(lo, hi);
      }
    }
  }
  // Ascending document order, each once: the handoff list of a walk
  // over every document.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  for (const NodeId d : candidates) {
    const PeerId old_owner = placement_.peer_of(d);
    if (undetected_crashes_.contains(old_owner)) continue;
    const PeerId now = members.successor_of_key(document_guid(d));
    if (now == old_owner) continue;
    placement_.reassign(d, now);
    Handoff::Reason reason;
    if (detector_.is_dead(old_owner)) {
      reason = Handoff::Reason::kReconstruct;
    } else if (contains_peer(plan_.joins, now)) {
      reason = Handoff::Reason::kJoinPull;
    } else if (!presence_[old_owner]) {
      reason = Handoff::Reason::kLeavePush;
    } else {
      // A live-to-live move can only be a join splitting an arc whose
      // owner notified late; treat it as a pull by the new owner.
      reason = Handoff::Reason::kJoinPull;
    }
    plan_.handoffs.push_back(Handoff{d, old_owner, now, reason});
  }
}

void MembershipCoordinator::validate() const {
  if (!contracts::enabled()) return;
  const ChordRing& members = ring_.members();
  PeerId live = 0;
  for (PeerId p = 0; p < presence_.size(); ++p) {
    if (presence_[p]) {
      ++live;
      DPRANK_INVARIANT(members.contains(p), "p2p",
                       "membership: present peer missing from ring");
      DPRANK_INVARIANT(detector_.considers_live(p) ||
                           undetected_crashes_.contains(p),
                       "p2p", "membership: present peer not considered live");
    } else {
      DPRANK_INVARIANT(!members.contains(p), "p2p",
                       "membership: absent peer still in ring");
    }
  }
  DPRANK_INVARIANT(live == live_count_, "p2p",
                   "membership: live count mismatch");
  DPRANK_INVARIANT(live_count_ == members.size(), "p2p",
                   "membership: ring size mismatch");
  for (const auto& [peer, pass] : undetected_crashes_) {
    DPRANK_INVARIANT(!presence_[peer], "p2p",
                     "membership: undetected crash marked present");
    DPRANK_INVARIANT(!detector_.is_dead(peer), "p2p",
                     "membership: undetected crash already declared");
    (void)pass;
  }
  // Ownership: the successor of a key is the first peer at or after it
  // in ring order, wrapping to the first. Documents and peers both
  // ascend by GUID, so one merge walk yields every expected owner.
  DPRANK_INVARIANT(docs_by_guid_.size() == placement_.num_docs(), "p2p",
                   "membership: documents placed after construction");
  const std::vector<PeerId> ring_order = members.peers_in_ring_order();
  DPRANK_INVARIANT(!ring_order.empty(), "p2p", "membership: empty ring");
  std::vector<Guid> ring_ids;
  ring_ids.reserve(ring_order.size());
  for (const PeerId p : ring_order) ring_ids.push_back(members.id_of(p));
  std::size_t next = 0;
  for (const auto& [key, d] : docs_by_guid_) {
    while (next < ring_ids.size() && ring_ids[next] < key) ++next;
    const PeerId expected = ring_order[next < ring_ids.size() ? next : 0];
    const PeerId owner = placement_.peer_of(d);
    if (undetected_crashes_.contains(owner)) continue;
    DPRANK_INVARIANT(owner == expected, "p2p",
                     "membership: document not owned by its ring successor");
  }
  detector_.validate();
}

}  // namespace dprank
