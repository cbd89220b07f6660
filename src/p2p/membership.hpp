#pragma once

// Dynamic membership coordination (extension; DESIGN.md §10).
//
// The paper's availability story (§3.1) is graceful churn over a fixed
// peer population: every departed peer returns, so ownership never moves
// and parked state always finds its addressee. MembershipCoordinator
// models the open-world alternative — peers join, leave for good, or
// fail-stop and never come back — and drives the three subsystems that
// have to agree on who is alive:
//
//   * a SelfHealingRing whose per-peer local tables diverge on each
//     event and re-converge through stabilization (dht/ring.hpp);
//   * a heartbeat FailureDetector that turns crash silence into a
//     one-shot "declared dead" verdict after a deterministic detection
//     latency (net/failure_detector.hpp);
//   * the shared Placement, re-derived from the repaired ring's key
//     arcs so documents follow consistent-hash ownership.
//
// The engine calls begin_pass() once per pass and receives a PassPlan:
// which peers joined / left / crashed / were declared dead this pass,
// plus the explicit list of document handoffs the ownership change
// implies. Three handoff kinds mirror the three ways a key range moves:
//
//   kJoinPull    — a joining peer pulls its arc (ranks + contribution
//                  cells) from the current live owner;
//   kLeavePush   — a graceful leaver pushes its arc to its successor on
//                  the way out (state survives, like §3.1 churn);
//   kReconstruct — a crashed peer's arc is reassigned only once the
//                  detector declares it dead; the new owner rebuilds
//                  ranks from replicas (or the initial rank) and
//                  re-requests contribution cells from live sources,
//                  with the mass audit re-injecting whatever is
//                  unrecoverable (pagerank/mass_audit.hpp).
//
// Ownership of a crashed-but-undeclared peer's documents is deliberately
// frozen: until the verdict lands, senders still address the dead owner
// (the engine counts these as stale-owner queries) exactly as a real
// overlay keeps routing to a silent node. Declaration is the atomic
// point where the outbox evicts (drop_dead), the channel abandons
// retransmission (give_up_on_dest) and the range is rebuilt.
//
// Determinism: the event schedule is explicit, the detector runs on pass
// time, and the ring stabilizes in ascending peer order — a fixed
// schedule replays an identical membership history, which the chaos
// campaign's bit-reproducibility test relies on.
//
// The detector's timeouts and the ring's maintenance budget (stabilization
// rounds per pass, background heal passes after an event, validation
// probes) are constants in membership.cpp: nothing varies them.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dht/ring.hpp"
#include "graph/digraph.hpp"
#include "net/failure_detector.hpp"
#include "p2p/placement.hpp"

namespace dprank {

/// One scheduled membership event. Joins use fresh peer ids at or above
/// the initial population (placement capacity must cover them).
struct MembershipEvent {
  enum class Kind : std::uint8_t { kJoin = 0, kLeave = 1, kCrash = 2 };
  std::uint64_t pass = 0;
  Kind kind = Kind::kCrash;
  PeerId peer = 0;
};

class MembershipCoordinator {
 public:
  /// One document changing owner as a consequence of a membership event.
  struct Handoff {
    enum class Reason : std::uint8_t {
      kJoinPull = 0,
      kLeavePush = 1,
      kReconstruct = 2,
    };
    NodeId doc = 0;
    PeerId from = kInvalidPeer;
    PeerId to = kInvalidPeer;
    Reason reason = Reason::kReconstruct;
  };

  /// Everything the engine must act on for one pass. Vectors are in
  /// deterministic (schedule, then ascending id / doc) order.
  struct PassPlan {
    std::vector<PeerId> joins;
    /// (leaver, heir): the heir is the ring successor that absorbs the
    /// leaver's arc — also the peer that inherits its in-flight sender
    /// state (ReliableChannel::reassign_sender).
    std::vector<std::pair<PeerId, PeerId>> leaves;
    std::vector<PeerId> crashes;        // fail-stop this pass (undetected)
    std::vector<PeerId> declared_dead;  // detector verdicts this pass
    std::vector<Handoff> handoffs;      // ownership moves applied this pass
    [[nodiscard]] bool any_event() const {
      return !joins.empty() || !leaves.empty() || !crashes.empty() ||
             !declared_dead.empty();
    }
  };

  /// `placement` is shared with the engine and mutated in place as
  /// ownership moves; its num_peers() is the peer-id capacity (initial
  /// population plus every join the schedule will use). Its documents
  /// are fixed from here on, and normalized to ring ownership (successor
  /// of the document GUID) at construction. Throws std::invalid_argument
  /// on a malformed schedule (events out of capacity, joining a live
  /// peer, removing a dead one).
  MembershipCoordinator(Placement& placement, PeerId initial_peers,
                        std::vector<MembershipEvent> schedule);

  /// Advance membership to `pass`: apply scheduled events, heartbeat the
  /// live population, collect detector verdicts, stabilize the ring and
  /// recompute document ownership. Passes must be requested in
  /// increasing order, each at most once. The returned plan is valid
  /// until the next call.
  const PassPlan& begin_pass(std::uint64_t pass);

  /// Per-peer liveness mask, sized to placement capacity (the engine's
  /// presence vector for the pass).
  [[nodiscard]] const std::vector<bool>& presence() const {
    return presence_;
  }
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] const SelfHealingRing& ring() const { return ring_; }
  [[nodiscard]] const FailureDetector& detector() const { return detector_; }

  /// True while `peer` has crashed but the detector has not yet declared
  /// it — the window in which senders still address it (stale-owner
  /// queries).
  [[nodiscard]] bool undetected_crash(PeerId peer) const {
    return undetected_crashes_.contains(peer);
  }

  /// All scheduled events consumed and every crash declared: membership
  /// can no longer perturb the computation, so the engine may converge.
  [[nodiscard]] bool quiescent() const {
    return cursor_ == schedule_.size() && undetected_crashes_.empty();
  }

  [[nodiscard]] PeerId live_peers() const { return live_count_; }
  [[nodiscard]] std::uint64_t events_applied() const {
    return events_applied_;
  }
  [[nodiscard]] std::uint64_t stabilize_rounds_total() const {
    return stabilize_rounds_total_;
  }
  /// Passes from each crash to its detector verdict (recovery begins at
  /// declaration, so this is also the recovery-trigger latency the
  /// chaos campaign histograms).
  [[nodiscard]] const std::vector<std::uint64_t>& detection_latencies()
      const {
    return detection_latencies_;
  }

  /// Structural invariant walk (contracts.hpp; subsystem "p2p"):
  ///  * presence mask matches ring membership exactly, and the live
  ///    count matches both;
  ///  * every document not frozen on an undetected crash is owned by
  ///    the ring successor of its GUID. The expected owners come from
  ///    one merge walk of the documents in GUID order (sorted once at
  ///    construction) against peers_in_ring_order(), not from the
  ///    per-document successor_of_key lookup recompute_ownership()
  ///    uses, so the check stays independent of the code it checks;
  ///  * detector agreement: declared-dead peers are absent from the
  ///    ring, live peers are considered live by the detector.
  /// Delegates to detector().validate(); the ring's own validate() runs
  /// after every stabilization burst.
  void validate() const;

 private:
  /// Move documents to the ring successor of their GUID after an event
  /// pass, appending one handoff per move in ascending document id.
  /// Re-resolves only the documents the pass can move: those owned by a
  /// peer that left or was declared dead, and those in a joiner's arc
  /// (binary search in docs_by_guid_). Documents of an undetected crash
  /// stay frozen.
  void recompute_ownership();

  Placement& placement_;
  SelfHealingRing ring_;
  FailureDetector detector_;
  std::vector<MembershipEvent> schedule_;  // stable-sorted by pass
  // Every document with its GUID, ascending by GUID (validate()'s walk,
  // recompute_ownership()'s joiner arcs).
  std::vector<std::pair<Guid, NodeId>> docs_by_guid_;
  std::size_t cursor_ = 0;
  // Liveness per peer id; indexed to capacity. vector<bool> is fine
  // here: per-pass reads, never a hot loop.
  std::vector<bool> presence_;
  PeerId live_count_ = 0;
  std::map<PeerId, std::uint64_t> undetected_crashes_;  // peer -> crash pass
  std::vector<std::uint64_t> detection_latencies_;
  PassPlan plan_;
  std::uint64_t next_pass_ = 0;
  std::uint64_t heal_passes_left_ = 0;
  std::uint64_t events_applied_ = 0;
  std::uint64_t stabilize_rounds_total_ = 0;
};

}  // namespace dprank
