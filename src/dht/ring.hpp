#pragma once

// Chord-style DHT overlay (§2.1, §2.4.2, §3.2).
//
// The paper targets DHT systems (CAN, Pastry, Chord) where GUIDs are
// pointers to documents and lookups resolve in O(log N) overlay hops.
// ChordRing implements the identifier-space machinery of Chord over
// 128-bit GUIDs:
//   * each peer owns the arc of keys in (predecessor, self];
//   * finger k of a peer is the successor of (peer_id + 2^k);
//   * greedy routing forwards to the closest preceding finger.
//
// The simulation holds global membership (as the paper's simulator did),
// so finger tables are derived from the sorted ring instead of gossiping —
// the *routing behaviour* (hop sequences, hop counts) matches a converged
// Chord network exactly, which is what the traffic accounting needs.
//
// Layout (DESIGN.md §16): one flat table in ring order — GUIDs ascending
// and the peer at each position — plus a dense peer -> position index and
// each position's *distinct* fingers as positions in one CSR array,
// farthest first. The constructor, join() and leave() rebuild the table;
// every query reads it. A lookup walks positions: the successor is the
// next position, and because the key's owner is known up front, "finger
// lies in (current, key)" is "finger is fewer positions ahead than the
// owner". The first such row entry is the finger the 127 -> 0 scan over
// all 128 fingers picks, so routes equal that scan's hop for hop.

#include <cstdint>
#include <vector>

#include "common/guid.hpp"

namespace dprank {

using PeerId = std::uint32_t;
inline constexpr PeerId kInvalidPeer = ~PeerId{0};

class ChordRing {
 public:
  ChordRing() = default;

  /// Construct with peers 0..num_peers-1, ids from peer_guid().
  explicit ChordRing(PeerId num_peers);

  /// Add a peer with an explicit GUID. Throws std::invalid_argument on
  /// kInvalidPeer, a duplicate peer or a GUID collision (128-bit
  /// collisions do not occur from peer_guid()). Rebuilds the table: O(N log^2 N). The peer index
  /// is dense, so it grows to the largest peer number joined.
  void join(PeerId peer, Guid id);

  /// Remove a peer; its arc is absorbed by its successor, exactly as keys
  /// fail over in Chord. No-op if absent. Rebuilds like join().
  void leave(PeerId peer);

  [[nodiscard]] bool contains(PeerId peer) const {
    return position_of(peer) != kNoPos;
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] Guid id_of(PeerId peer) const;

  /// The peer whose arc contains `key`: the first peer id clockwise at or
  /// after key. Requires a non-empty ring.
  [[nodiscard]] PeerId successor_of_key(Guid key) const;

  /// The next live peer clockwise strictly after `id`.
  [[nodiscard]] PeerId successor_peer(Guid id) const;
  /// The next live peer counter-clockwise strictly before `id`.
  [[nodiscard]] PeerId predecessor_peer(Guid id) const;

  /// Finger k of `peer`: successor of (id_of(peer) + 2^k), k in [0,127].
  [[nodiscard]] PeerId finger(PeerId peer, int k) const;

  struct Route {
    PeerId destination = kInvalidPeer;
    std::vector<PeerId> hops;  // intermediate + final peer (excludes origin);
                               // empty when the key is local to the origin
    [[nodiscard]] std::size_t hop_count() const { return hops.size(); }
  };

  /// Greedy Chord lookup of `key` starting at `from`. The returned route
  /// ends at successor_of_key(key); zero hops when `from` already owns the
  /// key. Hop count is O(log N) w.h.p.
  [[nodiscard]] Route route(PeerId from, Guid key) const;

  /// route()'s destination and hop count, without the hop list: the IP
  /// cache bills a miss without allocating.
  struct Lookup {
    PeerId destination = kInvalidPeer;
    std::size_t hop_count = 0;
  };
  [[nodiscard]] Lookup lookup(PeerId from, Guid key) const;

  /// All live peers, ascending id order around the ring.
  [[nodiscard]] std::vector<PeerId> peers_in_ring_order() const {
    return peers_;
  }

  /// Structural invariant walk (contracts.hpp; subsystem "dht"):
  ///  * the flat table: GUIDs strictly ascending, and the position index
  ///    inverse to the peer column (exactly the live peers indexed);
  ///  * finger rows: each row equals the distinct, non-self successors
  ///    of id + 2^k over k = 127..0, recomputed against an independently
  ///    sorted copy of the membership (every row up to 64 peers, a
  ///    sample of 64 rows above that);
  ///  * routability: greedy lookups from sampled origins terminate at
  ///    the true owner of the key in at most max(16, 2·ceil(log2 N) + 8)
  ///    hops — the paper's O(log N) claim with deterministic slack.
  /// `route_samples` bounds the lookup probes (0 skips routing checks).
  /// Throws contracts::ContractViolation on the first violation; no-op
  /// when contracts are compiled out.
  void validate(std::size_t route_samples = 64) const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates
  using Pos = std::uint32_t;    // a position in ring order
  static constexpr Pos kNoPos = ~Pos{0};

  [[nodiscard]] Pos position_of(PeerId peer) const {
    return peer < pos_of_.size() ? pos_of_[peer] : kNoPos;
  }
  /// Position of the first GUID at or after `key`, wrapping to 0.
  [[nodiscard]] Pos position_of_key(Guid key) const;
  /// Rebuild the position index and every finger row from ids_/peers_.
  void rebuild();
  /// The greedy walk behind route() and lookup(): calls on_hop(peer) for
  /// each hop and returns the destination.
  template <typename OnHop>
  PeerId walk(PeerId from, Guid key, OnHop&& on_hop) const;

  std::vector<Guid> ids_;      // the ring: GUIDs strictly ascending
  std::vector<PeerId> peers_;  // peers_[i] owns the arc ending at ids_[i]
  std::vector<Pos> pos_of_;    // peer -> position; kNoPos when absent
  std::vector<std::size_t> row_begin_;  // CSR offsets into fingers_ (N+1)
  std::vector<Pos> fingers_;   // distinct non-self fingers, farthest first
};

// Self-healing Chord ring (extension; DESIGN.md §10.3).
//
// ChordRing derives finger tables from global membership — perfect for
// the paper's converged-network traffic accounting, useless for studying
// node loss, because a membership change repairs everything instantly.
// SelfHealingRing keeps one ChordRing as its membership table, read
// through members(): the ground truth an omniscient observer knows (the
// oracle). Over it, every live peer keeps its own *local* routing state,
// exactly the state a real Chord node maintains (Stoica et al. §E):
//
//   * a successor list of r = kSuccessors live peers (the ring survives
//     up to r consecutive simultaneous failures);
//   * a predecessor pointer;
//   * a 128-entry finger table, repaired round-robin kFingersPerRound
//     fingers per stabilization round (fix_fingers).
//
// Membership events update the table at once and let local state
// diverge from it:
//   * join(p)   — p bootstraps its tables by routing to its own id from
//     the lowest-id live peer and notifies its successor; predecessors
//     and deeper successor lists catch up via stabilization;
//   * leave(p)  — graceful: p hands its neighbors correct pointers on
//     the way out (the paper's §3.1 "notify before departing");
//   * crash(p)  — fail-stop: p vanishes, every pointer at other peers
//     that names p goes stale until stabilization prunes it.
//
// stabilize_round() runs one synchronous round of Chord's maintenance at
// every live peer in ascending id order (deterministic): prune dead
// successors (falling back to live fingers, and as a last resort the
// oracle — counted in emergency_rebootstraps(), zero unless all r
// successors die at once), adopt the successor's predecessor when it sits
// between, reconcile the successor list from the successor's own list,
// notify, and repair the next kFingersPerRound fingers via local routes.
// converged() holds when every peer's successor list and predecessor
// match the oracle; a single crash or join converges in one round,
// deeper successor-list entries within r rounds.
//
// route() walks ONLY local tables — dead pointers are skipped (counted
// per-route in Route::dead_probes) and stale-but-live fingers still make
// clockwise progress, so routing keeps working *during* disruption;
// landing on the true owner is guaranteed once converged() holds, which
// is what validate() asserts (call it after stabilization, as the chaos
// campaign does).

class SelfHealingRing {
 public:
  /// Successor-list length r: tolerates r consecutive simultaneous
  /// crashes between stabilization rounds.
  static constexpr std::size_t kSuccessors = 3;
  /// The fix_fingers budget: fingers each live peer repairs per
  /// stabilization round.
  static constexpr int kFingersPerRound = 32;

  SelfHealingRing() = default;

  /// Construct converged with peers 0..num_peers-1, ids from peer_guid().
  explicit SelfHealingRing(PeerId num_peers);

  /// A new peer joins: bootstraps its local tables by looking up its own
  /// id from the lowest-id live peer, adopts its successor's state and
  /// notifies it. Other peers learn through stabilization. Throws
  /// std::invalid_argument where ChordRing::join does. Local state is
  /// indexed by peer like ChordRing's position index, so it grows to the
  /// largest peer number joined.
  void join(PeerId peer, Guid id);

  /// Graceful departure: the peer repairs its immediate neighbors'
  /// pointers on the way out (the ring never routes through a notified
  /// gap); remaining references elsewhere are pruned on use. No-op if
  /// absent.
  void leave(PeerId peer);

  /// Fail-stop crash: the peer vanishes without notice; every pointer to
  /// it at other peers goes stale until stabilization prunes it. No-op
  /// if absent.
  void crash(PeerId peer);

  /// The live membership: who is in the ring, each peer's GUID and the
  /// true owner of every key (what routing must find once converged).
  [[nodiscard]] const ChordRing& members() const { return members_; }

  struct Route {
    PeerId destination = kInvalidPeer;  // where the greedy walk delivered
    std::vector<PeerId> hops;           // excludes origin; empty = local
    bool ok = false;            // false: no live next hop / hop cap blown
    std::size_t dead_probes = 0;  // stale pointers skipped along the way
    [[nodiscard]] std::size_t hop_count() const { return hops.size(); }
  };

  /// Greedy lookup of `key` from `from` over local tables only. Dead
  /// pointers are skipped; the walk fails (ok = false) only when a peer
  /// has no live successor at all or the hop cap is exhausted.
  [[nodiscard]] Route route(PeerId from, Guid key) const;

  /// One synchronous maintenance round at every live peer, ascending id
  /// order. Returns the number of pointer repairs performed (0 once the
  /// ring has converged and fingers are clean).
  std::size_t stabilize_round();

  /// Run stabilize_round() until converged() or `max_rounds` is spent.
  /// Returns rounds used. A single membership event needs 1 round for
  /// first-successor correctness and at most kSuccessors for the deeper
  /// list entries.
  std::size_t stabilize(std::size_t max_rounds = 8);

  /// True when every live peer's pruned successor list and predecessor
  /// equal the oracle's. Fingers are excluded: they are a lookup
  /// accelerator, not a correctness requirement (routing falls back to
  /// successor hops).
  [[nodiscard]] bool converged() const;

  /// Live successor-list / predecessor views (for tests and handoff).
  [[nodiscard]] std::vector<PeerId> successors_of(PeerId peer) const;
  [[nodiscard]] PeerId predecessor_of(PeerId peer) const;

  [[nodiscard]] std::uint64_t repairs() const { return repairs_; }
  [[nodiscard]] std::uint64_t emergency_rebootstraps() const {
    return emergency_rebootstraps_;
  }

  /// Structural invariant walk (contracts.hpp; subsystem "dht"). Call
  /// after stabilization — the routability clause is a *converged-ring*
  /// contract, extending ChordRing's invariant to the repaired ring:
  ///  * the membership table passes ChordRing::validate(0), and exactly
  ///    the live peers hold local routing state;
  ///  * successor lists hold at most kSuccessors entries and the ring
  ///    has converged (lists + predecessors match the oracle);
  ///  * routability: greedy lookups over LOCAL tables from sampled
  ///    origins land on members().successor_of_key within
  ///    max(24, 3·ceil(log2 N)+12) hops — ChordRing's budget plus slack
  ///    for fingers still healing round-robin (stale fingers cost hops,
  ///    never correctness).
  /// Throws contracts::ContractViolation on the first violation; no-op
  /// when contracts are compiled out.
  void validate(std::size_t route_samples = 64) const;

 private:
  struct Local {
    std::vector<PeerId> successors;  // clockwise, possibly stale entries
    PeerId predecessor = kInvalidPeer;
    std::vector<PeerId> fingers;  // 128 entries when live, possibly stale
    int next_finger = 0;          // fix_fingers round-robin cursor
  };

  [[nodiscard]] bool alive(PeerId peer) const {
    return members_.contains(peer);
  }
  /// First live entry of `peer`'s successor list (kInvalidPeer if none).
  [[nodiscard]] PeerId first_live_successor(const Local& local) const;
  /// Oracle successor list: the next min(r, size) live peers clockwise.
  [[nodiscard]] std::vector<PeerId> oracle_successors(PeerId peer) const;
  [[nodiscard]] PeerId oracle_predecessor(PeerId peer) const;
  [[nodiscard]] std::size_t hop_cap() const;

  ChordRing members_;
  std::vector<Local> locals_;  // by peer id; empty for absent peers
  std::uint64_t repairs_ = 0;
  std::uint64_t emergency_rebootstraps_ = 0;
};

}  // namespace dprank
