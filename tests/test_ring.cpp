#include "dht/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "run_digest.hpp"

namespace dprank {
namespace {

/// Brute-force owner: the live peer with the smallest clockwise distance
/// at-or-after the key.
PeerId brute_force_owner(const ChordRing& ring, Guid key) {
  PeerId best = kInvalidPeer;
  U128 best_dist = U128::max();
  for (const PeerId p : ring.peers_in_ring_order()) {
    const U128 dist = ring_distance(key, ring.id_of(p));
    if (best == kInvalidPeer || dist < best_dist) {
      best = p;
      best_dist = dist;
    }
  }
  return best;
}

TEST(ChordRing, EmptyRingThrows) {
  const ChordRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_THROW(ring.successor_of_key(Guid{1, 2}), std::logic_error);
}

TEST(ChordRing, SinglePeerOwnsEverything) {
  ChordRing ring(1);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.successor_of_key(Guid{rng(), rng()}), 0u);
  }
  // Local keys route in zero hops.
  const auto r = ring.route(0, Guid{123, 456});
  EXPECT_EQ(r.destination, 0u);
  EXPECT_EQ(r.hop_count(), 0u);
}

TEST(ChordRing, JoinRejectsDuplicates) {
  ChordRing ring(4);
  EXPECT_THROW(ring.join(2, Guid{9, 9}), std::invalid_argument);
  EXPECT_THROW(ring.join(99, ring.id_of(1)), std::invalid_argument);
}

TEST(ChordRing, LeaveIsIdempotent) {
  ChordRing ring(4);
  ring.leave(2);
  EXPECT_FALSE(ring.contains(2));
  ring.leave(2);  // no-op
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_THROW(ring.id_of(2), std::out_of_range);
}

TEST(ChordRing, SuccessorMatchesBruteForce) {
  ChordRing ring(64);
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Guid key{rng(), rng()};
    EXPECT_EQ(ring.successor_of_key(key), brute_force_owner(ring, key));
  }
}

TEST(ChordRing, SuccessorOfPeerIdIsThatPeer) {
  ChordRing ring(32);
  for (const PeerId p : ring.peers_in_ring_order()) {
    EXPECT_EQ(ring.successor_of_key(ring.id_of(p)), p);
  }
}

TEST(ChordRing, SuccessorPeerSkipsSelf) {
  ChordRing ring(16);
  const auto order = ring.peers_in_ring_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const PeerId next = order[(i + 1) % order.size()];
    EXPECT_EQ(ring.successor_peer(ring.id_of(order[i])), next);
  }
}

TEST(ChordRing, FingerZeroIsSuccessorIsh) {
  // finger(p, 0) = successor of id+1, i.e. the next peer (or p itself if
  // the gap to its successor is > 1, which never happens on dense rings
  // of random 128-bit ids... so just check it's a live peer).
  ChordRing ring(32);
  for (const PeerId p : ring.peers_in_ring_order()) {
    EXPECT_TRUE(ring.contains(ring.finger(p, 0)));
  }
  EXPECT_THROW(ring.finger(0, -1), std::out_of_range);
  EXPECT_THROW(ring.finger(0, 128), std::out_of_range);
}

TEST(ChordRing, FingerHalfwayAcross) {
  // finger(p, 127) is the owner of the antipode; it must match
  // successor_of_key directly.
  ChordRing ring(64);
  for (const PeerId p : ring.peers_in_ring_order()) {
    const Guid antipode = ring.id_of(p) + U128::pow2(127);
    EXPECT_EQ(ring.finger(p, 127), ring.successor_of_key(antipode));
  }
}

TEST(ChordRing, RouteReachesCorrectOwner) {
  ChordRing ring(100);
  Rng rng(23);
  for (int i = 0; i < 300; ++i) {
    const auto from = static_cast<PeerId>(rng.bounded(100));
    const Guid key{rng(), rng()};
    const auto route = ring.route(from, key);
    EXPECT_EQ(route.destination, ring.successor_of_key(key));
    if (route.destination == from) {
      EXPECT_EQ(route.hop_count(), 0u);
    } else {
      ASSERT_FALSE(route.hops.empty());
      EXPECT_EQ(route.hops.back(), route.destination);
    }
  }
}

TEST(ChordRing, RouteHopsAreLogarithmic) {
  ChordRing ring(256);
  Rng rng(29);
  double total_hops = 0;
  std::size_t max_hops = 0;
  constexpr int kLookups = 500;
  for (int i = 0; i < kLookups; ++i) {
    const auto from = static_cast<PeerId>(rng.bounded(256));
    const auto route = ring.route(from, Guid{rng(), rng()});
    total_hops += static_cast<double>(route.hop_count());
    max_hops = std::max(max_hops, route.hop_count());
  }
  // Chord: ~0.5 log2(N) average, log2(N) w.h.p. worst case.
  EXPECT_LT(total_hops / kLookups, std::log2(256.0) + 1);
  EXPECT_LE(max_hops, 2 * 8 + 2);
}

TEST(ChordRing, RouteMonotoneProgress) {
  // Every intermediate hop strictly reduces the clockwise distance to
  // the key. (The final hop lands on the key's successor, i.e. just
  // *past* the key, so it is excluded from the monotonicity check.)
  ChordRing ring(128);
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const auto from = static_cast<PeerId>(rng.bounded(128));
    const Guid key{rng(), rng()};
    const auto route = ring.route(from, key);
    U128 prev_dist = ring_distance(ring.id_of(from), key);
    for (std::size_t h = 0; h + 1 < route.hops.size(); ++h) {
      const U128 dist = ring_distance(ring.id_of(route.hops[h]), key);
      EXPECT_LT(dist, prev_dist);
      prev_dist = dist;
    }
    if (!route.hops.empty()) {
      // The final peer owns the key: the key lies in (predecessor, id].
      EXPECT_EQ(route.hops.back(), ring.successor_of_key(key));
    }
  }
}

TEST(ChordRing, KeysFailOverOnLeave) {
  ChordRing ring(16);
  Rng rng(41);
  const Guid key{rng(), rng()};
  const PeerId owner = ring.successor_of_key(key);
  const PeerId heir = ring.successor_peer(ring.id_of(owner));
  ring.leave(owner);
  EXPECT_EQ(ring.successor_of_key(key), heir);
}

TEST(ChordRing, RejoinRestoresOwnership) {
  ChordRing ring(16);
  const Guid key = ring.id_of(5) - U128{0, 1};
  ASSERT_EQ(ring.successor_of_key(key), 5u);
  const Guid id5 = ring.id_of(5);
  ring.leave(5);
  EXPECT_NE(ring.successor_of_key(key), 5u);
  ring.join(5, id5);
  EXPECT_EQ(ring.successor_of_key(key), 5u);
}

TEST(ChordRing, JoinRejectsTheInvalidPeer) {
  // kInvalidPeer is the "no peer" sentinel; the dense peer index would
  // also have to grow to 2^32 entries to hold it.
  ChordRing ring(4);
  EXPECT_THROW(ring.join(kInvalidPeer, Guid{9, 9}), std::invalid_argument);
  EXPECT_EQ(ring.size(), 4u);
}

// ---- RingModel: the flat table against the map-based reference ----

/// Reference ring that keeps the map-based algorithm: two maps, every
/// finger re-derived with a map search, and the closest preceding finger
/// found by scanning all 128 fingers from the farthest. ChordRing must
/// answer every query the same way, hop for hop.
class RingModel {
 public:
  void join(PeerId peer, Guid id) {
    by_id_.emplace(id, peer);
    guid_of_peer_.emplace(peer, id);
  }
  void leave(PeerId peer) {
    by_id_.erase(guid_of_peer_.at(peer));
    guid_of_peer_.erase(peer);
  }
  [[nodiscard]] Guid id_of(PeerId peer) const {
    return guid_of_peer_.at(peer);
  }
  [[nodiscard]] PeerId successor_of_key(Guid key) const {
    const auto it = by_id_.lower_bound(key);
    return it == by_id_.end() ? by_id_.begin()->second : it->second;
  }
  [[nodiscard]] PeerId successor_peer(Guid id) const {
    const auto it = by_id_.upper_bound(id);
    return it == by_id_.end() ? by_id_.begin()->second : it->second;
  }
  [[nodiscard]] PeerId predecessor_peer(Guid id) const {
    auto it = by_id_.lower_bound(id);
    if (it == by_id_.begin()) it = by_id_.end();
    return std::prev(it)->second;
  }
  [[nodiscard]] PeerId finger(PeerId peer, int k) const {
    return successor_of_key(id_of(peer) + U128::pow2(k));
  }
  [[nodiscard]] ChordRing::Route route(PeerId from, Guid key) const {
    const PeerId target = successor_of_key(key);
    ChordRing::Route r;
    r.destination = target;
    PeerId current = from;
    while (current != target) {
      const Guid cur_id = id_of(current);
      const PeerId succ = successor_peer(cur_id);
      if (in_interval_oc(key, cur_id, id_of(succ))) {
        r.hops.push_back(succ);
        break;
      }
      PeerId next = succ;
      for (int k = 127; k >= 0; --k) {
        const PeerId f = finger(current, k);
        if (f == current) continue;
        if (in_interval_oo(id_of(f), cur_id, key)) {
          next = f;
          break;
        }
      }
      r.hops.push_back(next);
      current = next;
    }
    return r;
  }
  [[nodiscard]] std::vector<PeerId> peers_in_ring_order() const {
    std::vector<PeerId> out;
    for (const auto& [id, peer] : by_id_) out.push_back(peer);
    return out;
  }

 private:
  std::map<Guid, PeerId> by_id_;
  std::map<PeerId, Guid> guid_of_peer_;
};

/// How a model ring draws its GUIDs: hashed like peer_guid(), or packed
/// into a short arc across 2^128 - 1 -> 0, so fingers are few, most
/// offsets wrap and the ring edges sit next to each other.
enum class GuidStyle { kHashed, kPackedAcrossZero };

class RingModelBuilder {
 public:
  RingModelBuilder(GuidStyle style, std::size_t size, std::uint64_t seed)
      : style_(style),
        rng_(seed),
        next_packed_(U128::max() - U128{0, 40 * size}) {}

  /// A peer number not used before: sparse, not 0..N-1.
  PeerId fresh_peer() {
    while (true) {
      const auto p = static_cast<PeerId>(rng_.bounded(100'000));
      if (used_.insert(p).second) return p;
    }
  }
  Guid fresh_guid(PeerId peer) {
    if (style_ == GuidStyle::kHashed) return peer_guid(peer);
    next_packed_ = next_packed_ + U128{0, 1 + rng_.bounded(64)};
    return next_packed_;
  }
  Rng& rng() { return rng_; }

 private:
  GuidStyle style_;
  Rng rng_;
  Guid next_packed_;
  std::set<PeerId> used_;
};

/// Every query of `ring` must equal `model`'s: membership order, owner,
/// successor and predecessor of each probe key, the route (destination
/// and every hop) and the lookup (destination and hop count) from random
/// origins, and all 128 fingers. Probe keys are 0,
/// 2^128 - 1, random keys, and each sampled peer's id and id +- 1; at
/// most `sampled_peers` peers give boundary keys and finger checks.
void expect_same_ring(const ChordRing& ring, const RingModel& model, Rng& rng,
                      std::size_t sampled_peers) {
  const std::vector<PeerId> peers = model.peers_in_ring_order();
  ASSERT_EQ(ring.peers_in_ring_order(), peers);
  ASSERT_EQ(ring.size(), peers.size());
  if (peers.empty()) {
    EXPECT_THROW((void)ring.successor_of_key(Guid{1, 2}), std::logic_error);
    EXPECT_THROW((void)ring.predecessor_peer(Guid{1, 2}), std::logic_error);
    EXPECT_THROW((void)ring.route(0, Guid{1, 2}), std::logic_error);
    return;
  }
  const std::size_t step =
      std::max<std::size_t>(1, peers.size() / sampled_peers);
  std::vector<PeerId> sampled;
  for (std::size_t i = 0; i < peers.size(); i += step) {
    sampled.push_back(peers[i]);
  }
  std::vector<Guid> keys = {Guid{0, 0}, U128::max()};
  for (const PeerId p : sampled) {
    const Guid id = model.id_of(p);
    keys.insert(keys.end(), {id, id + U128{0, 1}, id - U128{0, 1}});
  }
  for (std::size_t i = 0; i < 64; ++i) keys.push_back(Guid{rng(), rng()});

  for (const Guid key : keys) {
    ASSERT_EQ(ring.successor_of_key(key), model.successor_of_key(key));
    ASSERT_EQ(ring.successor_peer(key), model.successor_peer(key));
    ASSERT_EQ(ring.predecessor_peer(key), model.predecessor_peer(key));
    for (int o = 0; o < 3; ++o) {
      const PeerId from = peers[rng.bounded(peers.size())];
      const ChordRing::Route got = ring.route(from, key);
      const ChordRing::Route want = model.route(from, key);
      ASSERT_EQ(got.destination, want.destination) << "from " << from;
      ASSERT_EQ(got.hops, want.hops) << "from " << from;
      const ChordRing::Lookup bill = ring.lookup(from, key);
      ASSERT_EQ(bill.destination, want.destination) << "from " << from;
      ASSERT_EQ(bill.hop_count, want.hops.size()) << "from " << from;
    }
  }
  for (const PeerId p : sampled) {
    ASSERT_EQ(ring.id_of(p), model.id_of(p));
    for (int k = 0; k < 128; ++k) {
      ASSERT_EQ(ring.finger(p, k), model.finger(p, k))
          << "peer " << p << " k " << k;
    }
  }
}

class RingModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingModelTest, ConstructorMatchesReference) {
  const auto size = static_cast<PeerId>(GetParam());
  const ChordRing ring(size);
  ring.validate();
  RingModel model;
  for (PeerId p = 0; p < size; ++p) model.join(p, peer_guid(p));
  Rng rng(1000 + size);
  ASSERT_NO_FATAL_FAILURE(expect_same_ring(ring, model, rng, 500));
}

TEST_P(RingModelTest, SparseJoinsMatchReference) {
  const std::size_t size = GetParam();
  for (const GuidStyle style :
       {GuidStyle::kHashed, GuidStyle::kPackedAcrossZero}) {
    RingModelBuilder build(style, size, 2000 + size);
    ChordRing ring;
    RingModel model;
    for (std::size_t i = 0; i < size; ++i) {
      const PeerId p = build.fresh_peer();
      const Guid id = build.fresh_guid(p);
      ring.join(p, id);
      model.join(p, id);
    }
    ring.validate();
    ASSERT_NO_FATAL_FAILURE(expect_same_ring(ring, model, build.rng(), 500));
  }
}

TEST_P(RingModelTest, JoinLeaveSequencesMatchReference) {
  // Random membership changes, each checked against the reference; a
  // ring may empty out and fill again.
  const std::size_t size = GetParam();
  const int ops = size > 100 ? 12 : 48;
  for (const GuidStyle style :
       {GuidStyle::kHashed, GuidStyle::kPackedAcrossZero}) {
    RingModelBuilder build(style, size + static_cast<std::size_t>(ops),
                           3000 + size);
    ChordRing ring;
    RingModel model;
    std::vector<PeerId> live;
    for (std::size_t i = 0; i < size; ++i) {
      const PeerId p = build.fresh_peer();
      const Guid id = build.fresh_guid(p);
      ring.join(p, id);
      model.join(p, id);
      live.push_back(p);
    }
    Rng& rng = build.rng();
    for (int op = 0; op < ops; ++op) {
      if (!live.empty() && rng.bounded(2) == 0) {
        const std::size_t at = rng.bounded(live.size());
        ring.leave(live[at]);
        model.leave(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        const PeerId p = build.fresh_peer();
        const Guid id = build.fresh_guid(p);
        ring.join(p, id);
        model.join(p, id);
        live.push_back(p);
      }
      ring.validate(/*route_samples=*/16);
      ASSERT_NO_FATAL_FAILURE(expect_same_ring(ring, model, rng, 16))
          << "after op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingModelTest,
                         ::testing::Values(1, 2, 3, 8, 64, 500));

// ---- SelfHealingRing: local tables, stabilization, repair ----

/// Oracle owner over live membership (same arc convention as ChordRing).
PeerId healing_brute_owner(const SelfHealingRing& ring, Guid key) {
  PeerId best = kInvalidPeer;
  U128 best_dist = U128::max();
  for (const PeerId p : ring.members().peers_in_ring_order()) {
    const U128 dist = ring_distance(key, ring.members().id_of(p));
    if (best == kInvalidPeer || dist < best_dist) {
      best = p;
      best_dist = dist;
    }
  }
  return best;
}

/// Sampled lookups from random live origins must land on the oracle
/// owner (the routability contract validate() also asserts).
void expect_routable(const SelfHealingRing& ring, std::uint64_t seed,
                     int samples = 100) {
  const auto live = ring.members().peers_in_ring_order();
  Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    const PeerId from = live[rng.bounded(live.size())];
    const Guid key{rng(), rng()};
    const auto route = ring.route(from, key);
    ASSERT_TRUE(route.ok);
    EXPECT_EQ(route.destination, healing_brute_owner(ring, key));
  }
}

TEST(SelfHealingRing, StartsConvergedAndRoutable) {
  const SelfHealingRing ring(32);
  EXPECT_TRUE(ring.converged());
  ring.validate(64);
  expect_routable(ring, 51);
  // Successor lists match the converged oracle.
  const auto order = ring.members().peers_in_ring_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto succ = ring.successors_of(order[i]);
    ASSERT_EQ(succ.size(), SelfHealingRing::kSuccessors);
    for (std::size_t k = 0; k < succ.size(); ++k) {
      EXPECT_EQ(succ[k], order[(i + 1 + k) % order.size()]);
    }
  }
}

TEST(SelfHealingRing, SurvivesKSuccessiveCrashes) {
  // The r = 3 successor list tolerates up to 3 consecutive simultaneous
  // failures: kill 3 ring-adjacent peers at once, stabilize, and every
  // key must resolve to the live oracle owner again.
  SelfHealingRing ring(32);
  const auto order = ring.members().peers_in_ring_order();
  for (std::size_t k = 0; k < SelfHealingRing::kSuccessors; ++k) {
    ring.crash(order[(5 + k) % order.size()]);
  }
  EXPECT_FALSE(ring.converged());
  const std::size_t rounds = ring.stabilize(8);
  EXPECT_GT(rounds, 0u);
  EXPECT_TRUE(ring.converged());
  ring.validate(64);
  expect_routable(ring, 53);
  EXPECT_GT(ring.repairs(), 0u);
}

TEST(SelfHealingRing, RoutesDuringDisruptionSkippingDeadPointers) {
  SelfHealingRing ring(32);
  const auto order = ring.members().peers_in_ring_order();
  ring.crash(order[10]);
  // Before any stabilization, pointers at other peers still name the
  // victim; lookups skip them (counted as dead probes) and keep making
  // clockwise progress instead of failing.
  std::size_t dead_probes = 0;
  Rng rng(57);
  const auto live = ring.members().peers_in_ring_order();
  for (int i = 0; i < 200; ++i) {
    const PeerId from = live[rng.bounded(live.size())];
    const auto probe = ring.route(from, Guid{rng(), rng()});
    ASSERT_TRUE(probe.ok);
    dead_probes += probe.dead_probes;
  }
  EXPECT_GT(dead_probes, 0u);  // stale pointers were seen and skipped
}

TEST(SelfHealingRing, JoinConvergesThroughStabilization) {
  SelfHealingRing ring(16);
  ring.join(100, peer_guid(100));
  EXPECT_TRUE(ring.members().contains(100));
  // The joiner bootstrapped its own tables; neighbors converge in a
  // round or two of stabilization.
  (void)ring.stabilize(8);
  EXPECT_TRUE(ring.converged());
  ring.validate(64);
  expect_routable(ring, 59);
  // The joiner now owns the arc ending at its id.
  EXPECT_EQ(ring.members().successor_of_key(peer_guid(100)), 100u);
}

TEST(SelfHealingRing, GracefulLeaveNeverBreaksRouting) {
  SelfHealingRing ring(16);
  const auto order = ring.members().peers_in_ring_order();
  ring.leave(order[4]);
  // The leaver repaired its immediate neighbors on the way out: routing
  // works before stabilization even runs.
  expect_routable(ring, 61, 50);
  (void)ring.stabilize(8);
  EXPECT_TRUE(ring.converged());
  ring.validate(64);
}

TEST(SelfHealingRing, HealsEvenBeyondSuccessorListDepth) {
  // Killing MORE than r consecutive peers exceeds the successor-list
  // guarantee; finger fallback (and, in the limit, the oracle
  // re-bootstrap) still heals the ring.
  SelfHealingRing ring(24);
  const auto order = ring.members().peers_in_ring_order();
  for (std::size_t k = 0; k < SelfHealingRing::kSuccessors + 2; ++k) {
    ring.crash(order[(3 + k) % order.size()]);
  }
  (void)ring.stabilize(16);
  EXPECT_TRUE(ring.converged());
  ring.validate(64);
  expect_routable(ring, 67);
}

TEST(SelfHealingRing, CrashDownToTwoPeersStillHeals) {
  // Degenerate shrink: crash all but two peers, one event per
  // stabilization window (the supported regime).
  SelfHealingRing ring(8);
  const auto order = ring.members().peers_in_ring_order();
  for (std::size_t i = 0; i + 2 < order.size(); ++i) {
    ring.crash(order[i]);
    (void)ring.stabilize(8);
    EXPECT_TRUE(ring.converged()) << "after crash " << i;
  }
  EXPECT_EQ(ring.members().size(), 2u);
  ring.validate(16);
  expect_routable(ring, 71, 50);
}

TEST(SelfHealingRing, MaintenanceGoldenDigest) {
  // Pins every count and pointer the maintenance protocol produces over a
  // seeded history: runs of up to kSuccessors + 2 ring-adjacent crashes,
  // graceful leaves and joins with fresh ids, up to three events back to
  // back before each stabilize(8). The digest folds the round count,
  // repair and re-bootstrap totals, convergence, every live peer's
  // successor list and predecessor, and 50 sampled routes (destination,
  // ok, dead probes, hop list) before and after each stabilization.
  Fnv f;
  for (const PeerId n : {PeerId{24}, PeerId{64}}) {
    SelfHealingRing ring(n);
    Rng rng(0x6E1D + n);
    PeerId fresh = n;
    const auto mix_routes = [&] {
      const std::vector<PeerId> live = ring.members().peers_in_ring_order();
      for (int i = 0; i < 50; ++i) {
        const PeerId from = live[rng.bounded(live.size())];
        const SelfHealingRing::Route r = ring.route(from, Guid{rng(), rng()});
        f.mix_value(r.destination);
        f.mix_value(r.ok);
        f.mix_value(r.dead_probes);
        f.mix_value(r.hops.size());
        f.mix(r.hops.data(), r.hops.size() * sizeof(PeerId));
      }
    };
    for (int step = 0; step < 10; ++step) {
      const std::uint64_t events = 1 + rng.bounded(3);
      for (std::uint64_t e = 0; e < events; ++e) {
        const std::vector<PeerId> live = ring.members().peers_in_ring_order();
        const std::uint64_t kind = rng.bounded(3);
        if (kind == 0 && live.size() > 12) {
          const std::size_t run =
              1 + rng.bounded(SelfHealingRing::kSuccessors + 2);
          const std::size_t at = rng.bounded(live.size());
          for (std::size_t k = 0; k < run; ++k) {
            ring.crash(live[(at + k) % live.size()]);
          }
        } else if (kind == 1 && live.size() > 12) {
          ring.leave(live[rng.bounded(live.size())]);
        } else {
          ring.join(fresh, peer_guid(fresh));
          ++fresh;
        }
      }
      mix_routes();
      f.mix_value(ring.stabilize(8));
      f.mix_value(ring.repairs());
      f.mix_value(ring.emergency_rebootstraps());
      f.mix_value(ring.converged());
      for (const PeerId p : ring.members().peers_in_ring_order()) {
        const std::vector<PeerId> succ = ring.successors_of(p);
        f.mix_value(p);
        f.mix_value(succ.size());
        f.mix(succ.data(), succ.size() * sizeof(PeerId));
        f.mix_value(ring.predecessor_of(p));
      }
      mix_routes();
    }
  }
  EXPECT_EQ(f.value(), 0xa7885a6e7a406a17ULL);
}

TEST(ChordRing, RoutingAfterChurn) {
  ChordRing ring(64);
  Rng rng(47);
  // Drop a third of the peers, then verify routing still lands on the
  // brute-force owner from arbitrary origins.
  for (PeerId p = 0; p < 64; p += 3) ring.leave(p);
  const auto live = ring.peers_in_ring_order();
  for (int i = 0; i < 200; ++i) {
    const PeerId from = live[rng.bounded(live.size())];
    const Guid key{rng(), rng()};
    const auto route = ring.route(from, key);
    EXPECT_EQ(route.destination, brute_force_owner(ring, key));
  }
}

}  // namespace
}  // namespace dprank
