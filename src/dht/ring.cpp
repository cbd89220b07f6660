#include "dht/ring.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace dprank {

namespace {

/// Bit width of `d`: the smallest k with 2^k > d (128 past the top bit).
int bit_width(U128 d) {
  return d.hi != 0 ? 64 + static_cast<int>(std::bit_width(d.hi))
                   : static_cast<int>(std::bit_width(d.lo));
}

}  // namespace

ChordRing::ChordRing(PeerId num_peers) {
  std::vector<std::pair<Guid, PeerId>> ring(num_peers);
  for (PeerId p = 0; p < num_peers; ++p) ring[p] = {peer_guid(p), p};
  std::sort(ring.begin(), ring.end());
  ids_.reserve(num_peers);
  peers_.reserve(num_peers);
  for (const auto& [id, peer] : ring) {
    if (!ids_.empty() && ids_.back() == id) {
      throw std::invalid_argument("ChordRing: GUID collision");
    }
    ids_.push_back(id);
    peers_.push_back(peer);
  }
  rebuild();
}

void ChordRing::join(PeerId peer, Guid id) {
  if (peer == kInvalidPeer) {
    throw std::invalid_argument("ChordRing::join: kInvalidPeer is no peer");
  }
  if (contains(peer)) {
    throw std::invalid_argument("ChordRing::join: peer already present");
  }
  const auto at = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (at != ids_.end() && *at == id) {
    throw std::invalid_argument("ChordRing::join: GUID collision");
  }
  peers_.insert(peers_.begin() + (at - ids_.begin()), peer);
  ids_.insert(at, id);
  rebuild();
}

void ChordRing::leave(PeerId peer) {
  const Pos p = position_of(peer);
  if (p == kNoPos) return;
  ids_.erase(ids_.begin() + p);
  peers_.erase(peers_.begin() + p);
  rebuild();
}

void ChordRing::rebuild() {
  const std::size_t n = ids_.size();
  PeerId max_peer = 0;
  for (const PeerId p : peers_) max_peer = std::max(max_peer, p);
  pos_of_.assign(n == 0 ? 0 : std::size_t{max_peer} + 1, kNoPos);
  for (std::size_t i = 0; i < n; ++i) {
    pos_of_[peers_[i]] = static_cast<Pos>(i);
  }

  row_begin_.assign(1, 0);
  row_begin_.reserve(n + 1);
  fingers_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    // Distinct fingers, nearest first, then reversed. Finger 0 is the
    // successor, and finger k stays the same peer while 2^k is at most
    // that peer's distance d, so the next distinct one is at
    // k = bit_width(d): one binary search per distinct finger, not one
    // per k.
    Pos f = i + 1 == n ? 0 : static_cast<Pos>(i + 1);
    while (f != i) {
      fingers_.push_back(f);
      const int k = bit_width(ids_[f] - ids_[i]);
      if (k > 127) break;
      f = position_of_key(ids_[i] + U128::pow2(k));
    }
    const auto row = static_cast<std::ptrdiff_t>(row_begin_.back());
    std::reverse(fingers_.begin() + row, fingers_.end());
    row_begin_.push_back(fingers_.size());
  }
}

ChordRing::Pos ChordRing::position_of_key(Guid key) const {
  if (ids_.empty()) {
    throw std::logic_error("ChordRing::successor_of_key: empty ring");
  }
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  return it == ids_.end() ? 0 : static_cast<Pos>(it - ids_.begin());
}

Guid ChordRing::id_of(PeerId peer) const {
  const Pos p = position_of(peer);
  if (p == kNoPos) {
    throw std::out_of_range("ChordRing::id_of: unknown peer");
  }
  return ids_[p];
}

PeerId ChordRing::successor_of_key(Guid key) const {
  return peers_[position_of_key(key)];
}

PeerId ChordRing::successor_peer(Guid id) const {
  if (ids_.empty()) {
    throw std::logic_error("ChordRing::successor_peer: empty ring");
  }
  const auto it = std::upper_bound(ids_.begin(), ids_.end(), id);
  return it == ids_.end() ? peers_.front()
                          : peers_[static_cast<std::size_t>(it - ids_.begin())];
}

PeerId ChordRing::predecessor_peer(Guid id) const {
  if (ids_.empty()) {
    throw std::logic_error("ChordRing::predecessor_peer: empty ring");
  }
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  return it == ids_.begin()
             ? peers_.back()
             : peers_[static_cast<std::size_t>(it - ids_.begin()) - 1];
}

PeerId ChordRing::finger(PeerId peer, int k) const {
  if (k < 0 || k > 127) {
    throw std::out_of_range("ChordRing::finger: k outside [0,127]");
  }
  const Pos p = position_of(peer);
  if (p == kNoPos) {
    throw std::out_of_range("ChordRing::finger: unknown peer");
  }
  // Finger k is the nearest distinct finger at least 2^k ahead; the peer
  // itself when the offset passes every other peer.
  for (std::size_t j = row_begin_[p + 1]; j > row_begin_[p]; --j) {
    const Pos f = fingers_[j - 1];
    if (ids_[f] - ids_[p] >= U128::pow2(k)) return peers_[f];
  }
  return peer;
}

template <typename OnHop>
PeerId ChordRing::walk(PeerId from, Guid key, OnHop&& on_hop) const {
  const Pos target = position_of_key(key);
  Pos current = position_of(from);
  if (current == kNoPos) {
    throw std::out_of_range("ChordRing::route: unknown peer");
  }
  const std::size_t n = ids_.size();
  // Positions ahead of `current`, clockwise. Every peer fewer positions
  // ahead than the owner lies in (current, key), and no other does.
  const auto ahead = [&](Pos p) -> std::size_t {
    return p >= current ? p - current : p + n - current;
  };
  while (current != target) {
    // The successor ends the walk when it owns the key; otherwise forward
    // to the closest preceding finger, the farthest row entry short of
    // the owner (the row's last entry, the successor, always is).
    Pos next = current + 1 == n ? 0 : current + 1;
    if (next != target) {
      const std::size_t to_target = ahead(target);
      for (std::size_t j = row_begin_[current]; j < row_begin_[current + 1];
           ++j) {
        if (ahead(fingers_[j]) < to_target) {
          next = fingers_[j];
          break;
        }
      }
    }
    on_hop(peers_[next]);
    current = next;
  }
  return peers_[target];
}

ChordRing::Route ChordRing::route(PeerId from, Guid key) const {
  Route r;
  r.destination = walk(from, key, [&](PeerId p) { r.hops.push_back(p); });
  return r;
}

ChordRing::Lookup ChordRing::lookup(PeerId from, Guid key) const {
  Lookup l;
  l.destination = walk(from, key, [&](PeerId) { ++l.hop_count; });
  return l;
}

void ChordRing::validate(std::size_t route_samples) const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "dht";
  const std::size_t n = ids_.size();
  DPRANK_INVARIANT(peers_.size() == n, kSub,
                   "the ring's GUID and peer columns differ in length");
  for (std::size_t i = 1; i < n; ++i) {
    DPRANK_INVARIANT(ids_[i - 1] < ids_[i], kSub,
                     "ring GUIDs are not strictly ascending at position " +
                         std::to_string(i));
  }
  const auto indexed = static_cast<std::size_t>(
      std::count_if(pos_of_.begin(), pos_of_.end(),
                    [](Pos p) { return p != kNoPos; }));
  DPRANK_INVARIANT(indexed == n, kSub,
                   "the position index holds " + std::to_string(indexed) +
                       " peers, the ring " + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) {
    DPRANK_INVARIANT(position_of(peers_[i]) == i, kSub,
                     "the position index is not inverse to the peer "
                     "column at peer " +
                         std::to_string(peers_[i]));
  }
  if (n == 0) return;
  DPRANK_INVARIANT(row_begin_.size() == n + 1 && row_begin_.front() == 0 &&
                       row_begin_.back() == fingers_.size() &&
                       std::is_sorted(row_begin_.begin(), row_begin_.end()),
                   kSub, "the finger rows do not partition the CSR array");

  // Independently sorted membership copy: the reference the finger rows
  // and lookups are checked against.
  std::vector<std::pair<Guid, PeerId>> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = {ids_[i], peers_[i]};
  std::sort(sorted.begin(), sorted.end());
  const auto independent_successor = [&](Guid key) -> PeerId {
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), key,
        [](const std::pair<Guid, PeerId>& e, Guid k) { return e.first < k; });
    return it == sorted.end() ? sorted.front().second : it->second;
  };

  // Finger rows (§2.4.2), sampled around the ring when the membership is
  // large: finger k is the successor of id + 2^k, and a row holds the
  // distinct fingers other than the peer itself for k = 127..0.
  const std::size_t row_step = n <= 64 ? 1 : n / 64;
  std::vector<PeerId> expected;
  for (std::size_t i = 0; i < n; i += row_step) {
    const auto [id, peer] = sorted[i];
    expected.clear();
    for (int k = 127; k >= 0; --k) {
      const PeerId f = independent_successor(id + U128::pow2(k));
      if (f != peer && (expected.empty() || expected.back() != f)) {
        expected.push_back(f);
      }
    }
    const std::size_t begin = row_begin_[i];
    bool same = row_begin_[i + 1] - begin == expected.size();
    for (std::size_t j = 0; same && j < expected.size(); ++j) {
      const Pos f = fingers_[begin + j];
      same = f < n && peers_[f] == expected[j];
    }
    DPRANK_INVARIANT(same, kSub,
                     "the finger row of peer " + std::to_string(peer) +
                         " does not match the sorted ring");
  }

  // Routability: greedy lookups resolve at the true owner within the
  // O(log N) hop budget. Probe keys mix peer-boundary ids (arc edges,
  // the off-by-one hot spots) with uniformly random keys.
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  const std::size_t hop_cap =
      std::max<std::size_t>(16, 2 * log2n + 8);
  Rng probe_rng(0x5EEDF1A6ULL);
  for (std::size_t s = 0; s < route_samples; ++s) {
    const PeerId from = sorted[probe_rng.bounded(n)].second;
    const Guid key = (s % 2 == 0)
                         ? Guid{probe_rng(), probe_rng()}
                         : sorted[probe_rng.bounded(n)].first + Guid{s};
    const Route r = route(from, key);
    DPRANK_INVARIANT(r.destination == independent_successor(key), kSub,
                     "lookup from peer " + std::to_string(from) +
                         " terminated at the wrong owner");
    DPRANK_INVARIANT(r.hops.empty() || r.hops.back() == r.destination, kSub,
                     "route does not end at its destination");
    DPRANK_INVARIANT(r.hop_count() <= hop_cap, kSub,
                     "lookup took " + std::to_string(r.hop_count()) +
                         " hops, over the O(log N) budget of " +
                         std::to_string(hop_cap));
  }
}

// ---------------------------------------------------------------------------
// SelfHealingRing

SelfHealingRing::SelfHealingRing(PeerId num_peers)
    : members_(num_peers), locals_(num_peers) {
  // Start converged: every local table equals the oracle's view.
  for (PeerId p = 0; p < num_peers; ++p) {
    const Guid id = members_.id_of(p);
    Local& l = locals_[p];
    l.successors = oracle_successors(p);
    l.predecessor = oracle_predecessor(p);
    l.fingers.resize(128);
    for (int k = 0; k < 128; ++k) {
      l.fingers[static_cast<std::size_t>(k)] =
          members_.successor_of_key(id + U128::pow2(k));
    }
  }
}

PeerId SelfHealingRing::first_live_successor(const Local& local) const {
  for (const PeerId s : local.successors) {
    if (alive(s)) return s;
  }
  return kInvalidPeer;
}

std::vector<PeerId> SelfHealingRing::oracle_successors(PeerId peer) const {
  std::vector<PeerId> out;
  const std::size_t want = std::min(kSuccessors, members_.size());
  Guid id = members_.id_of(peer);
  while (out.size() < want) {
    // Wraps to `peer` itself on tiny rings.
    out.push_back(members_.successor_peer(id));
    id = members_.id_of(out.back());
  }
  return out;
}

PeerId SelfHealingRing::oracle_predecessor(PeerId peer) const {
  return members_.predecessor_peer(members_.id_of(peer));
}

std::size_t SelfHealingRing::hop_cap() const {
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < members_.size()) ++log2n;
  // ChordRing's O(log N) budget plus slack: fingers healing round-robin
  // cost extra successor hops, never correctness.
  return std::max<std::size_t>(24, 3 * log2n + 12);
}

void SelfHealingRing::join(PeerId peer, Guid id) {
  // Bootstrap: look up our own id from the lowest-id live peer over
  // LOCAL tables (what a real join does), before entering the table; the
  // oracle is only the safety net for a lookup that fails mid-disruption.
  PeerId succ = kInvalidPeer;
  if (members_.size() != 0) {
    PeerId bootstrap = 0;
    while (!alive(bootstrap)) ++bootstrap;
    const Route found = route(bootstrap, id);
    succ = found.ok ? found.destination : members_.successor_of_key(id);
  }
  members_.join(peer, id);  // throws on a duplicate peer or GUID
  if (peer >= locals_.size()) locals_.resize(std::size_t{peer} + 1);
  Local& l = locals_[peer];
  l.next_finger = 0;
  if (succ == kInvalidPeer) {  // the first peer owns the whole ring
    l.successors = {peer};
    l.predecessor = peer;
    l.fingers.assign(128, peer);
    return;
  }
  Local& sl = locals_[succ];
  l.successors.assign(1, succ);
  for (const PeerId q : sl.successors) {
    if (l.successors.size() >= kSuccessors) break;
    if (q == peer) continue;
    if (std::find(l.successors.begin(), l.successors.end(), q) !=
        l.successors.end()) {
      continue;
    }
    l.successors.push_back(q);
  }
  // The successor's old predecessor is (very likely) ours; its finger
  // table is the best available hint until fix_fingers heals it.
  l.predecessor = sl.predecessor;
  l.fingers = sl.fingers;
  // notify(succ): we now sit in (old predecessor, succ).
  if (sl.predecessor == kInvalidPeer || !alive(sl.predecessor) ||
      in_interval_oo(id, members_.id_of(sl.predecessor),
                     members_.id_of(succ))) {
    sl.predecessor = peer;
  }
}

void SelfHealingRing::leave(PeerId peer) {
  if (!alive(peer)) return;
  const Local departing = std::exchange(locals_[peer], Local{});
  members_.leave(peer);
  if (members_.size() == 0) return;
  const PeerId succ = first_live_successor(departing);
  const PeerId pred =
      alive(departing.predecessor) ? departing.predecessor : kInvalidPeer;
  if (succ != kInvalidPeer) {
    Local& sl = locals_[succ];
    if (pred != kInvalidPeer &&
        (sl.predecessor == peer || !alive(sl.predecessor))) {
      sl.predecessor = pred;
    }
  }
  if (pred != kInvalidPeer) {
    Local& pl = locals_[pred];
    std::erase(pl.successors, peer);
    if (succ != kInvalidPeer && succ != pred &&
        std::find(pl.successors.begin(), pl.successors.end(), succ) ==
            pl.successors.end() &&
        pl.successors.size() < kSuccessors) {
      pl.successors.push_back(succ);
    }
    if (pl.successors.empty() && succ != kInvalidPeer) {
      pl.successors.push_back(succ);
    }
  }
}

void SelfHealingRing::crash(PeerId peer) {
  if (!alive(peer)) return;
  // Fail-stop: the peer's own state vanishes; everyone else's pointers
  // to it stay, stale, until stabilization prunes them.
  members_.leave(peer);
  locals_[peer] = Local{};
}

SelfHealingRing::Route SelfHealingRing::route(PeerId from, Guid key) const {
  if (members_.size() == 0) {
    throw std::logic_error("SelfHealingRing::route: empty ring");
  }
  Route r;
  const std::size_t cap = hop_cap();
  PeerId current = from;
  Guid cur_id = members_.id_of(from);  // throws on a dead origin
  while (true) {
    const Local& l = locals_[current];
    PeerId succ = kInvalidPeer;
    for (const PeerId s : l.successors) {
      if (alive(s)) {
        succ = s;
        break;
      }
      ++r.dead_probes;
    }
    if (succ == kInvalidPeer) {
      // Every successor dead: this peer's arc of the ring is unroutable
      // until stabilization rebootstraps it.
      r.destination = current;
      r.ok = false;
      return r;
    }
    if (in_interval_oc(key, cur_id, members_.id_of(succ))) {
      if (succ != current) r.hops.push_back(succ);
      r.destination = succ;
      r.ok = true;
      return r;
    }
    // Closest preceding live finger; the first live successor is the
    // guaranteed-progress fallback (key is beyond it, so it precedes
    // the key).
    PeerId next = succ;
    for (int k = 127; k >= 0; --k) {
      const PeerId f = l.fingers[static_cast<std::size_t>(k)];
      if (f == current || f == kInvalidPeer) continue;
      if (!alive(f)) {
        ++r.dead_probes;
        continue;
      }
      if (in_interval_oo(members_.id_of(f), cur_id, key)) {
        next = f;
        break;
      }
    }
    r.hops.push_back(next);
    current = next;
    cur_id = members_.id_of(current);
    if (r.hops.size() > cap) {
      r.destination = current;
      r.ok = false;
      return r;
    }
  }
}

std::size_t SelfHealingRing::stabilize_round() {
  std::size_t round_repairs = 0;
  for (PeerId p = 0; p < locals_.size(); ++p) {
    if (!alive(p)) continue;
    Local& l = locals_[p];
    const Guid pid = members_.id_of(p);
    // 1. Prune: drop dead successor entries and dead fingers (a dead
    //    finger can only cost probes, so clear it now and let
    //    fix_fingers refill).
    round_repairs += std::erase_if(
        l.successors, [&](PeerId s) { return !alive(s); });
    for (auto& f : l.fingers) {
      if (f != kInvalidPeer && !alive(f)) {
        f = kInvalidPeer;
        ++round_repairs;
      }
    }
    if (!alive(l.predecessor)) l.predecessor = kInvalidPeer;
    if (l.successors.empty()) {
      // All r successors died between rounds. Fall back to the nearest
      // live finger clockwise; only a peer with NO live pointer at all
      // asks the oracle (counted — this models a full re-bootstrap).
      PeerId best = kInvalidPeer;
      U128 best_dist = U128::max();
      for (const PeerId f : l.fingers) {
        if (f == kInvalidPeer || f == p || !alive(f)) continue;
        const U128 dist = ring_distance(pid, members_.id_of(f));
        if (best == kInvalidPeer || dist < best_dist) {
          best = f;
          best_dist = dist;
        }
      }
      if (best == kInvalidPeer) {
        best = members_.successor_peer(pid);  // p itself when alone
        if (members_.size() > 1) ++emergency_rebootstraps_;
      }
      l.successors.push_back(best);
      ++round_repairs;
    }
    // 2. stabilize(): adopt the successor's predecessor when it sits
    //    between us and the successor (this is how a joiner becomes
    //    visible to its predecessor).
    PeerId succ = l.successors.front();
    {
      const PeerId x = locals_[succ].predecessor;
      if (x != kInvalidPeer && x != p && alive(x) &&
          in_interval_oo(members_.id_of(x), pid, members_.id_of(succ))) {
        l.successors.insert(l.successors.begin(), x);
        succ = x;
        ++round_repairs;
      }
    }
    // 3. Reconcile the successor list from the successor's own list.
    {
      std::vector<PeerId> rebuilt;
      rebuilt.push_back(succ);
      for (const PeerId q : locals_[succ].successors) {
        if (rebuilt.size() >= std::min(kSuccessors, members_.size())) break;
        if (!alive(q)) continue;
        if (std::find(rebuilt.begin(), rebuilt.end(), q) != rebuilt.end()) {
          continue;
        }
        rebuilt.push_back(q);
      }
      if (rebuilt != l.successors) {
        l.successors = std::move(rebuilt);
        ++round_repairs;
      }
    }
    // 4. notify(succ): we believe we are its predecessor.
    if (succ == p) {
      if (l.predecessor != p) {
        l.predecessor = p;
        ++round_repairs;
      }
    } else {
      Local& sl = locals_[succ];
      if (sl.predecessor != p &&
          (sl.predecessor == kInvalidPeer || !alive(sl.predecessor) ||
           in_interval_oo(pid, members_.id_of(sl.predecessor),
                          members_.id_of(succ)))) {
        sl.predecessor = p;
        ++round_repairs;
      }
    }
    // 5. fix_fingers: repair the next few fingers via local lookups.
    if (l.fingers.size() != 128) l.fingers.assign(128, kInvalidPeer);
    for (int i = 0; i < kFingersPerRound; ++i) {
      const int k = l.next_finger;
      l.next_finger = (l.next_finger + 1) % 128;
      const Route found = route(p, pid + U128::pow2(k));
      if (found.ok &&
          l.fingers[static_cast<std::size_t>(k)] != found.destination) {
        l.fingers[static_cast<std::size_t>(k)] = found.destination;
        ++round_repairs;
      }
    }
  }
  repairs_ += round_repairs;
  return round_repairs;
}

std::size_t SelfHealingRing::stabilize(std::size_t max_rounds) {
  std::size_t rounds = 0;
  // Always run at least one round: even a converged ring keeps healing
  // fingers (converged() does not cover them).
  while (rounds < std::max<std::size_t>(1, max_rounds)) {
    stabilize_round();
    ++rounds;
    if (converged()) break;
  }
  return rounds;
}

bool SelfHealingRing::converged() const {
  for (PeerId p = 0; p < locals_.size(); ++p) {
    if (!alive(p)) continue;
    if (locals_[p].successors != oracle_successors(p)) return false;
    if (locals_[p].predecessor != oracle_predecessor(p)) return false;
  }
  return true;
}

std::vector<PeerId> SelfHealingRing::successors_of(PeerId peer) const {
  if (!alive(peer)) {
    throw std::out_of_range("SelfHealingRing::successors_of: unknown peer");
  }
  std::vector<PeerId> out;
  for (const PeerId s : locals_[peer].successors) {
    if (alive(s)) out.push_back(s);
  }
  return out;
}

PeerId SelfHealingRing::predecessor_of(PeerId peer) const {
  if (!alive(peer)) {
    throw std::out_of_range("SelfHealingRing::predecessor_of: unknown peer");
  }
  const PeerId pred = locals_[peer].predecessor;
  return alive(pred) ? pred : kInvalidPeer;
}

void SelfHealingRing::validate(std::size_t route_samples) const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "dht";
  members_.validate(/*route_samples=*/0);
  const std::size_t n = members_.size();
  const auto with_state = static_cast<std::size_t>(
      std::count_if(locals_.begin(), locals_.end(),
                    [](const Local& l) { return !l.fingers.empty(); }));
  DPRANK_INVARIANT(with_state == n, kSub,
                   "local routing state exists for " +
                       std::to_string(with_state) + " peers but " +
                       std::to_string(n) + " are live");
  const std::vector<PeerId> peers = members_.peers_in_ring_order();
  for (const PeerId p : peers) {
    DPRANK_INVARIANT(p < locals_.size() && locals_[p].fingers.size() == 128,
                     kSub,
                     "live peer " + std::to_string(p) +
                         " is missing its local routing state");
    DPRANK_INVARIANT(locals_[p].successors.size() <= kSuccessors, kSub,
                     "peer " + std::to_string(p) +
                         " holds an oversized successor list");
  }
  if (n == 0) return;
  DPRANK_INVARIANT(converged(), kSub,
                   "validate() called on an unconverged ring — run "
                   "stabilize() first (successor lists or predecessors "
                   "disagree with the membership oracle)");

  // Routability over LOCAL tables: same probe scheme as ChordRing.
  const std::size_t cap = hop_cap();
  Rng probe_rng(0x5EEDF1A6ULL);
  for (std::size_t s = 0; s < route_samples; ++s) {
    const PeerId from = peers[probe_rng.bounded(n)];
    const Guid key =
        (s % 2 == 0) ? Guid{probe_rng(), probe_rng()}
                     : members_.id_of(peers[probe_rng.bounded(n)]) + Guid{s};
    const Route r = route(from, key);
    DPRANK_INVARIANT(r.ok, kSub,
                     "repaired-ring lookup from peer " +
                         std::to_string(from) + " failed to complete");
    DPRANK_INVARIANT(r.destination == members_.successor_of_key(key), kSub,
                     "repaired-ring lookup from peer " +
                         std::to_string(from) +
                         " terminated at the wrong owner");
    DPRANK_INVARIANT(r.hop_count() <= cap, kSub,
                     "repaired-ring lookup took " +
                         std::to_string(r.hop_count()) +
                         " hops, over the budget of " + std::to_string(cap));
  }
}

}  // namespace dprank
