#pragma once

// Heartbeat-based failure detection (extension; ROADMAP items 1 and 5).
//
// The paper detects unavailability implicitly ("when a peer is detected
// as unavailable", §3.1) and assumes every departed peer eventually
// returns. Permanent departure breaks that: the engine parks updates and
// the ReliableChannel backs off forever for a peer that will never ack.
// FailureDetector closes the loop with the classic heartbeat recipe on
// the pass simulator's time base (all timeouts are Eq. 4 passes, so
// detection is deterministic for a fixed schedule):
//
//   * every live peer heartbeats once per pass (the engine calls
//     heartbeat() for each peer present in the pass);
//   * a peer silent for >= suspect_after_passes is *suspected*; each
//     further silent pass raises the suspicion count;
//   * confirm_after_suspicions suspicions confirm the peer *dead* — a
//     permanent, irrevocable verdict that tick() reports exactly once so
//     callers can evict parked updates, abandon in-flight
//     retransmissions (give_up_on_dest) and trigger ring repair;
//   * a heartbeat from a suspected peer clears the suspicion (counted in
//     false_suspicions() — the observability hook for tuning timeouts);
//   * gracefully leaving peers are marked kLeft out-of-band and never
//     raise a suspicion.
//
// The verdict lands suspect_after_passes + confirm_after_suspicions - 1
// passes after the last heartbeat: with the defaults (suspect after 2
// silent passes, confirm on the 2nd suspicion) the detection latency is
// 3 passes.
//
// This is a *perfect* failure detector in the simulator (no network
// asymmetry), but the suspicion machinery models the eventually-perfect
// detector a real transport needs, and the false-suspicion counter is
// the knob-tuning signal a deployment would watch.

#include <cstdint>
#include <vector>

#include "dht/ring.hpp"  // PeerId

namespace dprank {

class FailureDetector {
 public:
  struct Config {
    /// Silent passes before a peer becomes suspected (>= 1).
    std::uint64_t suspect_after_passes = 2;
    /// Consecutive suspicions that confirm death (>= 1).
    std::uint32_t confirm_after_suspicions = 2;
  };

  enum class State : std::uint8_t {
    kUnmonitored = 0,  // never heartbeat, not tracked
    kAlive = 1,
    kSuspected = 2,
    kDead = 3,  // permanent (fail-stop): never leaves this state
    kLeft = 4,  // graceful departure; permanent, never suspected
  };

  FailureDetector() = default;
  explicit FailureDetector(Config config) : config_(config) {}

  /// Start monitoring `peer` as alive with a heartbeat at `pass`.
  /// Heartbeats auto-monitor, so this is only needed to begin the
  /// silence clock before the first heartbeat. No-op on dead/left peers.
  void monitor(PeerId peer, std::uint64_t pass) { heartbeat(peer, pass); }

  /// `peer` was heard from during `pass`. A suspected peer is exonerated
  /// (false_suspicions() counts the near-miss); a dead or left verdict
  /// is permanent and the heartbeat is ignored.
  void heartbeat(PeerId peer, std::uint64_t pass);

  /// `peer` departed gracefully: permanently out, but never a suspicion
  /// and never reported by tick().
  void mark_left(PeerId peer);

  /// End-of-pass sweep: advance suspicion state for every monitored peer
  /// and return the peers newly confirmed dead this pass, in ascending
  /// id order (deterministic). Each dead peer is reported exactly once.
  [[nodiscard]] std::vector<PeerId> tick(std::uint64_t pass);

  [[nodiscard]] State state(PeerId peer) const {
    return peer < records_.size() ? records_[peer].state
                                  : State::kUnmonitored;
  }
  [[nodiscard]] bool is_dead(PeerId peer) const {
    return state(peer) == State::kDead;
  }
  /// Alive or merely suspected — a suspected peer may still come back.
  [[nodiscard]] bool considers_live(PeerId peer) const {
    const State s = state(peer);
    return s == State::kAlive || s == State::kSuspected;
  }

  [[nodiscard]] std::uint64_t suspicions_raised() const {
    return suspicions_raised_;
  }
  [[nodiscard]] std::uint64_t false_suspicions() const {
    return false_suspicions_;
  }
  [[nodiscard]] std::uint64_t declared_dead() const { return declared_dead_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Structural invariant walk (contracts.hpp; subsystem "net"):
  ///  * suspicion counts only on suspected peers, and always below the
  ///    confirmation threshold (a peer at the threshold is dead);
  ///  * declared_dead() equals the number of peers in State::kDead;
  ///  * suspicions raised >= false suspicions + deaths (every suspicion
  ///    either resolved false or contributed to a verdict).
  void validate() const;

 private:
  struct Record {
    State state = State::kUnmonitored;
    std::uint64_t last_heard = 0;
    std::uint32_t suspicion = 0;
  };

  Record& record_for(PeerId peer) {
    if (peer >= records_.size()) records_.resize(peer + 1);
    return records_[peer];
  }

  Config config_;
  std::vector<Record> records_;  // indexed by peer id (dense, ascending)
  std::uint64_t suspicions_raised_ = 0;
  std::uint64_t false_suspicions_ = 0;
  std::uint64_t declared_dead_ = 0;
};

}  // namespace dprank
