#pragma once

// Unified crash-fault injection plan (extension).
//
// The paper's availability story (§3.1, Table 1) models *graceful* churn:
// peers announce absence and the store-and-resend outbox covers them. Real
// P2P deployments also see message loss, duplication, reordering, delivery
// delay, fail-stop peer crashes (which destroy in-flight sender state, not
// just presence) and network partitions. FaultPlan is the single vocabulary
// for all of these: a deterministic, seeded schedule the pass simulator
// drives one pass at a time.
//
// Composition semantics, applied per cross-peer send in this order:
//   1. partition  — if sender and destination sit on opposite sides of the
//      active bipartition the message cannot be sent at all; the engine
//      parks it in the §3.1 outbox until the partition heals (partitions
//      are transport outages, not probabilistic faults).
//   2. drop       — the message vanishes in transit (sender still pays).
//   3. duplicate  — the message is delivered twice (traffic cost only;
//      receivers either dedupe by sequence number or rely on the
//      newest-value-wins contribution cells).
//   4. delay/reorder — the message is held in flight for base_delay_passes
//      plus, with reorder_probability, a uniform extra 1..reorder_window
//      passes. Unequal extra delays let messages overtake each other,
//      which is exactly the out-of-order hazard sequence numbers guard.
// Crashes are a per-pass event, not a per-send fate: a crashing peer loses
// its outbox and its stored (un-applied) contributions, goes offline for
// crash_downtime_passes, and must run recovery when it returns. Note that
// NOT all churn is graceful: a FaultPlan crash is fail-stop WITH state
// loss — only graceful §3.1 churn (ChurnSchedule) preserves every parked
// update. FaultPlan crashes are still *temporary* (the peer returns after
// its downtime); permanent fail-stop departure — the peer never returns,
// its key range must move, and a failure detector must declare it dead —
// is the dynamic-membership vocabulary (p2p/membership.hpp), scheduled as
// MembershipEvents rather than CrashEvents.
//
// Determinism: every decision is a pure function of the seed and the call
// sequence. The engine iterates peers, senders and edges in deterministic
// order, so a given (graph, placement, plan seed) triple always replays the
// identical fault history. Send fates and crash sampling draw from
// independent RNG streams so adding crash pressure does not reshuffle the
// drop pattern.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dht/ring.hpp"

namespace dprank {

/// Fail-stop crash of `peer` at the start of `pass`.
struct CrashEvent {
  std::uint64_t pass = 0;
  PeerId peer = 0;
};

/// Bipartition of the peer set for `duration_passes` starting at
/// `start_pass`: roughly `fraction` of the peers land on side A (the side
/// of each peer is a deterministic hash of the seed and the event), and no
/// message crosses the cut while the partition is active.
struct PartitionEvent {
  std::uint64_t start_pass = 0;
  std::uint64_t duration_passes = 1;
  double fraction = 0.5;
};

struct FaultPlanConfig {
  // Per-send probabilistic faults.
  double drop_probability = 0.0;       // message vanishes in transit
  double duplicate_probability = 0.0;  // message delivered twice

  // Delivery latency: every delivered message is visible
  // 1 + base_delay_passes passes after the send; with
  // reorder_probability it is additionally held a uniform
  // 1..reorder_window passes (reorder_window == 0 disables reordering).
  std::uint32_t base_delay_passes = 0;
  double reorder_probability = 0.0;
  std::uint32_t reorder_window = 0;

  // Crashes: explicit schedule plus an optional per-peer-per-pass rate.
  std::vector<CrashEvent> crashes;
  double crash_probability = 0.0;
  std::uint32_t crash_downtime_passes = 2;

  // Partitions: explicit schedule (at most one active at a time; a later
  // event starting while another is active supersedes it).
  std::vector<PartitionEvent> partitions;

  // Net-layer reliability: acknowledged delivery with sequence numbers.
  // Dropped messages are detected by ack timeout and retransmitted with
  // exponential backoff; receivers reject stale (out-of-order) values and
  // suppress duplicates by sequence number.
  bool acked_delivery = false;
  std::uint32_t ack_timeout_passes = 1;   // passes before first retry
  std::uint32_t retry_backoff_cap = 16;   // max passes between retries
  /// Retransmission budget per record; 0 = retry forever. Pair a bound
  /// with the failure detector under permanent departure, so abandoned
  /// sends reach the channel's `gave_up` terminal outcome and their rank
  /// mass is audited instead of leaking.
  std::uint32_t retry_max_attempts = 0;

  std::uint64_t seed = 42;
};

/// The fate of one cross-peer send (partitions are decided separately via
/// reachable()).
struct SendFate {
  bool dropped = false;
  bool duplicated = false;
  std::uint32_t delay_passes = 0;  // extra passes beyond the usual +1
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  /// Per-pass driver hook: activates/retires partitions and collects the
  /// crashes striking at the start of `pass` (explicit events plus random
  /// sampling over `num_peers`). Passes must be requested in increasing
  /// order; each pass may be begun once.
  [[nodiscard]] std::vector<PeerId> begin_pass(std::uint64_t pass,
                                               PeerId num_peers);

  /// True when no active partition separates `a` from `b`.
  [[nodiscard]] bool reachable(PeerId a, PeerId b) const;
  [[nodiscard]] bool partition_active() const { return partition_active_; }

  /// Decide the fate of one cross-peer send. Consumes the fate RNG stream:
  /// call in deterministic send order.
  [[nodiscard]] SendFate fate_for_send();

  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t crashes_injected() const {
    return crashes_injected_;
  }
  [[nodiscard]] std::uint64_t partitions_activated() const {
    return partitions_activated_;
  }

 private:
  [[nodiscard]] bool side_of(PeerId p) const;

  FaultPlanConfig config_;
  bool message_faults_ = false;  // any per-send probabilistic fault enabled
  bool delay_enabled_ = false;
  // Per-send fate stream. Its seed and draw order are pinned by the fault
  // golden digests: changing either changes every faulty run's history.
  Rng fate_rng_;
  Rng crash_rng_;
  std::uint64_t next_pass_ = 0;
  bool partition_active_ = false;
  std::uint64_t partition_end_ = 0;
  std::uint64_t partition_salt_ = 0;
  double partition_fraction_ = 0.5;
  std::uint64_t crashes_injected_ = 0;
  std::uint64_t partitions_activated_ = 0;
};

}  // namespace dprank
