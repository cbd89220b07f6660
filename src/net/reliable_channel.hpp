#pragma once

// Sequence-numbered, acknowledged delivery (extension).
//
// The paper assumes reliable transport for direct sends and falls back to
// §3.1 store-and-resend only for peers known to be offline (the engine
// parks those updates per out-edge). On lossy transport a dropped update
// silently leaves a stale contribution at the receiver. ReliableChannel
// closes that gap with the classic ARQ recipe, adapted to the pass
// simulator's time base:
//
//   * every logical flow is a 64-bit slot (the engines use the sender's
//     out-edge id, the same key their parked updates use);
//   * each emission on a slot gets a monotonically increasing sequence
//     number; receivers accept a value only if its sequence number is
//     newer than the last one applied (stale reordered values are
//     rejected, duplicates suppressed);
//   * an unacked send is retransmitted after an exponentially backed-off
//     number of passes until the ack arrives. Retransmissions always carry
//     the *newest* emission for the slot — pagerank updates are
//     idempotent-by-latest, so at most one in-flight record per slot is
//     needed (the same linear-in-outlinks bound as §3.1's stored
//     updates);
//   * retransmission is bounded when the caller asks for it: with
//     Config::max_attempts set, a record whose retry budget is exhausted
//     (or whose destination the failure detector declared permanently
//     dead — give_up_on_dest()) reaches the `gave_up` terminal outcome
//     instead of backing off forever. Given-up records queue for the
//     caller (take_gave_up()) so the lost rank mass can be fed to the
//     MassAuditor rather than silently leaking.
//
// Conservation ledger: every record that enters the in-flight table exits
// through exactly one of ack, forget_sender, take_due or give_up_on_dest;
// validate() enforces tracked == acked + forgotten + taken + gave_up +
// in_flight.
//
// Storage: one EdgeRecord per slot holds both sides of the sequence state
// (newest issued, newest applied). Slots are dense small integers, so
// the records sit in a plain array indexed by slot: next_seq and accept
// are one indexed load and store, with no hash probe. The engine sizes
// the array to its edge count up front; a slot beyond the array grows
// it (standalone use and tests). In-flight entries are sparse and live
// in an open-addressing flat map (common/flat_map.hpp); everything whose
// order the simulation can observe (take_due, forget_sender) is sorted
// by slot on extraction.
//
// The class is transport-agnostic bookkeeping: the engine decides what a
// "send" is, asks the fault plan whether it survived, and reports the
// outcome here.

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"

namespace dprank {

class ReliableChannel {
 public:
  struct Config {
    std::uint32_t ack_timeout_passes = 1;  // passes before the first retry
    std::uint32_t retry_backoff_cap = 16;  // max passes between retries
    /// Retransmission budget per record: a track() whose `attempt` has
    /// reached this many retries gives up instead of re-arming the timer.
    /// 0 = retry forever (the legacy behaviour; dangerous under permanent
    /// departure — pair a bound with a failure detector).
    std::uint32_t max_attempts = 0;
  };

  struct Pending {
    std::uint64_t slot = 0;
    std::uint32_t dest = 0;
    std::uint32_t src = 0;
    double value = 0.0;
    std::uint32_t seq = 0;
    std::uint32_t attempt = 0;  // retries already performed
    /// Causal trace id (obs/trace.hpp) riding along so retransmissions
    /// stay on the original message's journey; 0 = untraced.
    std::uint64_t trace = 0;
  };

  ReliableChannel() = default;
  /// `num_slots` sizes the per-slot records for slots [0, num_slots).
  explicit ReliableChannel(Config config, std::uint64_t num_slots = 0)
      : config_(config), edges_(num_slots) {}

  /// Next sequence number for `slot` (first emission gets 1).
  [[nodiscard]] std::uint32_t next_seq(std::uint64_t slot) {
    return ++record(slot).issued;
  }

  /// Record an unacked send awaiting retransmission. A newer emission for
  /// the same slot supersedes the old record (newest-value-wins). With
  /// Config::max_attempts set, a send whose retry budget is exhausted is
  /// not re-armed: it reaches the `gave_up` terminal outcome and queues
  /// for take_gave_up() instead.
  void track(const Pending& send, std::uint64_t pass);

  /// The ack for `slot` covering sequence numbers <= `seq` arrived: clear
  /// the in-flight record unless a newer emission is already pending.
  void ack(std::uint64_t slot, std::uint32_t seq);

  /// Remove and return every in-flight record due for retransmission at
  /// `pass`, in slot order (deterministic). The caller re-sends each and
  /// either re-track()s it (dropped again, attempt + 1) or ack()s it.
  [[nodiscard]] std::vector<Pending> take_due(std::uint64_t pass);

  /// Drop all in-flight records whose *sender* is `src` — a crashed peer
  /// loses its retransmission state. Returns the records lost, in slot
  /// order, so the caller can account the leaked rank mass.
  std::vector<Pending> forget_sender(std::uint32_t src);

  /// Stop retransmitting to `dest` — the failure detector declared the
  /// peer permanently dead, so no ack can ever arrive. Every in-flight
  /// record addressed to it reaches the `gave_up` terminal outcome and is
  /// returned in slot order (and also queued for take_gave_up()) so the
  /// caller can account the lost rank mass.
  std::vector<Pending> give_up_on_dest(std::uint32_t dest);

  /// Drain the records that reached the `gave_up` terminal outcome since
  /// the last call (budget exhaustion via track(), or give_up_on_dest()),
  /// in the order they gave up. Each appears exactly once.
  [[nodiscard]] std::vector<Pending> take_gave_up();

  /// Transfer retransmission responsibility for every in-flight record
  /// whose sender is `src` to `heir` — a gracefully leaving peer hands
  /// its unacked sends to its ring successor instead of losing them.
  /// Returns how many records moved.
  std::uint64_t reassign_sender(std::uint32_t src, std::uint32_t heir);

  /// Receiver-side filter: true when `seq` is fresher than everything
  /// already applied on `slot` (and records it as applied). Stale values
  /// and duplicates return false and bump the respective counter.
  [[nodiscard]] bool accept(std::uint64_t slot, std::uint32_t seq);

  [[nodiscard]] std::uint64_t in_flight() const { return inflight_.size(); }
  [[nodiscard]] bool idle() const { return inflight_.empty(); }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t stale_rejected() const {
    return stale_rejected_;
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_;
  }
  [[nodiscard]] std::uint64_t peak_in_flight() const {
    return peak_in_flight_;
  }
  /// Records that reached the `gave_up` terminal outcome (budget
  /// exhaustion + declared-dead destinations), drained or not.
  [[nodiscard]] std::uint64_t gave_up() const { return gave_up_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Bytes held by the per-slot sequence records (capacity).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(edges_.capacity()) * sizeof(EdgeRecord);
  }

  /// Structural invariant walk (contracts.hpp; subsystem "net"):
  ///  * per-slot sequence monotonicity — nothing applied on a slot is
  ///    fresher than the newest sequence number ever issued for it
  ///    (record.applied <= record.issued);
  ///  * every in-flight record is keyed by its own slot, carries a
  ///    sequence number that was actually issued (1 <= send.seq <=
  ///    record.issued), and at most one record exists per slot (the
  ///    linear-in-outlinks bound);
  ///  * conservation ledger — every record that entered the in-flight
  ///    table left through exactly one exit: tracked == acked +
  ///    forgotten + taken + gave_up_removed + in_flight (the new
  ///    `gave_up` exit balances like every other);
  ///  * the undrained give-up queue never exceeds the total give-up
  ///    count;
  ///  * peak_in_flight() never understates the live in-flight count.
  /// Throws contracts::ContractViolation on the first violation; no-op
  /// when contracts are compiled out.
  void validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates
  /// Both halves of a slot's sequence state. An `applied` without a local
  /// `issued` only happens when two channel instances split sender and
  /// receiver roles; the simulator shares one instance.
  struct EdgeRecord {
    std::uint32_t issued = 0;   // newest sequence number handed out
    std::uint32_t applied = 0;  // newest sequence number accepted
  };
  struct Inflight {
    Pending send;
    std::uint64_t retry_at = 0;
  };

  [[nodiscard]] std::uint64_t retry_interval(std::uint32_t attempt) const;
  EdgeRecord& record(std::uint64_t slot) {
    if (slot >= edges_.size()) edges_.resize(slot + 1);
    return edges_[slot];
  }

  Config config_;
  std::vector<EdgeRecord> edges_;  // indexed by slot
  FlatMap64<Inflight> inflight_;
  std::vector<Pending> gave_up_queue_;  // awaiting take_gave_up()
  std::uint64_t retransmissions_ = 0;
  std::uint64_t stale_rejected_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  std::uint64_t gave_up_ = 0;
  // Conservation ledger (validate()): in-flight entries created vs the
  // exits they left through.
  std::uint64_t tracked_ = 0;           // insertions into inflight_
  std::uint64_t acked_clears_ = 0;      // removed by ack()
  std::uint64_t forgotten_ = 0;         // removed by forget_sender()
  std::uint64_t taken_ = 0;             // removed by take_due()
  std::uint64_t gave_up_removed_ = 0;   // removed by give_up_on_dest()
};

}  // namespace dprank
