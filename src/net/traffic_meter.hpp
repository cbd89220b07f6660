#pragma once

// Network traffic accounting.
//
// Table 3 reports total and per-node pagerank update messages; §3.2's
// caching ablation needs overlay hop counts; Table 6 counts document ids
// transferred. TrafficMeter is the single ledger all layers report into
// so every bench reads consistent numbers.
//
// Since the obs subsystem landed, TrafficMeter is a thin shim over
// obs::Counter — the registry's own primitive — so the meter and a
// metrics snapshot literally read the same atomics. The arithmetic is
// unchanged from the original plain-uint64 implementation, so bench
// output is byte-identical; test_obs.cpp replays mixed op sequences
// against a legacy reference to pin that down. Every add is an atomic
// read-modify-write, so hot loops tally locally and bill in bulk
// (record_messages, record_local_updates): the distributed engine bills
// each pass's messages, hops and local updates once, whatever its
// delivery mode. The totals are sums of integers, so bulk billing
// leaves them identical to per-send billing. flush_to() publishes the
// ledger into a MetricsRegistry under the net.* names.

#include <cstdint>

#include "obs/metrics.hpp"

namespace dprank {

class TrafficMeter {
 public:
  /// One application-level message from src to dst costing `hops` overlay
  /// transmissions (1 when the IP address is known/cached, O(log N) when
  /// DHT-routed) and `bytes` on the wire per transmission.
  void record_message(std::uint64_t bytes, std::uint64_t hops = 1) noexcept {
    messages_.add(1);
    hop_transmissions_.add(hops);
    bytes_.add(bytes * hops);
  }

  /// `count` messages of `bytes_each` that took `hops` overlay
  /// transmissions between them, in one call: the same totals as `count`
  /// record_message calls whose hop counts sum to `hops`.
  void record_messages(std::uint64_t count, std::uint64_t bytes_each,
                       std::uint64_t hops) noexcept {
    messages_.add(count);
    hop_transmissions_.add(hops);
    bytes_.add(hops * bytes_each);
  }

  /// `count` direct (1-hop) messages of `bytes_each` in one call.
  void record_messages(std::uint64_t count, std::uint64_t bytes_each) noexcept {
    record_messages(count, bytes_each, count);
  }

  /// One §4.6.1 coalesced transfer: `count` updates of `payload_bytes`
  /// each riding a single wire message behind one `header_bytes` header,
  /// travelling `hops` overlay transmissions. Counts one message, `count`
  /// batched updates, and (header + count * payload) bytes per hop.
  void record_batch(std::uint64_t count, std::uint64_t payload_bytes,
                    std::uint64_t header_bytes,
                    std::uint64_t hops = 1) noexcept {
    messages_.add(1);
    batched_updates_.add(count);
    hop_transmissions_.add(hops);
    bytes_.add((header_bytes + count * payload_bytes) * hops);
  }

  /// A message delivered without the network (both documents on the same
  /// peer — Fig. 1 step b updates those "without need for network update
  /// messages").
  void record_local_update() noexcept { local_updates_.add(1); }

  /// `count` local deliveries in one call (the engine's emission loop
  /// bills a pass's same-peer updates at once).
  void record_local_updates(std::uint64_t count) noexcept {
    local_updates_.add(count);
  }

  /// A delivery retry after the destination peer was unavailable (§3.1:
  /// updates "are stored at the sender and periodically resent until
  /// delivered successfully"). Counts wire traffic but not a new message.
  void record_resend(std::uint64_t bytes) noexcept {
    resends_.add(1);
    bytes_.add(bytes);
  }

  void merge(const TrafficMeter& other) noexcept {
    messages_.add(other.messages());
    batched_updates_.add(other.batched_updates());
    local_updates_.add(other.local_updates());
    resends_.add(other.resends());
    hop_transmissions_.add(other.hop_transmissions());
    bytes_.add(other.bytes());
  }

  void reset() noexcept {
    messages_.set(0);
    batched_updates_.set(0);
    local_updates_.set(0);
    resends_.set(0);
    hop_transmissions_.set(0);
    bytes_.set(0);
  }

  /// Publish the ledger's current totals into `registry` under
  /// `net.messages`, `net.local_updates`, `net.resends`,
  /// `net.hop_transmissions`, `net.bytes` — additive, so sequential
  /// engine runs flushing into one registry accumulate process totals.
  void flush_to(obs::MetricsRegistry& registry) const {
    registry.counter("net.messages").add(messages());
    registry.counter("net.local_updates").add(local_updates());
    registry.counter("net.resends").add(resends());
    registry.counter("net.hop_transmissions").add(hop_transmissions());
    registry.counter("net.bytes").add(bytes());
    if (batched_updates() != 0) {
      registry.counter("net.batched_updates").add(batched_updates());
    }
  }

  [[nodiscard]] std::uint64_t messages() const noexcept {
    return messages_.value();
  }
  /// Updates carried inside coalesced batch messages (record_batch);
  /// zero under the classic one-message-per-update billing.
  [[nodiscard]] std::uint64_t batched_updates() const noexcept {
    return batched_updates_.value();
  }
  [[nodiscard]] std::uint64_t local_updates() const noexcept {
    return local_updates_.value();
  }
  [[nodiscard]] std::uint64_t resends() const noexcept {
    return resends_.value();
  }
  [[nodiscard]] std::uint64_t hop_transmissions() const noexcept {
    return hop_transmissions_.value();
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_.value(); }

 private:
  obs::Counter messages_;
  obs::Counter batched_updates_;
  obs::Counter local_updates_;
  obs::Counter resends_;
  obs::Counter hop_transmissions_;
  obs::Counter bytes_;
};

}  // namespace dprank
