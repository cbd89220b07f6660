#pragma once

// Seeded chaos-soak campaign (extension; DESIGN.md §10).
//
// The unit layers each model one failure mode in isolation: the
// SelfHealingRing heals pointer damage, the FailureDetector turns crash
// silence into verdicts, the MembershipCoordinator moves key ranges, the
// MassAuditor repairs leaked rank mass. A chaos soak is the integration
// question: drive a *schedule* of join/leave/crash events through the
// full engine while the §2.3 chaotic iteration is converging, sweep the
// invariant contracts as it runs, and check the end state — the ranks
// converged, every emitted contribution accounted for (mass_ratio ==
// 1.0), the ring routable after every stabilization burst, and the whole
// history bit-reproducible from one seed.
//
// make_chaos_schedule() synthesizes the membership history: events are
// drawn from a seeded RNG with configurable join/leave/crash weights,
// spaced 1..(1 + event_gap_max) passes apart, victims sampled uniformly
// from the live population, joins assigned fresh ids above the initial
// population. A live-peer floor forces joins when the population runs
// low, so a crash-heavy weighting cannot empty the ring.
//
// run_chaos_campaign() wires the full stack — DHT placement, uniform
// replicas, acked lossy delivery with a bounded retry budget (so the
// channel's gave_up terminal outcome is actually exercised), the
// membership coordinator, and the mass audit — runs to convergence, and
// returns a flat report: per-kind event counts, handoff volume,
// stale-owner queries, detection-latency samples, ring repair totals,
// work totals, and an order-sensitive digest of the final rank vector.
// Two runs with equal config and seed must produce equal digests (the
// determinism contract the chaos tests and CI job assert); different
// seeds produce different membership histories and different digests.
//
// A campaign starts every document at options.initial_rank, or warm
// from a caller's start vector (DistributedPagerank's warm start): the
// engine reaches the same fixed point either way, in fewer passes when
// the vector is close to it. The stream service's reconvergence marks
// pass the previous mark's converged vector. A start vector filled
// with initial_rank is the cold start, bit for bit.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "obs/metrics.hpp"
#include "p2p/membership.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/options.hpp"

namespace dprank {

struct ChaosCampaignConfig {
  /// Peers alive at pass 0 (ids 0..initial_peers-1).
  PeerId initial_peers = 64;
  /// Membership events to schedule (joins + leaves + crashes).
  std::uint64_t events = 40;
  /// Seeds the event schedule AND the replica/drop RNG streams.
  std::uint64_t seed = 42;

  // Event-kind mix (relative weights; crashes dominate by default
  // because they exercise the longest machinery chain).
  std::uint32_t join_weight = 1;
  std::uint32_t leave_weight = 1;
  std::uint32_t crash_weight = 2;

  /// Pass of the first event; later events follow at gaps of
  /// 1..(1 + event_gap_max) passes.
  std::uint64_t first_event_pass = 1;
  std::uint64_t event_gap_max = 2;
  /// Leaves/crashes are rerolled into joins at or below this population,
  /// so the schedule can never empty the ring.
  PeerId min_live = 8;

  /// Replicas per document (crash-range rank recovery). 0 = replica-less:
  /// reconstruction falls back to initial_rank and the audit repair
  /// re-injects the difference.
  std::uint32_t replicas = 1;

  /// Lossy acked transport: exercises retransmission, stale rejection
  /// and the bounded-budget gave_up path under membership churn.
  bool acked_delivery = true;
  double drop_probability = 0.02;
  std::uint32_t retry_max_attempts = 6;

  /// Quiescence audit + leak re-injection (mass_ratio == 1.0 at exit).
  bool mass_audit = true;
  double audit_tolerance = 1e-9;

  PagerankOptions options{};
};

/// One campaign's end state, flattened for JSON export and assertions.
struct ChaosCampaignReport {
  DistributedRunResult result{};

  // Schedule composition actually generated.
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t crashes = 0;

  // Membership machinery totals (engine + coordinator + detector + ring).
  std::uint64_t handoff_docs = 0;
  std::uint64_t stale_owner_queries = 0;
  std::uint64_t outbox_dropped_dead = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t declared_dead = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t ring_repairs = 0;
  std::uint64_t emergency_rebootstraps = 0;
  std::uint64_t stabilize_rounds = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t recovered_docs = 0;
  std::uint64_t replica_restores = 0;
  /// Crash-to-verdict latency per declared death, schedule order.
  std::vector<std::uint64_t> detection_latencies;
  /// MassAuditor known-loss ledger at exit (crash wipes, declared-dead
  /// evictions, gave-up records). With the audit enabled these losses
  /// are re-injected (mass_ratio returns to 1.0); with it disabled they
  /// are the bounded, *accounted* degradation the negative tests assert
  /// — lost mass is known, not silently leaked.
  double audited_known_loss = 0.0;
  std::uint64_t known_loss_events = 0;

  /// Work totals: documents recomputed over all passes, and wire
  /// messages in the engine's traffic ledger.
  std::uint64_t docs_recomputed = 0;
  std::uint64_t messages = 0;

  PeerId final_live_peers = 0;
  /// Converged rank vector at campaign exit, document order. The stream
  /// subsystem's batched reconvergence adopts these wholesale.
  std::vector<double> final_ranks;
  /// FNV-1a over the bit patterns of the final rank vector, in document
  /// order — equal configs and seeds must produce equal digests.
  std::uint64_t rank_digest = 0;
};

/// Synthesize the seeded membership-event schedule described above.
/// Deterministic from the config. Throws std::invalid_argument when the
/// weights are all zero or the initial population is empty.
[[nodiscard]] std::vector<MembershipEvent> make_chaos_schedule(
    const ChaosCampaignConfig& config);

/// Peer-id capacity the schedule needs: initial_peers plus one slot per
/// scheduled join.
[[nodiscard]] PeerId chaos_peer_capacity(
    PeerId initial_peers, const std::vector<MembershipEvent>& schedule);

/// Build the full stack and run one campaign over `g`, every document
/// starting at config.options.initial_rank. Publishes engine telemetry
/// into `metrics` when non-null.
[[nodiscard]] ChaosCampaignReport run_chaos_campaign(
    const Digraph& g, const ChaosCampaignConfig& config,
    obs::MetricsRegistry* metrics = nullptr);

/// The same campaign warm-started from `start_ranks` (one entry per
/// document of `g`). Throws std::invalid_argument on a size mismatch.
[[nodiscard]] ChaosCampaignReport run_chaos_campaign(
    const Digraph& g, const ChaosCampaignConfig& config,
    std::vector<double> start_ranks, obs::MetricsRegistry* metrics = nullptr);

}  // namespace dprank
