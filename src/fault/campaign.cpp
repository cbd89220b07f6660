#include "fault/campaign.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "p2p/placement.hpp"
#include "p2p/replication.hpp"
#include "pagerank/quality.hpp"

namespace dprank {

namespace {

// Independent RNG streams per concern: reseeding one (say, a different
// replica count) must not reshuffle the membership history.
constexpr std::uint64_t kScheduleSalt = 0x43484153u;  // "CHAS"
constexpr std::uint64_t kReplicaSalt = 0x5245504Cu;   // "REPL"

}  // namespace

std::vector<MembershipEvent> make_chaos_schedule(
    const ChaosCampaignConfig& config) {
  const std::uint64_t total_weight = std::uint64_t{config.join_weight} +
                                     config.leave_weight + config.crash_weight;
  if (total_weight == 0) {
    throw std::invalid_argument("make_chaos_schedule: all weights zero");
  }
  if (config.initial_peers == 0) {
    throw std::invalid_argument("make_chaos_schedule: zero initial peers");
  }
  Rng rng(mix64(config.seed ^ kScheduleSalt));
  // Live population, kept in ascending id order: joins always append the
  // next fresh id (larger than everything present) and erasures preserve
  // order, so victim sampling is deterministic and order-independent of
  // how earlier victims were removed.
  std::vector<PeerId> live(config.initial_peers);
  for (PeerId p = 0; p < config.initial_peers; ++p) live[p] = p;
  PeerId next_join = config.initial_peers;

  std::vector<MembershipEvent> schedule;
  schedule.reserve(config.events);
  std::uint64_t pass = config.first_event_pass;
  for (std::uint64_t i = 0; i < config.events; ++i) {
    const std::uint64_t w = rng.bounded(total_weight);
    MembershipEvent::Kind kind;
    if (w < config.join_weight) {
      kind = MembershipEvent::Kind::kJoin;
    } else if (w < std::uint64_t{config.join_weight} + config.leave_weight) {
      kind = MembershipEvent::Kind::kLeave;
    } else {
      kind = MembershipEvent::Kind::kCrash;
    }
    // Live-peer floor: a departure at or below min_live becomes a join,
    // so a crash-heavy weighting cannot empty the ring.
    if (kind != MembershipEvent::Kind::kJoin && live.size() <= config.min_live) {
      kind = MembershipEvent::Kind::kJoin;
    }
    PeerId peer;
    if (kind == MembershipEvent::Kind::kJoin) {
      peer = next_join++;
      live.push_back(peer);
    } else {
      const std::size_t idx = rng.bounded(live.size());
      peer = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    schedule.push_back(MembershipEvent{pass, kind, peer});
    pass += 1 + rng.bounded(config.event_gap_max + 1);
  }
  return schedule;
}

PeerId chaos_peer_capacity(PeerId initial_peers,
                           const std::vector<MembershipEvent>& schedule) {
  PeerId capacity = initial_peers;
  for (const MembershipEvent& ev : schedule) {
    if (ev.peer >= capacity) capacity = ev.peer + 1;
  }
  return capacity;
}

ChaosCampaignReport run_chaos_campaign(const Digraph& g,
                                       const ChaosCampaignConfig& config,
                                       obs::MetricsRegistry* metrics) {
  return run_chaos_campaign(
      g, config,
      std::vector<double>(g.num_nodes(), config.options.initial_rank),
      metrics);
}

ChaosCampaignReport run_chaos_campaign(const Digraph& g,
                                       const ChaosCampaignConfig& config,
                                       std::vector<double> start_ranks,
                                       obs::MetricsRegistry* metrics) {
  const std::vector<MembershipEvent> schedule = make_chaos_schedule(config);

  ChaosCampaignReport rep;
  for (const MembershipEvent& ev : schedule) {
    switch (ev.kind) {
      case MembershipEvent::Kind::kJoin: ++rep.joins; break;
      case MembershipEvent::Kind::kLeave: ++rep.leaves; break;
      case MembershipEvent::Kind::kCrash: ++rep.crashes; break;
    }
  }

  // Placement seeded from the converged initial ring (the coordinator's
  // construction-time normalization finds nothing to move), then grown to
  // cover every id the schedule will join.
  const ChordRing seed_ring(config.initial_peers);
  Placement placement = Placement::by_dht(g.num_nodes(), seed_ring);
  // Replicas are drawn against the initial population — before the
  // capacity grows — so every replica holder is live at pass 0.
  ReplicaRegistry replicas(g.num_nodes());
  if (config.replicas > 0) {
    replicas = ReplicaRegistry::uniform(placement, config.replicas,
                                        mix64(config.seed ^ kReplicaSalt));
  }
  placement.grow_peers(chaos_peer_capacity(config.initial_peers, schedule));

  MembershipCoordinator membership(placement, config.initial_peers, schedule);

  std::optional<FaultPlan> plan;
  if (config.acked_delivery || config.drop_probability > 0.0) {
    FaultPlanConfig fpc;
    fpc.acked_delivery = config.acked_delivery;
    fpc.drop_probability = config.drop_probability;
    fpc.retry_max_attempts = config.retry_max_attempts;
    fpc.seed = config.seed;
    plan.emplace(fpc);
  }

  DistributedPagerank engine(g, placement, config.options,
                             std::move(start_ranks));
  engine.attach_membership(membership);
  if (!replicas.empty()) engine.attach_replicas(replicas);
  if (plan.has_value()) engine.attach_fault_plan(*plan);
  if (config.mass_audit) engine.enable_mass_audit(config.audit_tolerance);
  if (metrics != nullptr) engine.attach_metrics(*metrics);

  rep.result = engine.run();

  rep.handoff_docs = engine.handoff_docs();
  rep.stale_owner_queries = engine.stale_owner_queries();
  rep.outbox_dropped_dead = engine.outbox_dropped_dead();
  rep.gave_up = engine.gave_up();
  rep.retransmissions = engine.retransmissions();
  rep.recovered_docs = engine.recovered_docs();
  rep.replica_restores = engine.replica_restores();
  rep.declared_dead = membership.detector().declared_dead();
  rep.false_suspicions = membership.detector().false_suspicions();
  rep.ring_repairs = membership.ring().repairs();
  rep.emergency_rebootstraps = membership.ring().emergency_rebootstraps();
  rep.stabilize_rounds = membership.stabilize_rounds_total();
  rep.detection_latencies = membership.detection_latencies();
  for (const PassStats& p : engine.pass_history()) {
    rep.docs_recomputed += p.docs_recomputed;
  }
  rep.messages = engine.traffic().messages();
  rep.final_live_peers = membership.live_peers();
  if (const MassAuditor* auditor = engine.mass_auditor()) {
    rep.audited_known_loss = auditor->known_lost();
    rep.known_loss_events = auditor->known_loss_events();
  }
  rep.final_ranks = engine.ranks();
  rep.rank_digest = fnv1a_rank_digest(rep.final_ranks);
  return rep;
}

}  // namespace dprank
