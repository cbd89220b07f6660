#include "p2p/membership.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ios>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/guid.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "obs/metrics.hpp"
#include "p2p/placement.hpp"
#include "p2p/replication.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/options.hpp"
#include "run_digest.hpp"

namespace dprank {
namespace {

using Kind = MembershipEvent::Kind;
using Reason = MembershipCoordinator::Handoff::Reason;

Placement dht_placement(std::uint64_t num_docs, PeerId peers,
                        PeerId capacity) {
  Placement p = Placement::by_dht(num_docs, ChordRing(peers));
  p.grow_peers(capacity);
  return p;
}

TEST(MembershipCoordinator, RejectsMalformedSchedules) {
  Placement p = dht_placement(100, 8, 8);
  // Join of an already-live peer.
  EXPECT_THROW(MembershipCoordinator(p, 8, {{1, Kind::kJoin, 3}}),
               std::invalid_argument);
  // Departure of a peer that is not live.
  Placement p2 = dht_placement(100, 4, 8);
  EXPECT_THROW(MembershipCoordinator(p2, 4, {{1, Kind::kCrash, 6}}),
               std::invalid_argument);
  // Event id beyond placement capacity.
  Placement p3 = dht_placement(100, 8, 8);
  EXPECT_THROW(MembershipCoordinator(p3, 8, {{1, Kind::kJoin, 8}}),
               std::invalid_argument);
  // Schedule that empties the ring.
  Placement p4 = dht_placement(100, 2, 2);
  EXPECT_THROW(MembershipCoordinator(
                   p4, 2, {{1, Kind::kCrash, 0}, {2, Kind::kLeave, 1}}),
               std::invalid_argument);
  // Zero initial peers / capacity below the initial population.
  Placement p5 = dht_placement(100, 4, 4);
  EXPECT_THROW(MembershipCoordinator(p5, 0, {}), std::invalid_argument);
  EXPECT_THROW(MembershipCoordinator(p5, 9, {}), std::invalid_argument);
}

TEST(MembershipCoordinator, NormalizesPlacementToRingOwnership) {
  // A placement that ignores the ring is rewritten to consistent-hash
  // ownership at construction.
  Placement p = Placement::random(200, 8, /*seed=*/3);
  MembershipCoordinator m(p, 8, {});
  for (NodeId d = 0; d < p.num_docs(); ++d) {
    EXPECT_EQ(p.peer_of(d),
              m.ring().members().successor_of_key(document_guid(d)));
  }
  EXPECT_TRUE(m.quiescent());
  m.validate();
}

TEST(MembershipCoordinator, JoinSplitsArcWithPullHandoffs) {
  Placement p = dht_placement(400, 8, 9);
  MembershipCoordinator m(p, 8, {{2, Kind::kJoin, 8}});
  EXPECT_FALSE(m.quiescent());
  EXPECT_FALSE(m.begin_pass(0).any_event());
  EXPECT_FALSE(m.begin_pass(1).any_event());
  const auto& plan = m.begin_pass(2);
  EXPECT_EQ(plan.joins, (std::vector<PeerId>{8}));
  EXPECT_TRUE(m.presence()[8]);
  EXPECT_EQ(m.live_peers(), 9u);
  // Every handoff pulls a document onto the joiner, and the placement
  // already reflects the move.
  ASSERT_FALSE(plan.handoffs.empty());
  for (const auto& h : plan.handoffs) {
    EXPECT_EQ(h.to, 8u);
    EXPECT_EQ(h.reason, Reason::kJoinPull);
    EXPECT_EQ(p.peer_of(h.doc), 8u);
  }
  EXPECT_TRUE(m.quiescent());
  m.validate();
}

TEST(MembershipCoordinator, GracefulLeavePushesArcToHeir) {
  Placement p = dht_placement(400, 8, 8);
  MembershipCoordinator m(p, 8, {{1, Kind::kLeave, 3}});
  // The heir is the ring successor of the leaver's id, computed before
  // the event fires.
  (void)m.begin_pass(0);
  const auto& plan = m.begin_pass(1);
  ASSERT_EQ(plan.leaves.size(), 1u);
  EXPECT_EQ(plan.leaves[0].first, 3u);
  const PeerId heir = plan.leaves[0].second;
  EXPECT_TRUE(m.presence()[heir]);
  for (const auto& h : plan.handoffs) {
    EXPECT_EQ(h.from, 3u);
    EXPECT_EQ(h.to, heir);
    EXPECT_EQ(h.reason, Reason::kLeavePush);
  }
  EXPECT_EQ(m.detector().state(3), FailureDetector::State::kLeft);
  EXPECT_TRUE(m.quiescent());  // graceful: nothing left to detect
  m.validate();
}

TEST(MembershipCoordinator, CrashFreezesOwnershipUntilDeclared) {
  Placement p = dht_placement(400, 8, 8);
  MembershipCoordinator m(p, 8, {{1, Kind::kCrash, 5}});
  (void)m.begin_pass(0);

  const auto& crash_plan = m.begin_pass(1);
  EXPECT_EQ(crash_plan.crashes, (std::vector<PeerId>{5}));
  // Detection window: the dead peer still owns its documents and no
  // handoff has fired for them.
  EXPECT_TRUE(crash_plan.handoffs.empty());
  EXPECT_TRUE(m.undetected_crash(5));
  EXPECT_FALSE(m.quiescent());
  std::vector<NodeId> frozen;
  for (NodeId d = 0; d < p.num_docs(); ++d) {
    if (p.peer_of(d) == 5) frozen.push_back(d);
  }
  ASSERT_FALSE(frozen.empty());
  m.validate();

  // Advance until the detector verdict lands; the frozen range then
  // moves as reconstruction handoffs.
  std::uint64_t declared_pass = 0;
  std::vector<MembershipCoordinator::Handoff> handoffs;
  for (std::uint64_t pass = 2; pass < 12 && declared_pass == 0; ++pass) {
    const auto& plan = m.begin_pass(pass);
    if (!plan.declared_dead.empty()) {
      EXPECT_EQ(plan.declared_dead, (std::vector<PeerId>{5}));
      declared_pass = pass;
      handoffs = plan.handoffs;
    } else {
      EXPECT_TRUE(plan.handoffs.empty());
    }
    m.validate();
  }
  ASSERT_GT(declared_pass, 1u);
  EXPECT_FALSE(m.undetected_crash(5));
  EXPECT_TRUE(m.quiescent());
  ASSERT_EQ(m.detection_latencies().size(), 1u);
  EXPECT_EQ(m.detection_latencies()[0], declared_pass - 1);

  // Every frozen document moved off the dead owner, as kReconstruct.
  ASSERT_EQ(handoffs.size(), frozen.size());
  for (const auto& h : handoffs) {
    EXPECT_EQ(h.from, 5u);
    EXPECT_EQ(h.reason, Reason::kReconstruct);
    EXPECT_NE(p.peer_of(h.doc), 5u);
    EXPECT_TRUE(std::find(frozen.begin(), frozen.end(), h.doc) !=
                frozen.end());
  }
}

using Handoff = MembershipCoordinator::Handoff;
using HandoffRow = std::tuple<NodeId, PeerId, PeerId, Reason>;

std::vector<HandoffRow> rows(const std::vector<Handoff>& handoffs) {
  std::vector<HandoffRow> out;
  for (const Handoff& h : handoffs) {
    out.emplace_back(h.doc, h.from, h.to, h.reason);
  }
  return out;
}

/// The ownership walk recompute_ownership() used to run on every event
/// pass: each document, in ascending id, re-resolved with
/// successor_of_key against the coordinator's state after the pass.
/// Applies the moves to `owners` and returns them as handoff rows.
std::vector<HandoffRow> full_rewalk(
    const MembershipCoordinator& m,
    const MembershipCoordinator::PassPlan& plan,
    std::vector<PeerId>& owners) {
  std::vector<HandoffRow> out;
  for (NodeId d = 0; d < owners.size(); ++d) {
    const PeerId old_owner = owners[d];
    if (m.undetected_crash(old_owner)) continue;
    const PeerId now =
        m.ring().members().successor_of_key(document_guid(d));
    if (now == old_owner) continue;
    owners[d] = now;
    Reason reason;
    if (m.detector().is_dead(old_owner)) {
      reason = Reason::kReconstruct;
    } else if (std::find(plan.joins.begin(), plan.joins.end(), now) !=
               plan.joins.end()) {
      reason = Reason::kJoinPull;
    } else if (!m.presence()[old_owner]) {
      reason = Reason::kLeavePush;
    } else {
      reason = Reason::kJoinPull;
    }
    out.emplace_back(d, old_owner, now, reason);
  }
  return out;
}

/// Drives `m` through passes [0, passes) and checks every pass's
/// handoff list (order included) and the whole placement against
/// full_rewalk(). Returns every pass's handoff rows, in pass order.
std::vector<std::vector<HandoffRow>> check_against_rewalk(
    MembershipCoordinator& m, const Placement& p, std::uint64_t passes) {
  std::vector<PeerId> owners(p.num_docs());
  for (NodeId d = 0; d < p.num_docs(); ++d) owners[d] = p.peer_of(d);
  std::vector<std::vector<HandoffRow>> history;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    const auto& plan = m.begin_pass(pass);
    const std::vector<HandoffRow> expected =
        plan.any_event() ? full_rewalk(m, plan, owners)
                         : std::vector<HandoffRow>{};
    EXPECT_EQ(rows(plan.handoffs), expected) << "pass " << pass;
    std::size_t misplaced = 0;
    for (NodeId d = 0; d < p.num_docs(); ++d) {
      if (p.peer_of(d) != owners[d]) ++misplaced;
    }
    EXPECT_EQ(misplaced, 0u) << "pass " << pass;
    m.validate();
    history.push_back(rows(plan.handoffs));
  }
  return history;
}

TEST(MembershipCoordinator, OwnershipMovesMatchAFullRewalk) {
  // Seeded chaos histories: joins, leaves, crashes and their detector
  // verdicts, every pass checked against the per-document walk.
  std::uint64_t moved = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosCampaignConfig cc;
    cc.initial_peers = 12;
    cc.events = 14;
    cc.min_live = 6;
    cc.seed = seed;
    const auto schedule = make_chaos_schedule(cc);
    Placement p = dht_placement(
        2000, cc.initial_peers,
        chaos_peer_capacity(cc.initial_peers, schedule));
    MembershipCoordinator m(p, cc.initial_peers, schedule);
    const auto history =
        check_against_rewalk(m, p, schedule.back().pass + 12);
    EXPECT_TRUE(m.quiescent()) << "seed " << seed;
    for (const auto& pass : history) moved += pass.size();
  }
  EXPECT_GT(moved, 2000u);
}

TEST(MembershipCoordinator, JoinInsideAnUndetectedCrashArc) {
  // Peer 8's GUID falls in the arc of `victim`, which crashes one pass
  // before 8 joins: the joiner's arc is still frozen on the dead owner,
  // so the join moves nothing there and the declaration hands the part
  // of the arc below 8's id to the joiner.
  Placement p = dht_placement(2000, 8, 9);
  const PeerId victim = ChordRing(8).successor_of_key(peer_guid(8));
  MembershipCoordinator m(p, 8,
                          {{1, Kind::kCrash, victim}, {2, Kind::kJoin, 8}});
  const auto history = check_against_rewalk(m, p, 12);
  for (const HandoffRow& h : history[2]) {
    EXPECT_NE(std::get<1>(h), victim);  // frozen until declared
  }
  std::size_t to_joiner = 0;
  for (const auto& pass : history) {
    for (const HandoffRow& h : pass) {
      if (std::get<1>(h) == victim && std::get<2>(h) == 8) {
        EXPECT_EQ(std::get<3>(h), Reason::kReconstruct);
        ++to_joiner;
      }
    }
  }
  EXPECT_GT(to_joiner, 0u);
  EXPECT_TRUE(m.quiescent());
}

TEST(MembershipCoordinator, JoinAndLeaveInTheSamePass) {
  // Peer 8 joins inside the arc of `host`, which leaves in the same
  // pass: the joiner's arc is both a joiner arc and a leaver's documents,
  // and each of its documents must move once.
  Placement p = dht_placement(2000, 8, 9);
  const PeerId host = ChordRing(8).successor_of_key(peer_guid(8));
  MembershipCoordinator m(p, 8,
                          {{2, Kind::kJoin, 8}, {2, Kind::kLeave, host}});
  const auto history = check_against_rewalk(m, p, 6);
  std::size_t pulled = 0;
  std::size_t pushed = 0;
  for (const HandoffRow& h : history[2]) {
    EXPECT_EQ(std::get<1>(h), host);
    if (std::get<2>(h) == 8) {
      EXPECT_EQ(std::get<3>(h), Reason::kJoinPull);
      ++pulled;
    } else {
      EXPECT_EQ(std::get<3>(h), Reason::kLeavePush);
      ++pushed;
    }
  }
  EXPECT_GT(pulled, 0u);
  EXPECT_GT(pushed, 0u);
}

TEST(MembershipCoordinator, PassesMustIncrease) {
  Placement p = dht_placement(50, 4, 4);
  MembershipCoordinator m(p, 4, {});
  (void)m.begin_pass(3);
  EXPECT_THROW((void)m.begin_pass(3), std::invalid_argument);
  (void)m.begin_pass(4);
}

TEST(MembershipCoordinator, StaticMembershipLeavesEngineResultsBitExact) {
  // An attached coordinator with an empty schedule must not perturb the
  // iteration: same graph + same (normalized) placement => bit-identical
  // ranks and pass count vs. a plain run.
  const Digraph g = paper_graph(500, 11);
  PagerankOptions opt;
  opt.epsilon = 1e-3;

  Placement plain = Placement::by_dht(g.num_nodes(), ChordRing(16));
  DistributedPagerank baseline(g, plain, opt);
  const auto base_run = baseline.run();

  Placement shared = Placement::by_dht(g.num_nodes(), ChordRing(16));
  MembershipCoordinator m(shared, 16, {});
  DistributedPagerank engine(g, shared, opt);
  engine.attach_membership(m);
  const auto run = engine.run();

  EXPECT_TRUE(run.converged);
  EXPECT_EQ(run.passes, base_run.passes);
  ASSERT_EQ(engine.ranks().size(), baseline.ranks().size());
  for (NodeId d = 0; d < g.num_nodes(); ++d) {
    EXPECT_EQ(engine.ranks()[d], baseline.ranks()[d]) << "doc " << d;
  }
  EXPECT_EQ(engine.handoff_docs(), 0u);
  EXPECT_EQ(engine.stale_owner_queries(), 0u);
}

TEST(MembershipCoordinator, AttachmentGuards) {
  const Digraph g = paper_graph(100, 5);
  Placement p = Placement::by_dht(g.num_nodes(), ChordRing(4));
  MembershipCoordinator m(p, 4, {});
  PagerankOptions opt;

  // The coordinator must share the engine's placement object.
  Placement other = Placement::by_dht(g.num_nodes(), ChordRing(4));
  DistributedPagerank stranger(g, other, opt);
  EXPECT_THROW(stranger.attach_membership(m), std::invalid_argument);

  // Membership and fault-plan crashes are separate crash vocabularies.
  DistributedPagerank engine(g, p, opt);
  engine.attach_membership(m);
  FaultPlanConfig fpc;
  fpc.crashes.push_back({.pass = 1, .peer = 0});
  FaultPlan plan(fpc);
  engine.attach_fault_plan(plan);
  EXPECT_THROW((void)engine.run(), std::invalid_argument);
}

/// digest_core plus every digest_full field except PassStats::crashes,
/// which PassStatsCountCrashesUnderAFaultPlan checks on its own.
std::uint64_t digest_membership_run(const DistributedPagerank& engine,
                                    const DistributedRunResult& run) {
  Fnv f;
  mix_core(f, engine, run);
  f.mix_value(run.mass_ratio);
  f.mix_value(run.repair_rounds);
  for (const PassStats& s : engine.pass_history()) {
    f.mix_value(s.recovered_docs);
    f.mix_value(s.retransmissions);
    f.mix_value(s.repair_messages);
    f.mix_value(s.docs_deferred);
    f.mix_value(s.handoff_docs);
    f.mix_value(s.stale_owner_queries);
  }
  mix_counters(f, engine);
  return f.value();
}

// Membership events under an acked, lossy fault plan, with one replica
// per document and the mass audit: a seeded schedule of joins, a graceful
// leave and crashes (16 initial peers), 5% drops. Recorded before the
// engine composed each pass's presence in one step.
constexpr std::uint64_t kMembershipFaultGolden = 0xae9751675503c76dULL;

TEST(MembershipEngine, PassHistoryGoldenWithFaultPlan) {
  const Digraph g = paper_graph(500, 11);
  ChaosCampaignConfig cc;
  cc.initial_peers = 16;
  cc.events = 6;
  cc.min_live = 6;
  cc.event_gap_max = 1;
  cc.seed = 1;
  const std::vector<MembershipEvent> schedule = make_chaos_schedule(cc);
  const PeerId capacity = chaos_peer_capacity(cc.initial_peers, schedule);
  const auto count_kind = [&](Kind kind) {
    return std::count_if(schedule.begin(), schedule.end(),
                         [kind](const MembershipEvent& e) {
                           return e.kind == kind;
                         });
  };
  ASSERT_GT(count_kind(Kind::kJoin), 0);
  ASSERT_EQ(count_kind(Kind::kLeave), 1);
  ASSERT_GT(count_kind(Kind::kCrash), 0);
  const auto placement = [&] {
    return Placement::by_dht(g.num_nodes(), ChordRing(cc.initial_peers));
  };
  for (const std::uint32_t threads : {1u, 4u}) {
    Placement p = placement();
    // Replicas are drawn over the initial population, before the
    // placement grows to cover the joiners.
    const ReplicaRegistry replicas = ReplicaRegistry::uniform(p, 1, 5);
    p.grow_peers(capacity);
    MembershipCoordinator m(p, cc.initial_peers, schedule);
    FaultPlanConfig fpc;
    fpc.drop_probability = 0.05;
    fpc.acked_delivery = true;
    fpc.retry_max_attempts = 6;
    fpc.seed = 17;
    FaultPlan plan(fpc);
    PagerankOptions opt;
    opt.epsilon = 1e-3;
    opt.threads = threads;
    DistributedPagerank engine(g, p, opt);
    engine.attach_membership(m);
    engine.attach_replicas(replicas);
    engine.attach_fault_plan(plan);
    engine.enable_mass_audit();
    const DistributedRunResult run = engine.run();

    ASSERT_TRUE(run.converged) << "threads=" << threads;
    EXPECT_EQ(run.mass_ratio, 1.0);
    EXPECT_GT(engine.stale_owner_queries(), 0u);
    EXPECT_GT(engine.retransmissions(), 0u);
    EXPECT_GT(engine.replica_restores(), 0u);
    // The coordinator's history does not depend on the engine: a twin
    // driven through the same passes names the handoffs the run made.
    Placement twin_placement = placement();
    twin_placement.grow_peers(capacity);
    MembershipCoordinator twin(twin_placement, cc.initial_peers, schedule);
    std::array<std::uint64_t, 3> by_reason{};
    std::uint64_t handoffs = 0;
    for (std::uint64_t pass = 0; pass < run.passes; ++pass) {
      for (const Handoff& h : twin.begin_pass(pass).handoffs) {
        ++by_reason[static_cast<std::size_t>(h.reason)];
        ++handoffs;
      }
    }
    EXPECT_EQ(handoffs, engine.handoff_docs());
    EXPECT_GT(by_reason[static_cast<std::size_t>(Reason::kJoinPull)], 0u);
    EXPECT_GT(by_reason[static_cast<std::size_t>(Reason::kLeavePush)], 0u);
    EXPECT_GT(by_reason[static_cast<std::size_t>(Reason::kReconstruct)], 0u);

    const std::uint64_t digest = digest_membership_run(engine, run);
    EXPECT_EQ(digest, kMembershipFaultGolden)
        << std::hex << "digest 0x" << digest << std::dec
        << " threads=" << threads;
  }
}

TEST(MembershipEngine, PassStatsCountCrashesUnderAFaultPlan) {
  // Membership crashes count in the pass that strikes them whether or not
  // a fault plan rides along (one that schedules no crashes of its own).
  const Digraph g = paper_graph(500, 11);
  for (const bool with_plan : {false, true}) {
    Placement p = Placement::by_dht(g.num_nodes(), ChordRing(16));
    MembershipCoordinator m(p, 16,
                            {{3, Kind::kCrash, 5}, {6, Kind::kCrash, 9}});
    FaultPlanConfig fpc;
    fpc.acked_delivery = true;
    FaultPlan plan(fpc);
    PagerankOptions opt;
    opt.epsilon = 1e-3;
    DistributedPagerank engine(g, p, opt);
    engine.attach_membership(m);
    if (with_plan) engine.attach_fault_plan(plan);
    engine.enable_mass_audit();
    obs::MetricsRegistry registry;
    engine.attach_metrics(registry);
    const DistributedRunResult run = engine.run();

    EXPECT_TRUE(run.converged) << "plan=" << with_plan;
    EXPECT_EQ(engine.crashes(), 2u) << "plan=" << with_plan;
    std::uint64_t per_pass = 0;
    for (const PassStats& s : engine.pass_history()) per_pass += s.crashes;
    EXPECT_EQ(per_pass, engine.crashes()) << "plan=" << with_plan;
    const obs::MetricsSnapshot snap = registry.snapshot();
    double timeline = 0.0;
    const auto it = snap.series.find("pagerank.crash_events");
    if (it != snap.series.end()) {
      for (const auto& [pass, crashes] : it->second) timeline += crashes;
    }
    EXPECT_EQ(timeline, 2.0) << "plan=" << with_plan;
    EXPECT_EQ(snap.counters.at("pagerank.crashes"), 2u);
  }
}

}  // namespace
}  // namespace dprank
