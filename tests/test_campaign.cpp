#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <stdexcept>
#include <vector>

#include "graph/generator.hpp"
#include "run_digest.hpp"

namespace dprank {
namespace {

/// Small-but-real soak: enough peers and events to exercise every
/// handoff kind, small enough to run in a unit-test budget.
ChaosCampaignConfig small_config(std::uint64_t seed) {
  ChaosCampaignConfig cfg;
  cfg.initial_peers = 16;
  cfg.events = 12;
  cfg.seed = seed;
  cfg.min_live = 6;
  cfg.event_gap_max = 1;
  cfg.options.epsilon = 1e-3;
  cfg.options.threads = 1;
  cfg.options.validate_every_n_passes = 4;
  return cfg;
}

TEST(ChaosSchedule, DeterministicAndWellFormed) {
  const ChaosCampaignConfig cfg = small_config(42);
  const auto a = make_chaos_schedule(cfg);
  const auto b = make_chaos_schedule(cfg);
  ASSERT_EQ(a.size(), cfg.events);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pass, b[i].pass);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].peer, b[i].peer);
  }
  // Passes non-decreasing, every event at or after the first-event pass.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].pass, a[i - 1].pass);
  }
  EXPECT_GE(a.front().pass, cfg.first_event_pass);
  // Replaying the schedule never drops the live population below the
  // floor (departures at the floor are rerolled into joins).
  std::uint64_t live = cfg.initial_peers;
  for (const auto& ev : a) {
    if (ev.kind == MembershipEvent::Kind::kJoin) {
      ++live;
    } else {
      EXPECT_GT(live, cfg.min_live);
      --live;
    }
  }
}

TEST(ChaosSchedule, DifferentSeedsDifferentHistories) {
  const auto a = make_chaos_schedule(small_config(1));
  const auto b = make_chaos_schedule(small_config(2));
  bool any_diff = a.size() != b.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i) {
    any_diff = a[i].pass != b[i].pass || a[i].kind != b[i].kind ||
               a[i].peer != b[i].peer;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosSchedule, RejectsDegenerateConfigs) {
  ChaosCampaignConfig cfg = small_config(42);
  cfg.join_weight = cfg.leave_weight = cfg.crash_weight = 0;
  EXPECT_THROW((void)make_chaos_schedule(cfg), std::invalid_argument);
  ChaosCampaignConfig cfg2 = small_config(42);
  cfg2.initial_peers = 0;
  EXPECT_THROW((void)make_chaos_schedule(cfg2), std::invalid_argument);
}

TEST(ChaosCampaign, ConvergesWithMassConservedUnderReplicas) {
  const Digraph g = paper_graph(400, 9);
  const ChaosCampaignConfig cfg = small_config(42);
  const ChaosCampaignReport rep = run_chaos_campaign(g, cfg);

  EXPECT_TRUE(rep.result.converged);
  EXPECT_EQ(rep.joins + rep.leaves + rep.crashes, cfg.events);
  // Acceptance bar: with >= 1 replica per document the audited rank mass
  // is fully accounted at exit.
  EXPECT_NEAR(rep.result.mass_ratio, 1.0, 1e-9);
  // Every crash was eventually declared (the run cannot converge while
  // one is pending), each with a recorded detection latency.
  EXPECT_EQ(rep.declared_dead, rep.crashes);
  EXPECT_EQ(rep.detection_latencies.size(), rep.crashes);
  for (const auto lat : rep.detection_latencies) {
    EXPECT_GE(lat, 1u);
    EXPECT_LE(lat, 8u);
  }
  if (rep.crashes > 0) {
    // Crashed ranges moved and the detection window was observable.
    EXPECT_GT(rep.handoff_docs, 0u);
    EXPECT_GT(rep.outbox_dropped_dead + rep.stale_owner_queries +
                  rep.known_loss_events,
              0u);
  }
  EXPECT_EQ(rep.final_live_peers,
            cfg.initial_peers + rep.joins - rep.leaves - rep.crashes);
  EXPECT_EQ(rep.emergency_rebootstraps, 0u);  // churn is paced, never r-deep
}

TEST(ChaosCampaign, BitReproducibleForFixedSeed) {
  const Digraph g = paper_graph(300, 9);
  const ChaosCampaignConfig cfg = small_config(7);
  const ChaosCampaignReport a = run_chaos_campaign(g, cfg);
  const ChaosCampaignReport b = run_chaos_campaign(g, cfg);
  EXPECT_EQ(a.rank_digest, b.rank_digest);
  EXPECT_EQ(a.result.passes, b.result.passes);
  EXPECT_EQ(a.handoff_docs, b.handoff_docs);
  EXPECT_EQ(a.stale_owner_queries, b.stale_owner_queries);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.detection_latencies, b.detection_latencies);

  const ChaosCampaignReport c = run_chaos_campaign(g, small_config(8));
  EXPECT_NE(c.rank_digest, a.rank_digest);
}

/// Everything a campaign reports, folded into one digest.
std::uint64_t campaign_digest(const ChaosCampaignReport& rep) {
  Fnv f;
  f.mix_value(rep.rank_digest);
  f.mix_value(rep.result.passes);
  f.mix_value(rep.result.converged);
  f.mix_value(rep.result.mass_ratio);
  f.mix_value(rep.result.repair_rounds);
  for (const std::uint64_t c :
       {rep.joins, rep.leaves, rep.crashes, rep.handoff_docs,
        rep.stale_owner_queries, rep.outbox_dropped_dead, rep.gave_up,
        rep.declared_dead, rep.false_suspicions, rep.ring_repairs,
        rep.stabilize_rounds, rep.retransmissions, rep.recovered_docs,
        rep.replica_restores, rep.known_loss_events}) {
    f.mix_value(c);
  }
  for (const std::uint64_t lat : rep.detection_latencies) f.mix_value(lat);
  f.mix_value(rep.audited_known_loss);
  return f.value();
}

// Membership handoffs, crash-range reconstruction, lossy acked sends and
// the quiescence audit in one seeded campaign (16 peers, 8 events),
// pinned by a digest recorded on the engine before its pass pipeline was
// unified.
constexpr std::uint64_t kGoldenCampaignDigest = 0xfa28e7235d254f02ULL;

ChaosCampaignConfig golden_config(std::uint32_t threads) {
  ChaosCampaignConfig cfg = small_config(42);
  cfg.events = 8;
  cfg.options.threads = threads;
  return cfg;
}

TEST(ChaosCampaign, GoldenDigestAtOneAndFourThreads) {
  const Digraph g = paper_graph(400, 9);
  for (const std::uint32_t threads : {1u, 4u}) {
    const std::uint64_t digest =
        campaign_digest(run_chaos_campaign(g, golden_config(threads)));
    EXPECT_EQ(digest, kGoldenCampaignDigest)
        << std::hex << "digest 0x" << digest << std::dec
        << " threads=" << threads;
  }
}

TEST(ChaosCampaign, InitialRankStartVectorIsTheColdStart) {
  // The warm-start entry point given initial_rank everywhere is the cold
  // start, bit for bit: same golden digest at 1 and 4 threads.
  const Digraph g = paper_graph(400, 9);
  for (const std::uint32_t threads : {1u, 4u}) {
    const ChaosCampaignConfig cfg = golden_config(threads);
    const std::vector<double> start(g.num_nodes(), cfg.options.initial_rank);
    const std::uint64_t digest =
        campaign_digest(run_chaos_campaign(g, cfg, start));
    EXPECT_EQ(digest, kGoldenCampaignDigest)
        << std::hex << "digest 0x" << digest << std::dec
        << " threads=" << threads;
  }
}

TEST(ChaosCampaign, WarmStartFromTheFixedPointConvergesFaster) {
  // Restarting from a converged vector reaches an accounted end state
  // with less work. (The pass count is bounded below by the membership
  // schedule: the run cannot converge before every crash is declared.)
  const Digraph g = paper_graph(400, 9);
  const ChaosCampaignConfig cfg = golden_config(1);
  const ChaosCampaignReport cold = run_chaos_campaign(g, cfg);
  const ChaosCampaignReport warm =
      run_chaos_campaign(g, cfg, cold.final_ranks);
  EXPECT_TRUE(warm.result.converged);
  EXPECT_NEAR(warm.result.mass_ratio, 1.0, 1e-9);
  EXPECT_LE(warm.result.passes, cold.result.passes);
  EXPECT_LT(warm.docs_recomputed, cold.docs_recomputed);
  EXPECT_LT(warm.messages, cold.messages);
}

TEST(ChaosCampaign, RejectsAStartVectorOfTheWrongSize) {
  const Digraph g = paper_graph(100, 9);
  const ChaosCampaignConfig cfg = small_config(42);
  for (const std::size_t n : {0, 99, 101}) {
    EXPECT_THROW(
        (void)run_chaos_campaign(g, cfg, std::vector<double>(n, 1.0)),
        std::invalid_argument)
        << "size " << n;
  }
}

TEST(ChaosCampaign, ReplicaLessRunsRepairThroughTheAudit) {
  // Without replicas a crashed range restarts from initial_rank; the
  // quiescence audit finds the leaked emissions and re-injects them, so
  // the run still ends fully accounted.
  const Digraph g = paper_graph(300, 9);
  ChaosCampaignConfig cfg = small_config(42);
  cfg.replicas = 0;
  const ChaosCampaignReport rep = run_chaos_campaign(g, cfg);
  EXPECT_TRUE(rep.result.converged);
  EXPECT_NEAR(rep.result.mass_ratio, 1.0, 1e-9);
  EXPECT_EQ(rep.replica_restores, 0u);
}

TEST(ChaosCampaign, ReplicaLessWithoutAuditDegradesBoundedNotHung) {
  // The negative mode: no replicas AND no audit repair. The run must
  // still terminate (declared-dead eviction stops infinite
  // retransmission), and the loss is *accounted* — the known-loss
  // ledger records exactly what crash wipes and evictions destroyed.
  const Digraph g = paper_graph(300, 9);
  ChaosCampaignConfig cfg = small_config(42);
  cfg.replicas = 0;
  cfg.mass_audit = false;
  const ChaosCampaignReport rep = run_chaos_campaign(g, cfg);
  EXPECT_TRUE(rep.result.converged);
  if (rep.crashes > 0) {
    EXPECT_GT(rep.known_loss_events, 0u);
    EXPECT_GT(rep.audited_known_loss, 0.0);
  }
  // Bounded: the loss ledger cannot exceed the total mass ever emitted;
  // a loose sanity ceiling (docs * initial rank * a generous factor).
  EXPECT_LT(rep.audited_known_loss,
            static_cast<double>(g.num_nodes()) * 100.0);
}

}  // namespace
}  // namespace dprank
