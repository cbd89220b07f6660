#include "pagerank/distributed_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "p2p/churn.hpp"
#include "p2p/replication.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"
#include "run_digest.hpp"

namespace dprank {
namespace {

PagerankOptions opts(double epsilon) {
  PagerankOptions o;
  o.epsilon = epsilon;
  return o;
}

TEST(DistributedEngine, ValidatesPlacementSize) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(5, 2, 1);  // 5 != 6 nodes
  EXPECT_THROW(DistributedPagerank(g, p, opts(1e-3)), std::invalid_argument);
}

TEST(DistributedEngine, ValidatesStartVectorSize) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(6, 2, 1);
  for (const std::size_t n : {0, 5, 7}) {
    EXPECT_THROW(
        DistributedPagerank(g, p, opts(1e-3), std::vector<double>(n, 1.0)),
        std::invalid_argument)
        << "size " << n;
  }
}

TEST(DistributedEngine, WarmStartReachesTheSameFixedPoint) {
  // §2.3: the chaotic iteration converges from any start. An
  // initial_rank-filled start vector is the cold start bit for bit; the
  // converged vector as a start settles in a few passes.
  const Digraph g = paper_graph(1000, 12);
  const auto p = Placement::random(1000, 20, 12);
  DistributedPagerank cold(g, p, opts(1e-6));
  const auto cold_run = cold.run();
  ASSERT_TRUE(cold_run.converged);
  DistributedPagerank same(g, p, opts(1e-6),
                           std::vector<double>(g.num_nodes(), 1.0));
  ASSERT_TRUE(same.run().converged);
  EXPECT_EQ(same.ranks(), cold.ranks());
  EXPECT_EQ(same.traffic().messages(), cold.traffic().messages());

  DistributedPagerank warm(g, p, opts(1e-6), cold.ranks());
  const auto run = warm.run();
  ASSERT_TRUE(run.converged);
  EXPECT_LT(run.passes, cold_run.passes / 2);
  const auto ref = centralized_pagerank(g, 0.85, 1e-13).ranks;
  EXPECT_LT(summarize_quality(warm.ranks(), ref).max, 1e-4);
}

TEST(DistributedEngine, MemoryBytesCountsAttachmentArrays) {
  // An audited, acked-delivery run holds per-edge arrays a plain run
  // never allocates: the audit ledger and the outbox's parked values
  // (doubles), the parked sequence numbers, the channel's per-slot
  // records (an issued and an applied sequence number each) and the
  // outbox flags.
  const Digraph g = paper_graph(500, 5);
  const auto p = Placement::random(500, 10, 5);
  DistributedPagerank plain(g, p, opts(1e-3));
  ASSERT_TRUE(plain.run().converged);
  FaultPlanConfig fpc;
  fpc.acked_delivery = true;
  FaultPlan plan(fpc);
  DistributedPagerank audited(g, p, opts(1e-3));
  audited.attach_fault_plan(plan);
  audited.enable_mass_audit();
  ASSERT_TRUE(audited.run().converged);
  const std::uint64_t m = g.num_edges();
  const std::uint64_t attached =
      m * (2 * sizeof(double) + 3 * sizeof(std::uint32_t) +
           sizeof(std::uint8_t));
  EXPECT_GE(audited.memory_bytes(), plain.memory_bytes() + attached);

  // Only a run that can park holds the outbox: under churn the same
  // run adds a parked value and a flag per edge.
  ChurnSchedule churn(10, 0.5, 5);
  DistributedPagerank churned(g, p, opts(1e-3));
  ASSERT_TRUE(churned.run(&churn).converged);
  EXPECT_GE(churned.memory_bytes(),
            plain.memory_bytes() + m * (sizeof(double) + sizeof(std::uint8_t)));
}

TEST(DistributedEngine, RunsOnlyOnce) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(6, 2, 1);
  DistributedPagerank engine(g, p, opts(1e-3));
  (void)engine.run();
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(DistributedEngine, ConvergesToCentralizedOnSmallGraph) {
  const Digraph g = paper_graph(2000, 10);
  const auto p = Placement::random(2000, 50, 10);
  DistributedPagerank engine(g, p, opts(1e-8));
  const auto run = engine.run();
  EXPECT_TRUE(run.converged);

  const auto ref = centralized_pagerank(g, 0.85, 1e-13).ranks;
  const auto q = summarize_quality(engine.ranks(), ref);
  // With a tight threshold the distributed result is essentially exact.
  EXPECT_LT(q.max, 1e-5);
}

TEST(DistributedEngine, QualityTracksThreshold) {
  // Table 2's central claim: looser epsilon -> larger relative error,
  // but even epsilon = 0.2 keeps most documents accurate.
  const Digraph g = paper_graph(5000, 11);
  const auto p = Placement::random(5000, 100, 11);
  const auto ref = centralized_pagerank(g, 0.85, 1e-13).ranks;

  double prev_avg = -1.0;
  for (const double eps : {0.2, 1e-2, 1e-4, 1e-6}) {
    DistributedPagerank engine(g, p, opts(eps));
    ASSERT_TRUE(engine.run().converged);
    const auto q = summarize_quality(engine.ranks(), ref);
    if (prev_avg >= 0) {
      EXPECT_LE(q.avg, prev_avg * 1.5 + 1e-12)
          << "avg error should not grow as epsilon tightens";
    }
    prev_avg = q.avg;
  }
  // The tightest run must be very accurate.
  EXPECT_LT(prev_avg, 1e-5);
}

TEST(DistributedEngine, SingleNodeGraphConvergesImmediately) {
  const Digraph g = Digraph::from_edges(1, {});
  const auto p = Placement::random(1, 1, 1);
  DistributedPagerank engine(g, p, opts(1e-3));
  const auto run = engine.run();
  EXPECT_TRUE(run.converged);
  EXPECT_NEAR(engine.ranks()[0], 0.15, 1e-12);
  EXPECT_EQ(engine.traffic().messages(), 0u);
}

TEST(DistributedEngine, SamePeerUpdatesAreFree) {
  // All documents on one peer: zero network messages, only local updates.
  const Digraph g = paper_graph(500, 12);
  const auto p = Placement::random(500, 1, 12);
  DistributedPagerank engine(g, p, opts(1e-6));
  ASSERT_TRUE(engine.run().converged);
  EXPECT_EQ(engine.traffic().messages(), 0u);
  EXPECT_GT(engine.traffic().local_updates(), 0u);
}

TEST(DistributedEngine, MessageCountsScaleWithThreshold) {
  // Table 3: lower epsilon => more messages, roughly logarithmically.
  const Digraph g = paper_graph(3000, 13);
  const auto p = Placement::random(3000, 100, 13);
  std::uint64_t prev = 0;
  for (const double eps : {0.2, 1e-2, 1e-4}) {
    DistributedPagerank engine(g, p, opts(eps));
    ASSERT_TRUE(engine.run().converged);
    const auto msgs = engine.traffic().messages();
    EXPECT_GT(msgs, prev);
    prev = msgs;
  }
}

TEST(DistributedEngine, PassHistoryIsConsistent) {
  const Digraph g = paper_graph(1000, 14);
  const auto p = Placement::random(1000, 20, 14);
  DistributedPagerank engine(g, p, opts(1e-4));
  const auto run = engine.run();
  const auto& history = engine.pass_history();
  ASSERT_EQ(history.size(), run.passes);
  // First pass recomputes every document.
  EXPECT_EQ(history.front().docs_recomputed, 1000u);
  // Messages in the ledger match the per-pass tallies.
  std::uint64_t sum = 0;
  for (const auto& s : history) {
    sum += s.messages_sent + s.messages_delivered_late;
    EXPECT_LE(s.max_peer_messages, s.messages_sent);
  }
  EXPECT_EQ(sum, engine.traffic().messages());
  // Final pass is quiet (that is why it converged).
  EXPECT_EQ(history.back().messages_sent, 0u);
}

TEST(DistributedEngine, ObserverSeesEveryPass) {
  const Digraph g = paper_graph(500, 15);
  const auto p = Placement::random(500, 10, 15);
  // Pass 0 recomputes every document once from the cold-start cells, so
  // its ranks follow from the graph alone, in document order.
  const double d = opts(1e-3).damping;
  std::vector<double> pass0(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    double sum = 0.0;
    for (const NodeId u : g.in_neighbors(v)) {
      sum += 1.0 / static_cast<double>(g.out_degree(u));
    }
    pass0[v] = (1.0 - d) + d * sum;
  }
  DistributedPagerank engine(g, p, opts(1e-3));
  EXPECT_EQ(engine.ranks(), std::vector<double>(500, 1.0));
  std::uint64_t calls = 0;
  std::uint64_t last_pass = 0;
  std::vector<double> last;
  const auto run = engine.run(nullptr, [&](std::uint64_t pass,
                                           const std::vector<double>& ranks) {
    EXPECT_EQ(ranks.size(), 500u);
    if (pass == 0) {
      EXPECT_EQ(ranks, pass0);
    }
    last = ranks;
    last_pass = pass;
    ++calls;
  });
  EXPECT_EQ(calls, run.passes);
  EXPECT_EQ(last_pass + 1, run.passes);
  EXPECT_EQ(last, engine.ranks());

  // The same under churn and crash recovery, where passes skip absent
  // peers and rebuild crashed peers' documents.
  FaultPlanConfig fpc;
  fpc.crashes.push_back({.pass = 2, .peer = 3});
  fpc.crashes.push_back({.pass = 5, .peer = 7});
  FaultPlan plan(fpc);
  ChurnSchedule churn(10, 0.7, 15);
  DistributedPagerank faulty(g, p, opts(1e-3));
  faulty.attach_fault_plan(plan);
  faulty.enable_mass_audit();
  std::vector<double> faulty_last;
  ASSERT_TRUE(faulty
                  .run(&churn,
                       [&](std::uint64_t, const std::vector<double>& ranks) {
                         faulty_last = ranks;
                       })
                  .converged);
  EXPECT_GT(faulty.recovered_docs(), 0u);
  EXPECT_EQ(faulty_last, faulty.ranks());

  // Before run(), ranks() is the start vector as given.
  std::vector<double> start(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    start[v] = 0.5 + static_cast<double>(v % 7);
  }
  const DistributedPagerank warm(g, p, opts(1e-3), start);
  EXPECT_EQ(warm.ranks(), start);
}

// ---- every observed vector, pinned ------------------------------------
//
// ObserverSeesEveryPass checks the first and last observed vectors; these
// digests cover every pass in between, where the engine copies only the
// slots a pass touched: under churn (segments on absent peers), crash
// recovery with replica restores (rebuilt ranks) and the residual
// schedule (deferred slots).

enum class ObservedRun : std::uint8_t { kChurn, kCrashRecovery, kResidual };

/// FNV-1a over every (pass, ranks) pair the observer receives.
std::uint64_t observed_digest(ObservedRun which, std::uint32_t threads) {
  const Digraph g = paper_graph(2000, 11);
  const auto p = Placement::random(2000, 40, 11);
  PagerankOptions o = opts(1e-3);
  o.threads = threads;
  if (which == ObservedRun::kResidual) {
    o.schedule = Schedule::kResidual;
    o.adaptive_epsilon = true;
  }
  DistributedPagerank engine(g, p, o);
  FaultPlanConfig fpc;
  fpc.crashes.push_back({.pass = 2, .peer = 3});
  fpc.crashes.push_back({.pass = 5, .peer = 7});
  fpc.drop_probability = 0.05;
  fpc.acked_delivery = true;
  fpc.seed = 11;
  FaultPlan plan(fpc);
  const ReplicaRegistry replicas = ReplicaRegistry::uniform(p, 1, 11);
  if (which == ObservedRun::kCrashRecovery) {
    engine.attach_fault_plan(plan);
    engine.attach_replicas(replicas);
    engine.enable_mass_audit();
  }
  ChurnSchedule churn(40, which == ObservedRun::kCrashRecovery ? 0.7 : 0.5,
                      11);
  Fnv f;
  const auto run = engine.run(
      &churn, [&f](std::uint64_t pass, const std::vector<double>& ranks) {
        f.mix_value(pass);
        f.mix(ranks.data(), ranks.size() * sizeof(double));
      });
  EXPECT_TRUE(run.converged);
  if (which == ObservedRun::kCrashRecovery) {
    EXPECT_GT(engine.replica_restores(), 0u);
  }
  return f.value();
}

// Recorded at commit b0d6439, where the engine kept its ranks in
// document order and handed the observer that vector itself; identical
// at 1 and 4 threads.
constexpr std::pair<ObservedRun, std::uint64_t> kObservedGolden[] = {
    {ObservedRun::kChurn, 0x3851d924b0f2ae77ULL},
    {ObservedRun::kCrashRecovery, 0x9d2bc68fecd535eaULL},
    {ObservedRun::kResidual, 0xfd98c7ceea746915ULL},
};

TEST(DistributedEngine, ObservedRanksMatchGoldenAtEveryPass) {
  for (const auto& [which, golden] : kObservedGolden) {
    for (const std::uint32_t threads : {1u, 4u}) {
      const std::uint64_t d = observed_digest(which, threads);
      EXPECT_EQ(d, golden) << std::hex << "digest 0x" << d << std::dec
                           << " run=" << static_cast<int>(which)
                           << " threads=" << threads;
    }
  }
}

TEST(DistributedEngine, ChurnStillConverges) {
  // §4.3 dynamic effects: the algorithm converges with only half the
  // peers present, at a slower rate.
  const Digraph g = paper_graph(2000, 16);
  const auto p = Placement::random(2000, 50, 16);

  DistributedPagerank full(g, p, opts(1e-4));
  const auto run_full = full.run();
  ASSERT_TRUE(run_full.converged);

  ChurnSchedule churn(50, 0.5, 99);
  DistributedPagerank half(g, p, opts(1e-4));
  const auto run_half = half.run(&churn);
  ASSERT_TRUE(run_half.converged);

  EXPECT_GT(run_half.passes, run_full.passes);

  // And the answer still matches the centralized reference closely.
  const auto ref = centralized_pagerank(g, 0.85, 1e-13).ranks;
  const auto q = summarize_quality(half.ranks(), ref);
  EXPECT_LT(q.avg, 0.01);
}

TEST(DistributedEngine, ChurnUsesOutboxAndDeliversLate) {
  const Digraph g = paper_graph(2000, 17);
  const auto p = Placement::random(2000, 50, 17);
  ChurnSchedule churn(50, 0.5, 7);
  DistributedPagerank engine(g, p, opts(1e-4));
  ASSERT_TRUE(engine.run(&churn).converged);
  EXPECT_GT(engine.outbox_peak(), 0u);
  std::uint64_t late = 0;
  for (const auto& s : engine.pass_history()) {
    late += s.messages_delivered_late;
  }
  EXPECT_GT(late, 0u);
  // Convergence requires every parked message to have been delivered.
  // (outbox drained == engine reported converged, asserted above.)
}

TEST(DistributedEngine, ChurnPeerCountMustMatch) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(6, 3, 1);
  ChurnSchedule churn(5, 0.5, 1);  // 5 != 3 peers
  DistributedPagerank engine(g, p, opts(1e-3));
  EXPECT_THROW(engine.run(&churn), std::invalid_argument);
}

TEST(DistributedEngine, ConvergenceRateGrowsSlowlyWithSize) {
  // Table 1: 500x more nodes costs only ~60% more passes. Check the mild
  // growth on a 10x spread.
  const auto p1 = Placement::random(1000, 50, 18);
  const auto p2 = Placement::random(10'000, 50, 18);
  const Digraph g_small = paper_graph(1000, 18);
  const Digraph g_large = paper_graph(10'000, 18);
  DistributedPagerank small(g_small, p1, opts(1e-3));
  DistributedPagerank large(g_large, p2, opts(1e-3));
  const auto run_small = small.run();
  const auto run_large = large.run();
  ASSERT_TRUE(run_small.converged);
  ASSERT_TRUE(run_large.converged);
  EXPECT_LT(run_large.passes, run_small.passes * 3);
}

// Property sweep: for every (seed, epsilon) combination the engine
// converges and respects the per-document stopping rule against the
// centralized reference.
class EngineSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(EngineSweep, ConvergesAndTracksReference) {
  const auto [seed, eps] = GetParam();
  const Digraph g = paper_graph(1500, seed);
  const auto p = Placement::random(1500, 30, seed);
  DistributedPagerank engine(g, p, opts(eps));
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  ASSERT_GT(run.passes, 0u);

  const auto ref = centralized_pagerank(g, 0.85, 1e-13).ranks;
  const auto q = summarize_quality(engine.ranks(), ref);
  // Loose but universal bound: median error stays within ~20x epsilon
  // (the paper's Table 2 shows it is usually far better).
  EXPECT_LT(q.p50, eps * 20 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, EngineSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1e-2, 1e-3, 1e-5)));

}  // namespace
}  // namespace dprank
