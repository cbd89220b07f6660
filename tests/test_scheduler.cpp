// Convergence-schedule tests (PagerankOptions::schedule).
//
// Two contracts, each load-bearing for a different audience:
//  * Schedule::kFifo (the default) is BIT-IDENTICAL to the engine that
//    predates the scheduler: ranks, the full pass history, the traffic
//    ledger and the outbox peak hash to golden digests recorded on the
//    pre-scheduler build, at 1 and 4 threads, clean and churned. Anyone
//    not opting into the scheduler gets exactly the old engine.
//  * Schedule::kResidual converges at the same epsilon with materially
//    fewer cross-peer messages, at fifo-level quality against the
//    centralized oracle (Table 2's measure), and — like every engine
//    configuration — produces bit-identical results for every thread
//    count.

#include "pagerank/distributed_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "obs/trace.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"
#include "run_digest.hpp"

namespace dprank {
namespace {

// ---- fifo bit-compatibility ------------------------------------------

constexpr NodeId kDocs = 2'000;
constexpr PeerId kPeers = 40;

/// `trace` attaches a tracer and `audit` the mass audit: observation
/// must leave every digest unchanged.
/// With `trace`, `trace_digest` receives the digest of the event stream.
std::uint64_t digest_run(std::uint64_t seed, std::uint32_t threads,
                         double availability, bool trace = false,
                         bool audit = false,
                         std::uint64_t* trace_digest = nullptr) {
  const Digraph g = paper_graph(kDocs, seed);
  const auto placement = Placement::random(kDocs, kPeers, seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  DistributedPagerank engine(g, placement, o);
  obs::Tracer tracer;
  if (trace) engine.attach_tracer(tracer);
  if (audit) engine.enable_mass_audit();
  DistributedRunResult run;
  if (availability < 1.0) {
    ChurnSchedule churn(kPeers, availability, seed);
    run = engine.run(&churn);
  } else {
    run = engine.run();
  }
  if (audit) {
    EXPECT_NEAR(run.mass_ratio, 1.0, 1e-9);
  }
  if (trace_digest != nullptr) *trace_digest = digest_trace(tracer);
  return digest_core(engine, run);
}

struct GoldenEntry {
  std::uint64_t seed;
  double availability;
  std::uint32_t threads;
  std::uint64_t digest;
};

// Recorded on the build immediately preceding the scheduler and the
// contribution-store reindex (commit ad810a0), 2000 docs / 40 peers /
// epsilon 1e-3. These values must never change: fifo is the
// compatibility baseline.
constexpr GoldenEntry kGolden[] = {
    {7ULL, 1.00, 1, 0xe1f5136668ea4ddcULL},
    {7ULL, 1.00, 4, 0xe1f5136668ea4ddcULL},
    {7ULL, 0.85, 1, 0xb9b4652c2261524aULL},
    {7ULL, 0.85, 4, 0xb9b4652c2261524aULL},
    {21ULL, 1.00, 1, 0xb46e1c638e860edaULL},
    {21ULL, 1.00, 4, 0xb46e1c638e860edaULL},
    {21ULL, 0.85, 1, 0x130df7e04f634d08ULL},
    {21ULL, 0.85, 4, 0x130df7e04f634d08ULL},
    {42ULL, 1.00, 1, 0xae197f138e3ac718ULL},
    {42ULL, 1.00, 4, 0xae197f138e3ac718ULL},
    {42ULL, 0.85, 1, 0xf3aede7be2c2410eULL},
    {42ULL, 0.85, 4, 0xf3aede7be2c2410eULL},
};

TEST(ScheduleFifo, BitIdenticalToPreSchedulerEngine) {
  for (const GoldenEntry& entry : kGolden) {
    EXPECT_EQ(digest_run(entry.seed, entry.threads, entry.availability),
              entry.digest)
        << "seed=" << entry.seed << " threads=" << entry.threads
        << " availability=" << entry.availability;
  }
}

TEST(ScheduleFifo, GoldensHoldWithTracerAndAudit) {
  // Observation never changes the run: a tracer, the mass audit, or both
  // leave every fifo digest exactly where the plain run put it.
  for (const GoldenEntry& entry : kGolden) {
    for (const auto& [trace, audit] :
         {std::pair{true, false}, std::pair{false, true},
          std::pair{true, true}}) {
      EXPECT_EQ(digest_run(entry.seed, entry.threads, entry.availability,
                           trace, audit),
                entry.digest)
          << "seed=" << entry.seed << " threads=" << entry.threads
          << " availability=" << entry.availability << " trace=" << trace
          << " audit=" << audit;
    }
  }
}

struct TraceGolden {
  std::uint64_t seed;
  double availability;
  std::uint64_t digest;
};

// The traced journeys of a fifo run: every send, park, outbox delivery
// and terminal event in emission order. Recorded at 2000 docs / 40
// peers / epsilon 1e-3; identical at every thread count.
constexpr TraceGolden kTraceGolden[] = {
    {7ULL, 1.00, 0xa5fe394581494b41ULL},
    {7ULL, 0.85, 0xab920a74c1f4de34ULL},
    {42ULL, 1.00, 0x593f79addaf578a7ULL},
    {42ULL, 0.85, 0x8fa5fe5180c5bb80ULL},
};

TEST(ScheduleFifo, TraceStreamGoldens) {
  for (const TraceGolden& entry : kTraceGolden) {
    for (const std::uint32_t threads : {1u, 4u}) {
      std::uint64_t trace = 0;
      (void)digest_run(entry.seed, threads, entry.availability,
                       /*trace=*/true, /*audit=*/false, &trace);
      EXPECT_EQ(trace, entry.digest)
          << std::hex << "trace digest 0x" << trace << std::dec
          << " seed=" << entry.seed << " threads=" << threads
          << " availability=" << entry.availability;
    }
  }
}

// ---- fifo edge cases the paper-graph goldens miss ----------------------
//
// paper_graph makes no dangling documents and every golden above places
// documents uniformly at random from a cold start. These pin the rest:
// documents without out-links or without any links, peers that own
// nothing beside one that owns most, and a non-uniform warm start.

/// The paper graph with 300 extra documents: 200 dangling ones that only
/// receive links, 100 isolated ones with no links at all. Every 17th
/// original document also loses its out-links.
Digraph dangling_graph(std::uint64_t seed) {
  const Digraph base = paper_graph(kDocs, seed);
  std::vector<Edge> edges;
  for (const Edge& e : base.edge_list()) {
    if (e.src % 17 != 0) edges.push_back(e);
  }
  Rng rng(seed ^ 0xDA9ULL);
  for (NodeId v = kDocs; v < kDocs + 200; ++v) {
    for (int k = 0; k < 3; ++k) {
      edges.push_back({static_cast<NodeId>(rng.bounded(kDocs)), v});
    }
  }
  return Digraph::from_edges(kDocs + 300, std::move(edges));
}

/// Peer 7 owns four documents in five, peers 30 and up own none, and
/// peers 0-29 share the rest.
Placement skewed_placement(NodeId docs) {
  std::vector<PeerId> owner(docs);
  for (NodeId v = 0; v < docs; ++v) {
    owner[v] = v % 5 != 0 ? PeerId{7} : static_cast<PeerId>((v * 7919) % 30);
  }
  return Placement::from_owners(std::move(owner), kPeers);
}

/// A deterministic non-uniform start vector in [0.15, 4.15).
std::vector<double> uneven_start(NodeId docs, std::uint64_t seed) {
  Rng rng(seed ^ 0x57A7ULL);
  std::vector<double> start(docs);
  for (double& r : start) r = 0.15 + 4.0 * rng.uniform();
  return start;
}

enum class EdgeCase : std::uint8_t { kDangling, kSkewed, kWarmStart };

std::uint64_t edge_case_digest(EdgeCase which, std::uint64_t seed,
                               std::uint32_t threads, double availability) {
  const Digraph g = which == EdgeCase::kDangling ? dangling_graph(seed)
                                                 : paper_graph(kDocs, seed);
  const Placement placement =
      which == EdgeCase::kSkewed
          ? skewed_placement(g.num_nodes())
          : Placement::random(g.num_nodes(), kPeers, seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  std::optional<DistributedPagerank> engine;
  if (which == EdgeCase::kWarmStart) {
    engine.emplace(g, placement, o, uneven_start(g.num_nodes(), seed));
  } else {
    engine.emplace(g, placement, o);
  }
  DistributedRunResult run;
  if (availability < 1.0) {
    ChurnSchedule churn(kPeers, availability, seed);
    run = engine->run(&churn);
  } else {
    run = engine->run();
  }
  EXPECT_TRUE(run.converged);
  return digest_core(*engine, run);
}

struct EdgeCaseGolden {
  EdgeCase which;
  double availability;
  std::uint64_t digest;
};

// Recorded at commit 7da9169 (documents in generator order inside the
// engine), seed 11, 2000 docs + 300 for the dangling graph, 40 peers,
// epsilon 1e-3, churn availability 0.5; identical at 1 and 4 threads.
constexpr EdgeCaseGolden kEdgeCaseGolden[] = {
    {EdgeCase::kDangling, 1.0, 0xb9fc431f19ad40ccULL},
    {EdgeCase::kDangling, 0.5, 0xd37488ae44b68115ULL},
    {EdgeCase::kSkewed, 1.0, 0x0d44d07a945179a8ULL},
    {EdgeCase::kSkewed, 0.5, 0x43806315a2a9c098ULL},
    {EdgeCase::kWarmStart, 1.0, 0x2fccf5d6719e8579ULL},
    {EdgeCase::kWarmStart, 0.5, 0xc04a292fb1399a2bULL},
};

TEST(ScheduleFifo, EdgeCaseGoldensAtOneAndFourThreads) {
  // The dangling graph really holds both kinds of link-poor document.
  const Digraph g = dangling_graph(11);
  NodeId dangling = 0;
  NodeId isolated = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.out_degree(v) != 0) continue;
    ++(g.in_degree(v) == 0 ? isolated : dangling);
  }
  ASSERT_GE(dangling, 200u);
  ASSERT_GE(isolated, 100u);
  for (const EdgeCaseGolden& entry : kEdgeCaseGolden) {
    for (const std::uint32_t threads : {1u, 4u}) {
      const std::uint64_t d =
          edge_case_digest(entry.which, 11, threads, entry.availability);
      EXPECT_EQ(d, entry.digest)
          << std::hex << "digest 0x" << d << std::dec
          << " case=" << static_cast<int>(entry.which)
          << " threads=" << threads << " availability=" << entry.availability;
    }
  }
}

TEST(ScheduleFifo, DeferredCounterStaysZero) {
  const Digraph g = paper_graph(kDocs, 7);
  const auto placement = Placement::random(kDocs, kPeers, 7);
  PagerankOptions o;
  o.epsilon = 1e-3;
  DistributedPagerank engine(g, placement, o);
  (void)engine.run();
  for (const PassStats& s : engine.pass_history()) {
    EXPECT_EQ(s.docs_deferred, 0u);
  }
}

// ---- residual schedule -----------------------------------------------

struct ResidualOutcome {
  std::vector<double> ranks;
  std::uint64_t messages = 0;
  std::uint64_t passes = 0;
  std::uint64_t deferred = 0;
  bool converged = false;
};

ResidualOutcome run_schedule(const Digraph& g, const Placement& placement,
                             Schedule schedule, std::uint32_t threads,
                             bool adaptive = false) {
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  o.schedule = schedule;
  o.adaptive_epsilon = adaptive;
  o.validate_every_n_passes = 16;  // exercise the scheduler invariants
  DistributedPagerank engine(g, placement, o);
  const DistributedRunResult run = engine.run();
  ResidualOutcome out;
  out.ranks = engine.ranks();
  out.messages = engine.traffic().messages();
  out.passes = run.passes;
  out.converged = run.converged;
  for (const PassStats& s : engine.pass_history()) {
    out.deferred += s.docs_deferred;
  }
  return out;
}

TEST(ScheduleResidual, FewerMessagesAtTable1Config) {
  // The Table 1 small configuration (10k docs, 500 peers, epsilon 1e-3,
  // bench seed 42): the residual schedule must save at least 20% of the
  // cross-peer update messages, the adaptive variant at least 25%.
  const Digraph g = paper_graph(10'000, 42);
  const auto placement = Placement::random(10'000, 500, 42);

  const ResidualOutcome fifo =
      run_schedule(g, placement, Schedule::kFifo, 1);
  const ResidualOutcome residual =
      run_schedule(g, placement, Schedule::kResidual, 1);
  const ResidualOutcome adaptive =
      run_schedule(g, placement, Schedule::kResidual, 1, /*adaptive=*/true);

  ASSERT_TRUE(fifo.converged);
  ASSERT_TRUE(residual.converged);
  ASSERT_TRUE(adaptive.converged);
  EXPECT_EQ(fifo.deferred, 0u);
  EXPECT_GT(residual.deferred, 0u);

  const auto saving = [&](const ResidualOutcome& r) {
    return 1.0 - static_cast<double>(r.messages) /
                     static_cast<double>(fifo.messages);
  };
  EXPECT_GE(saving(residual), 0.20)
      << "residual messages " << residual.messages << " vs fifo "
      << fifo.messages;
  EXPECT_GE(saving(adaptive), 0.25)
      << "adaptive messages " << adaptive.messages << " vs fifo "
      << fifo.messages;

  // Quality versus the centralized oracle (Table 2's measure): the
  // schedule must not cost ordering or value accuracy beyond the epsilon
  // tolerance fifo itself exhibits.
  const auto oracle = centralized_pagerank(g, {});
  const QualityReport qf = summarize_quality(fifo.ranks, oracle.ranks);
  const QualityReport qr = summarize_quality(residual.ranks, oracle.ranks);
  const QualityReport qa = summarize_quality(adaptive.ranks, oracle.ranks);
  EXPECT_LE(qr.avg, qf.avg + 2e-3);
  EXPECT_LE(qa.avg, qf.avg + 2e-3);
  EXPECT_GE(kendall_tau_sampled(residual.ranks, oracle.ranks),
            kendall_tau_sampled(fifo.ranks, oracle.ranks) - 0.01);
  EXPECT_GE(kendall_tau_sampled(adaptive.ranks, oracle.ranks),
            kendall_tau_sampled(fifo.ranks, oracle.ranks) - 0.01);
}

TEST(ScheduleResidual, ThreadCountInvariant) {
  // The residual order itself (sorting, deferral, adaptive thresholds)
  // must not observe the thread count: residual accumulation is sharded
  // and merged in fixed order exactly like every other engine fold.
  for (const std::uint64_t seed : {7ULL, 21ULL, 42ULL}) {
    const Digraph g = paper_graph(kDocs, seed);
    const auto placement = Placement::random(kDocs, kPeers, seed);
    for (const bool adaptive : {false, true}) {
      const ResidualOutcome one =
          run_schedule(g, placement, Schedule::kResidual, 1, adaptive);
      const ResidualOutcome four =
          run_schedule(g, placement, Schedule::kResidual, 4, adaptive);
      EXPECT_EQ(one.ranks, four.ranks)
          << "seed=" << seed << " adaptive=" << adaptive;
      EXPECT_EQ(one.messages, four.messages);
      EXPECT_EQ(one.passes, four.passes);
      EXPECT_EQ(one.deferred, four.deferred);
    }
  }
}

std::uint64_t residual_digest(std::uint64_t seed, std::uint32_t threads,
                              double availability, bool adaptive) {
  const Digraph g = paper_graph(kDocs, seed);
  const auto placement = Placement::random(kDocs, kPeers, seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  o.schedule = Schedule::kResidual;
  o.adaptive_epsilon = adaptive;
  DistributedPagerank engine(g, placement, o);
  DistributedRunResult run;
  if (availability < 1.0) {
    ChurnSchedule churn(kPeers, availability, seed);
    run = engine.run(&churn);
  } else {
    run = engine.run();
  }
  return digest_full(engine, run);
}

struct ResidualGolden {
  std::uint64_t seed;
  double availability;
  bool adaptive;
  std::uint64_t digest;
};

// Full-observable digests of residual runs (deferral counts included),
// recorded at 2000 docs / 40 peers / epsilon 1e-3. The residual selection
// and its delta folds are pinned by these, at every thread count.
constexpr ResidualGolden kResidualGolden[] = {
    {7ULL, 1.00, false, 0x5612845d96f514b2ULL},
    {7ULL, 1.00, true, 0xa03ee50a544b6367ULL},
    {7ULL, 0.85, false, 0x1cb23f3c20bf8706ULL},
    {7ULL, 0.85, true, 0xfa7033c601e4ac89ULL},
    {42ULL, 1.00, false, 0xcfc36da64a8e8a5bULL},
    {42ULL, 1.00, true, 0x2a301e054bc067cfULL},
    {42ULL, 0.85, false, 0x38de2b0bc198c06dULL},
    {42ULL, 0.85, true, 0x45935fdbc43d9c72ULL},
};

TEST(ScheduleResidual, GoldenDigestsAtOneAndFourThreads) {
  for (const ResidualGolden& entry : kResidualGolden) {
    for (const std::uint32_t threads : {1u, 4u}) {
      const std::uint64_t d = residual_digest(entry.seed, threads,
                                              entry.availability,
                                              entry.adaptive);
      EXPECT_EQ(d, entry.digest)
          << std::hex << "digest 0x" << d << std::dec
          << " seed=" << entry.seed << " threads=" << threads
          << " availability=" << entry.availability
          << " adaptive=" << entry.adaptive;
    }
  }
}

TEST(ScheduleResidual, ConvergesUnderChurn) {
  // Absent peers park updates; deferral must not interact badly with the
  // store-and-resend outbox (a deferred document that later receives a
  // late delivery still drains its residual).
  const Digraph g = paper_graph(kDocs, 21);
  const auto placement = Placement::random(kDocs, kPeers, 21);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.schedule = Schedule::kResidual;
  o.validate_every_n_passes = 8;
  DistributedPagerank engine(g, placement, o);
  ChurnSchedule churn(kPeers, 0.85, 21);
  const DistributedRunResult run = engine.run(&churn);
  EXPECT_TRUE(run.converged);

  PagerankOptions of = o;
  of.schedule = Schedule::kFifo;
  DistributedPagerank fifo(g, placement, of);
  ChurnSchedule churn2(kPeers, 0.85, 21);
  (void)fifo.run(&churn2);
  double l1 = 0.0;
  double norm = 0.0;
  for (NodeId v = 0; v < kDocs; ++v) {
    l1 += std::abs(engine.ranks()[v] - fifo.ranks()[v]);
    norm += std::abs(fifo.ranks()[v]);
  }
  EXPECT_LT(l1 / norm, 5e-3);
}

TEST(ScheduleResidual, MaxDeferBoundsStaleness) {
  // With an age cap of 1 every document is processed at least every
  // other pass; the run must still converge and defer strictly less than
  // the default cap allows.
  const Digraph g = paper_graph(kDocs, 42);
  const auto placement = Placement::random(kDocs, kPeers, 42);
  PagerankOptions tight;
  tight.epsilon = 1e-3;
  tight.schedule = Schedule::kResidual;
  tight.residual_max_defer = 1;
  DistributedPagerank eng_tight(g, placement, tight);
  ASSERT_TRUE(eng_tight.run().converged);

  PagerankOptions loose = tight;
  loose.residual_max_defer = 8;
  DistributedPagerank eng_loose(g, placement, loose);
  ASSERT_TRUE(eng_loose.run().converged);

  std::uint64_t tight_deferred = 0;
  for (const PassStats& s : eng_tight.pass_history()) {
    tight_deferred += s.docs_deferred;
  }
  std::uint64_t loose_deferred = 0;
  for (const PassStats& s : eng_loose.pass_history()) {
    loose_deferred += s.docs_deferred;
  }
  EXPECT_LT(tight_deferred, loose_deferred);
}

TEST(ScheduleResidual, DeferredTelemetryMatchesHistory) {
  obs::MetricsRegistry reg;
  const Digraph g = paper_graph(kDocs, 7);
  const auto placement = Placement::random(kDocs, kPeers, 7);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.schedule = Schedule::kResidual;
  DistributedPagerank engine(g, placement, o);
  engine.attach_metrics(reg);
  (void)engine.run();

  std::uint64_t total = 0;
  for (const PassStats& s : engine.pass_history()) total += s.docs_deferred;
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("pagerank.docs_deferred"));
  EXPECT_EQ(snap.counters.at("pagerank.docs_deferred"),
            total);
  ASSERT_TRUE(snap.series.contains("pagerank.deferred"));
  EXPECT_EQ(snap.series.at("pagerank.deferred").size(),
            engine.pass_history().size());
}

}  // namespace
}  // namespace dprank
