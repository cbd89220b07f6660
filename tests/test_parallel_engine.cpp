// Sequential-vs-parallel equivalence for DistributedPagerank.
//
// The contract under test (see distributed_engine.hpp): the thread count
// changes wall time only. For ANY configuration, running the same seeded
// experiment at --threads=1 and --threads=4 must produce bit-identical
// ranks, pass history, traffic ledger and convergence record — in every
// delivery mode of the emission loop (clean, churn, overlay, faults).

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <optional>
#include <vector>

#include "dht/ring.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "net/ip_cache.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "p2p/replication.hpp"
#include "pagerank/distributed_engine.hpp"
#include "run_digest.hpp"

namespace dprank {
namespace {

constexpr NodeId kDocs = 2'000;
constexpr PeerId kPeers = 40;

struct Scenario {
  std::uint32_t threads = 1;
  std::uint64_t seed = 42;
  double availability = 1.0;  // < 1 = churn
  bool overlay = false;       // chord ring + ip cache
  bool crash_faults = false;  // drop + crash plan + audit
  std::uint64_t max_passes = 0;  // 0 = engine default
};

struct Capture {
  DistributedRunResult run;
  std::vector<double> ranks;
  std::vector<PassStats> history;
  std::uint64_t messages = 0;
  std::uint64_t local_updates = 0;
  std::uint64_t resends = 0;
  std::uint64_t hops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t outbox_peak = 0;
};

Capture run_scenario(const Scenario& sc) {
  const Digraph g = paper_graph(kDocs, sc.seed);
  const auto placement = Placement::random(kDocs, kPeers, sc.seed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = sc.threads;
  if (sc.max_passes != 0) o.max_passes = sc.max_passes;
  DistributedPagerank engine(g, placement, o);

  const ChordRing ring(kPeers);
  IpCache cache(true);
  if (sc.overlay) engine.attach_overlay(ring, cache);

  std::optional<FaultPlan> plan;
  if (sc.crash_faults) {
    FaultPlanConfig fc;
    fc.drop_probability = 0.05;
    fc.crash_probability = 0.01;
    fc.crash_downtime_passes = 2;
    fc.acked_delivery = true;
    fc.seed = sc.seed;
    plan.emplace(fc);
    engine.attach_fault_plan(*plan);
    engine.enable_mass_audit();
  }

  Capture cap;
  if (sc.availability < 1.0) {
    ChurnSchedule churn(kPeers, sc.availability, sc.seed);
    cap.run = engine.run(&churn);
  } else {
    cap.run = engine.run();
  }
  cap.ranks = engine.ranks();
  cap.history = engine.pass_history();
  cap.messages = engine.traffic().messages();
  cap.local_updates = engine.traffic().local_updates();
  cap.resends = engine.traffic().resends();
  cap.hops = engine.traffic().hop_transmissions();
  cap.bytes = engine.traffic().bytes();
  cap.outbox_peak = engine.outbox_peak();
  return cap;
}

void expect_identical(const Capture& a, const Capture& b) {
  ASSERT_EQ(a.run.passes, b.run.passes);
  EXPECT_EQ(a.run.converged, b.run.converged);
  EXPECT_EQ(a.run.mass_ratio, b.run.mass_ratio);
  EXPECT_EQ(a.run.repair_rounds, b.run.repair_rounds);

  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t v = 0; v < a.ranks.size(); ++v) {
    ASSERT_EQ(a.ranks[v], b.ranks[v]) << "rank diverged at doc " << v;
  }

  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const PassStats& x = a.history[i];
    const PassStats& y = b.history[i];
    ASSERT_EQ(x.pass, y.pass);
    EXPECT_EQ(x.docs_recomputed, y.docs_recomputed) << "pass " << i;
    EXPECT_EQ(x.messages_sent, y.messages_sent) << "pass " << i;
    EXPECT_EQ(x.messages_deferred, y.messages_deferred) << "pass " << i;
    EXPECT_EQ(x.messages_delivered_late, y.messages_delivered_late)
        << "pass " << i;
    EXPECT_EQ(x.local_updates, y.local_updates) << "pass " << i;
    EXPECT_EQ(x.max_peer_messages, y.max_peer_messages) << "pass " << i;
    EXPECT_EQ(x.max_rel_change, y.max_rel_change) << "pass " << i;
    EXPECT_EQ(x.crashes, y.crashes) << "pass " << i;
    EXPECT_EQ(x.recovered_docs, y.recovered_docs) << "pass " << i;
    EXPECT_EQ(x.retransmissions, y.retransmissions) << "pass " << i;
    EXPECT_EQ(x.repair_messages, y.repair_messages) << "pass " << i;
  }

  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.local_updates, b.local_updates);
  EXPECT_EQ(a.resends, b.resends);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.outbox_peak, b.outbox_peak);
}

const std::uint64_t kSeeds[] = {7, 21, 42};

TEST(ParallelEngine, CleanRunBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq = run_scenario({.threads = 1, .seed = seed});
    const Capture par = run_scenario({.threads = 4, .seed = seed});
    ASSERT_TRUE(seq.run.converged);
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, ChurnRunBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .availability = 0.7});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .availability = 0.7});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.outbox_peak, 0u);  // churn actually parked updates
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, OverlayRunBitIdenticalAcrossThreadCounts) {
  // The ip cache warms in emission order; emission is sequential in
  // every configuration and only the recompute step parallelizes, so
  // the result must not notice.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .overlay = true});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .overlay = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.hops, seq.messages);  // DHT routing actually billed
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, CrashFaultRunBitIdenticalAcrossThreadCounts) {
  // Fault plans consume RNG draws in emission order — the emission loop
  // keeps that order canonical, so the full drop/crash/recovery/audit
  // history must replay identically under any thread count.
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const Capture seq =
        run_scenario({.threads = 1, .seed = seed, .crash_faults = true});
    const Capture par =
        run_scenario({.threads = 4, .seed = seed, .crash_faults = true});
    ASSERT_TRUE(seq.run.converged);
    ASSERT_GT(seq.resends, 0u);  // faults actually fired
    expect_identical(seq, par);
  }
}

TEST(ParallelEngine, ChurnPlusCrashFaultsBitIdenticalAcrossThreadCounts) {
  // Churn layered on a crash plan may not converge before the cap (lost
  // mass keeps residuals hot); equivalence must hold either way, so the
  // run is capped and convergence deliberately not asserted.
  const Capture seq = run_scenario({.threads = 1,
                                    .seed = 42,
                                    .availability = 0.75,
                                    .crash_faults = true,
                                    .max_passes = 150});
  const Capture par = run_scenario({.threads = 4,
                                    .seed = 42,
                                    .availability = 0.75,
                                    .crash_faults = true,
                                    .max_passes = 150});
  expect_identical(seq, par);
}

TEST(ParallelEngine, ThreeThreadsMatchFourThreads) {
  // Odd worker counts shard differently; results may not notice.
  const Capture three = run_scenario({.threads = 3, .seed = 21});
  const Capture four = run_scenario({.threads = 4, .seed = 21});
  expect_identical(three, four);
}

// ---- attached-run goldens --------------------------------------------

enum class Attached : std::uint8_t {
  kOverlay,           // chord ring + enabled ip cache
  kDropDuplicate,     // unacked drop + duplicate
  kDelayReorderDrop,  // acked delivery with delay, reorder and drop
  kCrashReplicas,     // crash plan + replica restore + mass audit
  kPartitionAudit,    // one bipartition + mass audit
};

struct AttachedGolden {
  Attached kind;
  double availability;
  std::uint64_t digest;
};

/// Full-observable digest of one attached run at seed 42, 2000 docs /
/// 40 peers / epsilon 1e-3 (capped at 400 passes so churn layered on a
/// fault plan always terminates).
std::uint64_t attached_digest(Attached kind, double availability,
                              std::uint32_t threads) {
  constexpr std::uint64_t kSeed = 42;
  const Digraph g = paper_graph(kDocs, kSeed);
  const auto placement = Placement::random(kDocs, kPeers, kSeed);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = threads;
  o.max_passes = 400;
  DistributedPagerank engine(g, placement, o);

  const ChordRing ring(kPeers);
  IpCache cache(true);
  const ReplicaRegistry replicas =
      ReplicaRegistry::uniform(placement, 1, kSeed);
  FaultPlanConfig fc;
  fc.seed = kSeed;
  switch (kind) {
    case Attached::kOverlay:
      engine.attach_overlay(ring, cache);
      break;
    case Attached::kDropDuplicate:
      fc.drop_probability = 0.05;
      fc.duplicate_probability = 0.1;
      break;
    case Attached::kDelayReorderDrop:
      fc.drop_probability = 0.05;
      fc.base_delay_passes = 1;
      fc.reorder_probability = 0.2;
      fc.reorder_window = 3;
      fc.acked_delivery = true;
      break;
    case Attached::kCrashReplicas:
      fc.crash_probability = 0.01;
      fc.crash_downtime_passes = 2;
      engine.attach_replicas(replicas);
      engine.enable_mass_audit();
      break;
    case Attached::kPartitionAudit:
      fc.partitions = {{.start_pass = 2, .duration_passes = 6,
                        .fraction = 0.3}};
      engine.enable_mass_audit();
      break;
  }
  FaultPlan plan(fc);
  if (kind != Attached::kOverlay) engine.attach_fault_plan(plan);

  DistributedRunResult run;
  if (availability < 1.0) {
    ChurnSchedule churn(kPeers, availability, kSeed);
    run = engine.run(&churn);
  } else {
    run = engine.run();
  }
  // Each configuration must actually exercise what it attaches.
  switch (kind) {
    case Attached::kOverlay:
      EXPECT_GT(engine.traffic().hop_transmissions(),
                engine.traffic().messages());
      break;
    case Attached::kDropDuplicate:
      EXPECT_GT(engine.dropped_messages(), 0u);
      EXPECT_GT(engine.duplicated_messages(), 0u);
      break;
    case Attached::kDelayReorderDrop:
      EXPECT_GT(engine.retransmissions(), 0u);
      break;
    case Attached::kCrashReplicas:
      EXPECT_GT(engine.crashes(), 0u);
      EXPECT_GT(engine.replica_restores(), 0u);
      break;
    case Attached::kPartitionAudit:
      EXPECT_GT(engine.partition_deferrals(), 0u);
      break;
  }
  return digest_full(engine, run);
}

// Recorded on the engine before its pass pipeline was unified. Every
// attached configuration, with and without churn, must replay these
// bit for bit at any thread count.
constexpr AttachedGolden kAttachedGolden[] = {
    {Attached::kOverlay, 1.00, 0x762ae9bddb4cf092ULL},
    {Attached::kOverlay, 0.85, 0x1b1340867a04661cULL},
    {Attached::kDropDuplicate, 1.00, 0xcfc55d2304ef2d7cULL},
    {Attached::kDropDuplicate, 0.85, 0xd97b46b7a1eaaba9ULL},
    {Attached::kDelayReorderDrop, 1.00, 0x1f95c29b417ed5e6ULL},
    {Attached::kDelayReorderDrop, 0.85, 0x82aba472288f01e6ULL},
    {Attached::kCrashReplicas, 1.00, 0x60eb4eea894c39a9ULL},
    {Attached::kCrashReplicas, 0.85, 0xc9edc24c4fa02b17ULL},
    {Attached::kPartitionAudit, 1.00, 0xf5703a61db1b8384ULL},
    {Attached::kPartitionAudit, 0.85, 0x00faaf503b82e808ULL},
};

TEST(ParallelEngine, AttachedRunGoldensAtOneAndFourThreads) {
  for (const AttachedGolden& entry : kAttachedGolden) {
    for (const std::uint32_t threads : {1u, 4u}) {
      const std::uint64_t d =
          attached_digest(entry.kind, entry.availability, threads);
      EXPECT_EQ(d, entry.digest)
          << std::hex << "digest 0x" << d << std::dec
          << " kind=" << static_cast<int>(entry.kind)
          << " availability=" << entry.availability
          << " threads=" << threads;
    }
  }
}

TEST(ParallelEngine, ThreadsBeyondPeersAreHarmless) {
  const Digraph g = paper_graph(60, 5);
  const auto placement = Placement::random(60, 3, 5);
  PagerankOptions o;
  o.epsilon = 1e-3;
  o.threads = 16;  // far more workers than peers
  DistributedPagerank engine(g, placement, o);
  const auto run = engine.run();
  EXPECT_TRUE(run.converged);

  PagerankOptions o1 = o;
  o1.threads = 1;
  DistributedPagerank ref(g, placement, o1);
  const auto ref_run = ref.run();
  ASSERT_EQ(ref_run.passes, run.passes);
  for (std::size_t v = 0; v < ref.ranks().size(); ++v) {
    ASSERT_EQ(ref.ranks()[v], engine.ranks()[v]);
  }
}

}  // namespace
}  // namespace dprank
