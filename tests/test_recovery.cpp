// Crash-fault recovery tests (extension): fail-stop crashes destroy peer
// state, acked delivery retransmits losses, replicas restore ranks, and
// the mass audit guarantees no emitted contribution is silently lost.

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "p2p/replication.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/dense_oracle.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/mass_audit.hpp"
#include "pagerank/quality.hpp"
#include "sim/experiment.hpp"

#include <vector>

namespace dprank {
namespace {

PagerankOptions opts(double eps) {
  PagerankOptions o;
  o.epsilon = eps;
  return o;
}

// ---- MassAuditor unit tests ----

TEST(MassAuditor, StartsConservedAtInitialState) {
  const Digraph g = figure2_graph();
  MassAuditor auditor(g, std::vector<double>(g.num_nodes(), 1.0));
  // The engine's initial contribution cells are exactly the ledger's
  // initial expectation.
  std::vector<double> effective(g.num_edges(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto deg = g.out_degree(u);
    for (EdgeId e = g.out_edge_begin(u); e < g.out_edge_end(u); ++e) {
      effective[e] = 1.0 / static_cast<double>(deg);
    }
  }
  const auto report =
      auditor.audit([&effective](EdgeId e) { return effective[e]; });
  EXPECT_TRUE(report.conserved(1e-9));
  EXPECT_DOUBLE_EQ(report.mass_ratio, 1.0);
  EXPECT_EQ(report.leaking_edges, 0u);
}

TEST(MassAuditor, DetectsAndLocatesLeaks) {
  const Digraph g = figure2_graph();
  MassAuditor auditor(g, std::vector<double>(g.num_nodes(), 1.0));
  std::vector<double> effective(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    auditor.on_emit(e, 0.25);
    effective[e] = 0.25;
  }
  effective[2] = 0.0;  // a lost contribution
  const auto effective_of = [&effective](EdgeId e) { return effective[e]; };
  const auto report = auditor.audit(effective_of);
  EXPECT_FALSE(report.conserved(1e-9));
  EXPECT_EQ(report.leaking_edges, 1u);
  EXPECT_NEAR(report.leaked, 0.25, 1e-15);
  EXPECT_LT(report.mass_ratio, 1.0);
  EXPECT_EQ(auditor.leaking_edges(effective_of), (std::vector<EdgeId>{2}));
  EXPECT_DOUBLE_EQ(auditor.expected(2), 0.25);
}

TEST(MassAuditor, KnownLossIsACheapCounter) {
  const Digraph g = figure2_graph();
  MassAuditor auditor(g, std::vector<double>(g.num_nodes(), 1.0));
  auditor.on_known_loss(0.5);
  auditor.on_known_loss(-0.25);  // magnitudes accumulate
  EXPECT_DOUBLE_EQ(auditor.known_lost(), 0.75);
  EXPECT_EQ(auditor.known_loss_events(), 2u);
}

TEST(MassAuditor, RejectsMismatchedEffectiveVector) {
  const Digraph g = figure2_graph();
  // The start vector covers documents, not edges.
  EXPECT_THROW(MassAuditor(g, std::vector<double>(g.num_nodes() + 1, 1.0)),
               std::invalid_argument);
}

// ---- engine-level recovery ----

TEST(Recovery, AuditAloneMatchesPlainRun) {
  // With no faults the audit must observe perfect conservation, change
  // nothing, and cost no repairs.
  const Digraph g = paper_graph(1500, 31);
  const auto p = Placement::random(1500, 30, 31);

  DistributedPagerank plain(g, p, opts(1e-4));
  ASSERT_TRUE(plain.run().converged);

  DistributedPagerank audited(g, p, opts(1e-4));
  audited.enable_mass_audit();
  const auto run = audited.run();
  ASSERT_TRUE(run.converged);
  EXPECT_DOUBLE_EQ(run.mass_ratio, 1.0);
  EXPECT_EQ(run.repair_rounds, 0u);
  EXPECT_EQ(audited.ranks(), plain.ranks());
}

TEST(Recovery, CrashDestroysStateAndRecoveryRebuildsIt) {
  const Digraph g = paper_graph(2000, 32);
  const auto p = Placement::random(2000, 40, 32);
  const auto ref = centralized_pagerank(g, 0.85, 1e-12).ranks;

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan({.crashes = {{.pass = 2, .peer = 3}, {.pass = 5, .peer = 17}},
                  .crash_downtime_passes = 2,
                  .seed = 33});
  engine.attach_fault_plan(plan);
  engine.enable_mass_audit();
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(engine.crashes(), 2u);
  EXPECT_GT(engine.recovered_docs(), 0u);
  EXPECT_GT(engine.recovery_messages(), 0u);
  EXPECT_NEAR(run.mass_ratio, 1.0, 1e-9);
  // The mass auditor saw the crash wipe the stored contributions.
  ASSERT_NE(engine.mass_auditor(), nullptr);
  EXPECT_GT(engine.mass_auditor()->known_loss_events(), 0u);
  const auto q = summarize_quality(engine.ranks(), ref);
  EXPECT_LT(q.p50, 0.05);
}

TEST(Recovery, ReplicasRestoreRanksAfterCrash) {
  const Digraph g = paper_graph(2000, 34);
  const auto p = Placement::random(2000, 40, 34);
  const auto replicas = ReplicaRegistry::uniform(p, 1, 34);

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan({.crashes = {{.pass = 3, .peer = 7}}, .seed = 35});
  engine.attach_fault_plan(plan);
  engine.attach_replicas(replicas);
  engine.enable_mass_audit();
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  // Every document on the crashed peer had a replica to restore from.
  EXPECT_GT(engine.replica_restores(), 0u);
  EXPECT_EQ(engine.replica_restores(), engine.recovered_docs());
  EXPECT_NEAR(run.mass_ratio, 1.0, 1e-9);
}

TEST(Recovery, UnackedCrashLossesAreRepairedByTheAudit) {
  // Without acked delivery a drop leaks rank mass silently; the audit
  // finds the leaking edges at quiescence and re-injects them, so the
  // run still terminates fully accounted.
  const Digraph g = paper_graph(2000, 36);
  const auto p = Placement::random(2000, 40, 36);

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan({.drop_probability = 0.1,
                  .crashes = {{.pass = 2, .peer = 5}},
                  .seed = 37});
  engine.attach_fault_plan(plan);
  engine.enable_mass_audit();
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  EXPECT_GT(run.repair_rounds, 0u);
  EXPECT_GT(engine.repair_messages(), 0u);
  EXPECT_NEAR(run.mass_ratio, 1.0, 1e-9);
}

TEST(Recovery, PartitionParksCrossCutTrafficThenHeals) {
  const Digraph g = paper_graph(2000, 38);
  const auto p = Placement::random(2000, 40, 38);

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan({.partitions = {{.start_pass = 1,
                                  .duration_passes = 4,
                                  .fraction = 0.5}},
                  .seed = 39});
  engine.attach_fault_plan(plan);
  engine.enable_mass_audit();
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  // Cross-cut sends were parked in the outbox rather than lost...
  EXPECT_GT(engine.partition_deferrals(), 0u);
  EXPECT_GT(engine.outbox_peak(), 0u);
  // ...and delivered after the heal: nothing leaked.
  EXPECT_NEAR(run.mass_ratio, 1.0, 1e-9);
  EXPECT_EQ(run.repair_rounds, 0u);
}

TEST(Recovery, OutboxStateStaysLinearInOutlinks) {
  // §3.1: "the amount of state saved scales linearly with the sum of
  // outlinks in all documents in a peer" — the per-edge outbox can never
  // exceed one slot per graph edge, whatever the fault pressure.
  const Digraph g = paper_graph(1500, 40);
  const auto p = Placement::random(1500, 30, 40);
  ChurnSchedule churn(30, 0.5, 40);

  DistributedPagerank engine(g, p, opts(1e-3));
  FaultPlan plan({.drop_probability = 0.1,
                  .crashes = {{.pass = 2, .peer = 1}},
                  .seed = 41});
  engine.attach_fault_plan(plan);
  engine.enable_mass_audit();
  ASSERT_TRUE(engine.run(&churn).converged);
  EXPECT_GT(engine.outbox_peak(), 0u);
  EXPECT_LE(engine.outbox_peak(), g.num_edges());
}

TEST(Recovery, SessionChurnWithCrashesMatchesDenseOracle) {
  // Property test: long offline sessions (ChurnModel::kSessions) plus
  // crash faults and lossy acked delivery still converge to the
  // dense-oracle fixed point within the usual quality envelope.
  const Digraph g = paper_graph(800, 42);
  const auto p = Placement::random(800, 20, 42);
  const auto oracle = dense_pagerank_oracle(g, 0.85);
  const auto replicas = ReplicaRegistry::uniform(p, 1, 42);
  ChurnSchedule churn(20, 0.6, 42, ChurnModel::kSessions,
                      /*mean_online_passes=*/8.0);

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan({.drop_probability = 0.05,
                  .crashes = {{.pass = 4, .peer = 2},
                              {.pass = 9, .peer = 11},
                              {.pass = 15, .peer = 2}},
                  .crash_downtime_passes = 3,
                  .acked_delivery = true,
                  .seed = 43});
  engine.attach_fault_plan(plan);
  engine.attach_replicas(replicas);
  engine.enable_mass_audit();
  const auto run = engine.run(&churn);
  ASSERT_TRUE(run.converged);
  EXPECT_NEAR(run.mass_ratio, 1.0, 1e-9);
  const auto q = summarize_quality(engine.ranks(), oracle);
  EXPECT_LT(q.p50, 0.05);
  EXPECT_LT(q.avg, 0.10);
  EXPECT_GT(q.fraction_within_1pct, 0.25);
}

// ---- acceptance: the §4.2 standard experiment under the full plan ----

TEST(Recovery, StandardExperimentFullFaultPlanConvergesMassExact) {
  // ISSUE acceptance criterion: 5% drop, 5% duplicate, reorder window 4,
  // two crashes on the §4.2 standard experiment (10k docs, 500 peers)
  // must converge with the audited rank mass within 1e-6 of 1.0 —
  // deterministically.
  const StandardExperiment exp({.num_docs = 10'000, .num_peers = 500});
  StandardExperiment::FaultRunOptions fo;
  fo.plan.drop_probability = 0.05;
  fo.plan.duplicate_probability = 0.05;
  fo.plan.reorder_probability = 0.25;
  fo.plan.reorder_window = 4;
  fo.plan.crashes = {{.pass = 3, .peer = 7}, {.pass = 6, .peer = 123}};
  fo.plan.acked_delivery = true;
  fo.plan.seed = 4242;
  fo.replicas_per_doc = 1;

  const auto a = exp.run_distributed_faulty(fo);
  ASSERT_TRUE(a.run.converged);
  EXPECT_NEAR(a.run.mass_ratio, 1.0, 1e-6);
  EXPECT_EQ(a.crashes, 2u);
  EXPECT_GT(a.recovered_docs, 0u);
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.duplicated, 0u);

  // Deterministic replay: the identical seed reproduces the run exactly.
  const auto b = exp.run_distributed_faulty(fo);
  EXPECT_EQ(a.run.passes, b.run.passes);
  EXPECT_EQ(a.messages, b.messages);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t i = 0; i < a.ranks.size(); ++i) {
    ASSERT_EQ(a.ranks[i], b.ranks[i]) << "doc " << i;
  }

  // Accuracy stays in the §4.4 envelope relative to the reference solve.
  const auto q = summarize_quality(a.ranks, exp.reference_ranks());
  EXPECT_LT(q.p50, 0.05);
}

}  // namespace
}  // namespace dprank
