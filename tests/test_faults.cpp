// Fault-injection tests: the chaotic-iteration protocol under lossy and
// duplicating delivery (extension; the paper assumes reliable transport
// plus the §3.1 outbox).

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/quality.hpp"

#include <vector>

namespace dprank {
namespace {

PagerankOptions opts(double eps) {
  PagerankOptions o;
  o.epsilon = eps;
  return o;
}

TEST(Faults, ValidatesProbabilities) {
  EXPECT_THROW(FaultPlan({.drop_probability = 1.0}), std::invalid_argument);
  EXPECT_THROW(FaultPlan({.drop_probability = -0.1}), std::invalid_argument);
  EXPECT_THROW(FaultPlan({.duplicate_probability = 1.5}),
               std::invalid_argument);
}

TEST(Faults, InjectAfterRunRejected) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(6, 2, 1);
  FaultPlan plan({.drop_probability = 0.1});
  DistributedPagerank engine(g, p, opts(1e-3));
  (void)engine.run();
  EXPECT_THROW(engine.attach_fault_plan(plan), std::logic_error);
}

TEST(Faults, DuplicatesAreHarmless) {
  // Newest-value-wins contribution cells make duplicate delivery purely
  // a traffic cost: the fixed point is identical.
  const Digraph g = paper_graph(2000, 12);
  const auto p = Placement::random(2000, 40, 12);

  DistributedPagerank clean(g, p, opts(1e-5));
  ASSERT_TRUE(clean.run().converged);

  FaultPlan plan({.duplicate_probability = 0.3, .seed = 5});
  DistributedPagerank dup(g, p, opts(1e-5));
  dup.attach_fault_plan(plan);
  ASSERT_TRUE(dup.run().converged);

  EXPECT_GT(dup.duplicated_messages(), 0u);
  EXPECT_GT(dup.traffic().messages(), clean.traffic().messages());
  EXPECT_LT(summarize_quality(dup.ranks(), clean.ranks()).max, 1e-12);
}

TEST(Faults, ModerateLossDegradesGracefully) {
  // A dropped update leaves one stale contribution; unless it was the
  // link's final update, a later one repairs it. Accuracy therefore
  // degrades smoothly with the drop rate instead of collapsing.
  const Digraph g = paper_graph(3000, 13);
  const auto p = Placement::random(3000, 50, 13);
  const auto ref = centralized_pagerank(g, 0.85, 1e-12).ranks;

  double prev_err = 0.0;
  for (const double drop : {0.0, 0.05, 0.20}) {
    FaultPlan plan({.drop_probability = drop, .seed = 7});
    DistributedPagerank engine(g, p, opts(1e-4));
    if (drop > 0) engine.attach_fault_plan(plan);
    ASSERT_TRUE(engine.run().converged) << "drop=" << drop;
    const auto q = summarize_quality(engine.ranks(), ref);
    EXPECT_GE(q.avg, prev_err * 0.5) << "drop=" << drop;
    prev_err = q.avg;
    // Even at 20% loss the typical document stays within a few percent.
    if (drop == 0.20) {
      EXPECT_LT(q.p50, 0.05);
      EXPECT_GT(engine.dropped_messages(), 0u);
    }
  }
}

TEST(Faults, LossNeverPreventsTermination) {
  const Digraph g = paper_graph(1500, 14);
  const auto p = Placement::random(1500, 30, 14);
  for (const double drop : {0.5, 0.9}) {
    FaultPlan plan({.drop_probability = drop, .seed = 11});
    DistributedPagerank engine(g, p, opts(1e-3));
    engine.attach_fault_plan(plan);
    const auto run = engine.run();
    EXPECT_TRUE(run.converged) << "drop=" << drop;
    // Heavy loss usually *shortens* the run (updates stop propagating).
    EXPECT_LT(run.passes, 10'000u);
  }
}

TEST(Faults, OutboxPathStaysReliableUnderChurn) {
  // Faults model the direct path; the §3.1 store-and-resend path is
  // reliable by construction, so churn + loss still converges and
  // deferred messages are all eventually delivered.
  const Digraph g = paper_graph(1500, 15);
  const auto p = Placement::random(1500, 30, 15);
  ChurnSchedule churn(30, 0.5, 15);
  FaultPlan plan({.drop_probability = 0.1, .seed = 13});
  DistributedPagerank engine(g, p, opts(1e-3));
  engine.attach_fault_plan(plan);
  const auto run = engine.run(&churn);
  EXPECT_TRUE(run.converged);
  EXPECT_GT(engine.outbox_peak(), 0u);
}

// ---- FaultPlan unit tests ----

TEST(FaultPlanTest, ValidatesConfig) {
  EXPECT_THROW(FaultPlan({.drop_probability = 1.0}), std::invalid_argument);
  EXPECT_THROW(FaultPlan({.drop_probability = -0.1}), std::invalid_argument);
  EXPECT_THROW(FaultPlan({.duplicate_probability = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan({.reorder_probability = 2.0}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan({.crash_probability = -0.5}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan({.partitions = {{.fraction = 0.0}}}),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan({.partitions = {{.fraction = 1.0}}}),
               std::invalid_argument);
  const FaultPlanConfig empty_partition{
      .partitions = {{.start_pass = 1, .duration_passes = 0}}};
  EXPECT_THROW(FaultPlan{empty_partition}, std::invalid_argument);
  EXPECT_THROW(FaultPlan({.ack_timeout_passes = 0}), std::invalid_argument);
}

TEST(FaultPlanTest, BeginPassMustIncrease) {
  FaultPlan plan({.drop_probability = 0.1});
  (void)plan.begin_pass(0, 4);
  (void)plan.begin_pass(1, 4);
  EXPECT_THROW((void)plan.begin_pass(1, 4), std::logic_error);
  EXPECT_THROW((void)plan.begin_pass(0, 4), std::logic_error);
}

TEST(FaultPlanTest, DeterministicReplay) {
  const FaultPlanConfig config{
      .drop_probability = 0.1,
      .duplicate_probability = 0.05,
      .reorder_probability = 0.3,
      .reorder_window = 4,
      .crashes = {{.pass = 2, .peer = 3}},
      .crash_probability = 0.02,
      .partitions = {{.start_pass = 4, .duration_passes = 3}},
      .seed = 99};
  FaultPlan a(config);
  FaultPlan b(config);
  for (std::uint64_t pass = 0; pass < 12; ++pass) {
    EXPECT_EQ(a.begin_pass(pass, 16), b.begin_pass(pass, 16));
    for (PeerId p = 0; p < 16; ++p) {
      for (PeerId q = 0; q < 16; ++q) {
        EXPECT_EQ(a.reachable(p, q), b.reachable(p, q));
      }
    }
    for (int i = 0; i < 40; ++i) {
      const SendFate fa = a.fate_for_send();
      const SendFate fb = b.fate_for_send();
      EXPECT_EQ(fa.dropped, fb.dropped);
      EXPECT_EQ(fa.duplicated, fb.duplicated);
      EXPECT_EQ(fa.delay_passes, fb.delay_passes);
    }
  }
}

TEST(FaultPlanTest, CrashSamplingDoesNotPerturbSendFates) {
  // Fate and crash decisions draw from independent streams: adding crash
  // pressure replays the identical drop/duplicate history.
  FaultPlan quiet({.drop_probability = 0.2, .seed = 5});
  FaultPlan crashy(
      {.drop_probability = 0.2, .crash_probability = 0.1, .seed = 5});
  for (std::uint64_t pass = 0; pass < 6; ++pass) {
    (void)quiet.begin_pass(pass, 32);
    (void)crashy.begin_pass(pass, 32);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(quiet.fate_for_send().dropped,
                crashy.fate_for_send().dropped);
    }
  }
}

TEST(FaultPlanTest, ExplicitCrashesFireOnSchedule) {
  FaultPlan plan({.crashes = {{.pass = 3, .peer = 5},
                              {.pass = 3, .peer = 2},
                              {.pass = 7, .peer = 0}}});
  EXPECT_TRUE(plan.begin_pass(0, 8).empty());
  EXPECT_TRUE(plan.begin_pass(1, 8).empty());
  EXPECT_TRUE(plan.begin_pass(2, 8).empty());
  EXPECT_EQ(plan.begin_pass(3, 8), (std::vector<PeerId>{2, 5}));
  EXPECT_TRUE(plan.begin_pass(4, 8).empty());
  (void)plan.begin_pass(5, 8);
  (void)plan.begin_pass(6, 8);
  EXPECT_EQ(plan.begin_pass(7, 8), (std::vector<PeerId>{0}));
  EXPECT_EQ(plan.crashes_injected(), 3u);
}

TEST(FaultPlanTest, PartitionSplitsThenHeals) {
  FaultPlan plan({.partitions = {{.start_pass = 2,
                                  .duration_passes = 3,
                                  .fraction = 0.5}},
                  .seed = 31});
  const PeerId n = 64;
  (void)plan.begin_pass(0, n);
  EXPECT_FALSE(plan.partition_active());
  (void)plan.begin_pass(1, n);
  (void)plan.begin_pass(2, n);
  ASSERT_TRUE(plan.partition_active());
  // Both sides populated, reachability symmetric and reflexive, and at
  // least one pair is cut off.
  bool cut = false;
  for (PeerId p = 0; p < n; ++p) {
    EXPECT_TRUE(plan.reachable(p, p));
    for (PeerId q = 0; q < n; ++q) {
      EXPECT_EQ(plan.reachable(p, q), plan.reachable(q, p));
      if (!plan.reachable(p, q)) cut = true;
    }
  }
  EXPECT_TRUE(cut);
  (void)plan.begin_pass(3, n);
  (void)plan.begin_pass(4, n);
  EXPECT_TRUE(plan.partition_active());
  (void)plan.begin_pass(5, n);
  EXPECT_FALSE(plan.partition_active());
  for (PeerId p = 0; p < n; ++p) {
    for (PeerId q = 0; q < n; ++q) EXPECT_TRUE(plan.reachable(p, q));
  }
  EXPECT_EQ(plan.partitions_activated(), 1u);
}

TEST(Faults, DoubleAttachRejected) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(6, 2, 1);
  FaultPlan plan({.drop_probability = 0.1});
  FaultPlan other({.drop_probability = 0.2});
  DistributedPagerank engine(g, p, opts(1e-3));
  engine.attach_fault_plan(plan);
  EXPECT_THROW(engine.attach_fault_plan(other), std::logic_error);
}

TEST(Faults, ReorderingIsHandledBySequenceNumbers) {
  // Unequal delivery delays let updates overtake each other; with acked
  // delivery the receiver rejects the stale ones, so the freshest
  // emission always lands last and accuracy stays close to the clean run.
  const Digraph g = paper_graph(2000, 22);
  const auto p = Placement::random(2000, 40, 22);
  const auto ref = centralized_pagerank(g, 0.85, 1e-12).ranks;

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan({.reorder_probability = 0.4,
                  .reorder_window = 4,
                  .acked_delivery = true,
                  .seed = 23});
  engine.attach_fault_plan(plan);
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  EXPECT_GT(engine.stale_rejected(), 0u);
  const auto q = summarize_quality(engine.ranks(), ref);
  EXPECT_LT(q.p50, 0.05);
}

TEST(Faults, AckedDeliveryRetransmitsDrops) {
  // With acked delivery a dropped update is retried until it lands, so
  // heavy loss costs retransmission traffic instead of accuracy.
  const Digraph g = paper_graph(2000, 24);
  const auto p = Placement::random(2000, 40, 24);
  const auto ref = centralized_pagerank(g, 0.85, 1e-12).ranks;

  DistributedPagerank engine(g, p, opts(1e-4));
  FaultPlan plan(
      {.drop_probability = 0.2, .acked_delivery = true, .seed = 25});
  engine.attach_fault_plan(plan);
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  EXPECT_GT(engine.retransmissions(), 0u);
  EXPECT_GT(engine.dropped_messages(), 0u);

  FaultPlan unacked_plan({.drop_probability = 0.2, .seed = 25});
  DistributedPagerank unacked(g, p, opts(1e-4));
  unacked.attach_fault_plan(unacked_plan);
  ASSERT_TRUE(unacked.run().converged);

  const auto q_acked = summarize_quality(engine.ranks(), ref);
  const auto q_unacked = summarize_quality(unacked.ranks(), ref);
  EXPECT_LE(q_acked.avg, q_unacked.avg + 1e-9);
  EXPECT_LT(q_acked.p50, 0.02);
}

TEST(Faults, DelayedDeliveryStillConverges) {
  const Digraph g = paper_graph(1500, 26);
  const auto p = Placement::random(1500, 30, 26);
  DistributedPagerank engine(g, p, opts(1e-3));
  FaultPlan plan({.base_delay_passes = 2, .seed = 27});
  engine.attach_fault_plan(plan);
  const auto run = engine.run();
  EXPECT_TRUE(run.converged);
  // Delays stretch the schedule: more passes than the instant-delivery
  // baseline of the same setup.
  DistributedPagerank baseline(g, p, opts(1e-3));
  EXPECT_GE(run.passes, baseline.run().passes);
}

}  // namespace
}  // namespace dprank
