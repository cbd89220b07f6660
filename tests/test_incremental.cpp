#include "pagerank/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"

namespace dprank {
namespace {

PagerankOptions opts(double eps, double d = 0.85) {
  PagerankOptions o;
  o.epsilon = eps;
  o.damping = d;
  return o;
}

TEST(Incremental, Figure2ExactIncrements) {
  // The paper's Figure 2 with d = 1: G (rank 1, 3 outlinks) sends 1/3 to
  // H, I, J; H (2 outlinks) forwards 1/6 to K and L.
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 0.0);
  IncrementalPagerank engine(g, ranks, opts(1e-9, /*d=*/1.0));
  const auto stats = engine.seed_and_propagate(0);

  EXPECT_DOUBLE_EQ(ranks[0], 1.0);        // G seeded
  EXPECT_DOUBLE_EQ(ranks[1], 1.0 / 3.0);  // H
  EXPECT_DOUBLE_EQ(ranks[2], 1.0 / 3.0);  // I
  EXPECT_DOUBLE_EQ(ranks[3], 1.0 / 3.0);  // J
  EXPECT_DOUBLE_EQ(ranks[4], 1.0 / 6.0);  // K
  EXPECT_DOUBLE_EQ(ranks[5], 1.0 / 6.0);  // L

  EXPECT_EQ(stats.nodes_covered, 5u);
  EXPECT_EQ(stats.updates_delivered, 5u);
  EXPECT_EQ(stats.path_length, 2u);  // G -> H -> {K, L}
}

TEST(Incremental, Figure2WithDamping) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 0.0);
  IncrementalPagerank engine(g, ranks, opts(1e-9, 0.85));
  (void)engine.seed_and_propagate(0);
  EXPECT_DOUBLE_EQ(ranks[1], 0.85 / 3.0);
  EXPECT_DOUBLE_EQ(ranks[4], 0.85 * (0.85 / 3.0) / 2.0);
}

TEST(Incremental, ThresholdStopsPropagation) {
  // With a large epsilon the H -> K/L forwards are suppressed.
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 1.0);  // relative change 1/3 on H et al.
  IncrementalPagerank engine(g, ranks, opts(/*eps=*/0.5, 1.0));
  const auto stats = engine.seed_and_propagate(0);
  EXPECT_EQ(stats.path_length, 1u);      // only G's direct outlinks
  EXPECT_EQ(stats.nodes_covered, 3u);    // H, I, J
  EXPECT_DOUBLE_EQ(ranks[4], 1.0);       // K untouched
}

TEST(Incremental, ProbeRestoresRanks) {
  const Digraph g = paper_graph(2000, 5);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  const auto before = ranks;
  IncrementalPagerank engine(g, ranks, opts(1e-4));
  const auto stats = engine.probe_insert(123);
  EXPECT_GT(stats.updates_delivered, 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_DOUBLE_EQ(ranks[v], before[v]) << "node " << v;
  }
}

TEST(Incremental, ProbesAreIndependent) {
  const Digraph g = paper_graph(2000, 6);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  IncrementalPagerank engine(g, ranks, opts(1e-4));
  const auto first = engine.probe_insert(7);
  (void)engine.probe_insert(1234);
  const auto again = engine.probe_insert(7);
  EXPECT_EQ(first.updates_delivered, again.updates_delivered);
  EXPECT_EQ(first.nodes_covered, again.nodes_covered);
  EXPECT_EQ(first.path_length, again.path_length);
}

TEST(Incremental, CoverageGrowsAsEpsilonShrinks) {
  // Table 4: node coverage grows roughly linearly in 1/epsilon.
  const Digraph g = paper_graph(10'000, 7);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  IncrementalPagerank engine(g, ranks, opts(1e-1));
  std::uint64_t prev_coverage = 0;
  std::uint32_t prev_path = 0;
  for (const double eps : {1e-1, 1e-2, 1e-3}) {
    IncrementalPagerank probe(g, ranks, opts(eps));
    // Average a few source nodes to damp variance.
    std::uint64_t coverage = 0;
    std::uint32_t path = 0;
    for (const NodeId src : {11u, 222u, 3333u}) {
      const auto s = probe.probe_insert(src);
      coverage += s.nodes_covered;
      path = std::max(path, s.path_length);
    }
    EXPECT_GE(coverage, prev_coverage);
    EXPECT_GE(path, prev_path);
    prev_coverage = coverage;
    prev_path = path;
  }
  EXPECT_GT(prev_coverage, 3u);
}

TEST(Incremental, InsertThenExactRecomputeAgree) {
  // After inserting a real document, the incrementally updated ranks
  // must match a from-scratch centralized solve on the new graph, within
  // the propagation tolerance.
  const Digraph base = paper_graph(1000, 8);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;

  NodeId new_id = 0;
  const auto stats = insert_document(g, ranks, {5, 17, 400}, opts(1e-7),
                                     &new_id);
  EXPECT_EQ(new_id, 1000u);
  EXPECT_GT(stats.updates_delivered, 0u);

  const auto exact = centralized_pagerank(g.freeze(), 0.85, 1e-13).ranks;
  const auto q = summarize_quality(ranks, exact);
  EXPECT_LT(q.max, 1e-4);
}

TEST(Incremental, DeleteThenExactRecomputeAgree) {
  const Digraph base = paper_graph(1000, 9);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;

  // Pick a document with out-links but no in-links: the paper's delete
  // protocol propagates the negated rank along out-links; a victim with
  // in-links would also change its sources' out-degrees, a second-order
  // effect the protocol (and this test) does not model.
  NodeId victim = base.num_nodes();
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    if (base.out_degree(v) > 0 && base.in_degree(v) == 0) {
      victim = v;
      break;
    }
  }
  if (victim == base.num_nodes()) {
    GTEST_SKIP() << "no in-degree-0 document in this graph seed";
  }
  const auto stats = delete_document(g, ranks, victim, opts(1e-7));
  EXPECT_GT(stats.updates_delivered, 0u);
  EXPECT_TRUE(g.is_isolated(victim));
  EXPECT_DOUBLE_EQ(ranks[victim], 0.0);

  auto exact = centralized_pagerank(g.freeze(), 0.85, 1e-13).ranks;
  exact[victim] = 0.0;  // deleted doc carries no rank in either view
  const auto q = summarize_quality(ranks, exact);
  EXPECT_LT(q.max, 1e-4);
}

TEST(Incremental, DeleteOnACycleTakesNoFeedback) {
  // 0 <-> 1 at its fixed point (both ranks 1). Deleting 0 leaves 1 with
  // no in-link, so it must land on the teleport floor 1 - d. The negated
  // cascade reaches 0 again through 1; delivered there, it would be
  // subtracted from 1 a second time and drive it negative.
  MutableDigraph g(NodeId{2});
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  std::vector<double> ranks =
      centralized_pagerank(g.freeze(), 0.85, 1e-13).ranks;
  ASSERT_NEAR(ranks[1], 1.0, 1e-9);
  const auto stats = delete_document(g, ranks, 0, opts(1e-9));
  EXPECT_EQ(stats.updates_delivered, 1u);
  EXPECT_NEAR(ranks[1], 0.15, 1e-9);
  EXPECT_DOUBLE_EQ(ranks[0], 0.0);
  EXPECT_NEAR(centralized_pagerank(g.freeze(), 0.85, 1e-13).ranks[1],
              ranks[1], 1e-9);
}

TEST(Incremental, InsertThenDeleteIsNoOp) {
  // Inserting a document and immediately deleting it must return every
  // other rank to its original value (within tolerance).
  const Digraph base = paper_graph(1000, 10);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;
  const auto before = ranks;

  NodeId id = 0;
  (void)insert_document(g, ranks, {3, 50, 700}, opts(1e-9), &id);
  (void)delete_document(g, ranks, id, opts(1e-9));

  // Truncation residue per cascade is bounded relative to each node's
  // rank (the stopping rule is relative), so compare relatively.
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    ASSERT_NEAR(ranks[v], before[v], 1e-4 * std::max(1.0, before[v]))
        << "node " << v;
  }
}

TEST(Incremental, CrossPeerMessagesCounted) {
  const Digraph g = paper_graph(2000, 11);
  std::vector<double> ranks = centralized_pagerank(g, 0.85).ranks;
  const auto placement = Placement::random(2000, 50, 11);
  IncrementalPagerank engine(g, ranks, opts(1e-3), &placement);
  const auto stats = engine.probe_insert(42);
  EXPECT_LE(stats.cross_peer_messages, stats.updates_delivered);
  // With 50 peers, ~98% of links cross peers.
  if (stats.updates_delivered > 20) {
    EXPECT_GT(stats.cross_peer_messages, stats.updates_delivered / 2);
  }
}

TEST(Incremental, ValidatesNodeIds) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 1.0);
  IncrementalPagerank engine(g, ranks, opts(1e-3));
  EXPECT_THROW(engine.seed_and_propagate(6), std::out_of_range);
  EXPECT_THROW(engine.probe_insert(100), std::out_of_range);
  EXPECT_THROW(engine.propagate_delete(6), std::out_of_range);
  EXPECT_THROW(engine.inject(6, 0.1), std::out_of_range);
}

TEST(Incremental, RankVectorSizeValidated) {
  const Digraph g = figure2_graph();
  std::vector<double> wrong(5, 1.0);
  EXPECT_THROW(IncrementalPagerank(g, wrong, opts(1e-3)),
               std::invalid_argument);
}

TEST(Incremental, OneEngineFollowsAGrowingGraph) {
  // One engine kept across the inserts, deletes and batches of a live
  // graph agrees bit for bit with a fresh engine built for each write,
  // and refuses a cascade once the rank vector falls out of step.
  const Digraph base = paper_graph(1000, 12);
  MutableDigraph kept_graph(base);
  MutableDigraph fresh_graph(base);
  std::vector<double> kept_ranks = centralized_pagerank(base, 0.85).ranks;
  std::vector<double> fresh_ranks = kept_ranks;
  const PagerankOptions o = opts(1e-4);
  IncrementalPagerank kept(kept_graph, kept_ranks, o);
  Rng rng(12);
  for (int write = 0; write < 60; ++write) {
    const auto n = kept_graph.num_nodes();
    const auto kind = rng.bounded(3);
    if (kind == 0) {
      std::vector<NodeId> links;
      while (links.size() < 3) {
        const auto v = static_cast<NodeId>(rng.bounded(n));
        if (std::find(links.begin(), links.end(), v) == links.end()) {
          links.push_back(v);
        }
      }
      const NodeId id = kept_graph.add_document(links);
      ASSERT_EQ(fresh_graph.add_document(links), id);
      kept_ranks.push_back(o.initial_rank);
      fresh_ranks.push_back(o.initial_rank);
      std::vector<NodeId> kept_touched;
      std::vector<NodeId> fresh_touched;
      (void)kept.integrate_insert(id, &kept_touched);
      IncrementalPagerank fresh(fresh_graph, fresh_ranks, o);
      (void)fresh.integrate_insert(id, &fresh_touched);
      ASSERT_EQ(kept_touched, fresh_touched) << "insert " << write;
    } else if (kind == 1) {
      const auto victim = static_cast<NodeId>(rng.bounded(n));
      (void)kept.propagate_full_delete(kept_graph, victim);
      IncrementalPagerank fresh(fresh_graph, fresh_ranks, o);
      (void)fresh.propagate_full_delete(fresh_graph, victim);
      ASSERT_EQ(kept.last_touched(), fresh.last_touched())
          << "delete " << write;
    } else {
      std::vector<std::pair<NodeId, double>> deltas;
      for (int i = 0; i < 4; ++i) {
        deltas.emplace_back(static_cast<NodeId>(rng.bounded(n)),
                            rng.uniform(-0.05, 0.05));
      }
      (void)kept.inject_batch(deltas);
      IncrementalPagerank fresh(fresh_graph, fresh_ranks, o);
      (void)fresh.inject_batch(deltas);
      ASSERT_EQ(kept.last_touched(), fresh.last_touched())
          << "batch " << write;
    }
    ASSERT_EQ(kept_ranks, fresh_ranks) << "after write " << write;
  }
  EXPECT_GT(kept_graph.num_nodes(), base.num_nodes());
  kept_ranks.push_back(1.0);
  EXPECT_THROW((void)kept.inject(0, 0.1), std::invalid_argument);
}

TEST(Incremental, LastTouchedPopulatedByEveryMutatingEntryPoint) {
  const Digraph g = figure2_graph();

  {  // seed_and_propagate: seed + cascade targets
    std::vector<double> ranks(6, 0.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.seed_and_propagate(0);
    const auto& touched = engine.last_touched();
    EXPECT_EQ(touched.size(), 6u);  // G itself + H, I, J, K, L
    EXPECT_NE(std::find(touched.begin(), touched.end(), 0u), touched.end())
        << "seed node missing from last_touched";
  }
  {  // propagate_delete: the deleted document + its cascade targets
    std::vector<double> ranks(6, 1.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.propagate_delete(0);
    const auto& touched = engine.last_touched();
    EXPECT_NE(std::find(touched.begin(), touched.end(), 0u), touched.end())
        << "deleted node missing from last_touched";
    EXPECT_GE(touched.size(), 4u);  // G + at least H, I, J
  }
  {  // inject: the injection point
    std::vector<double> ranks(6, 1.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.inject(4, 0.25);
    const auto& touched = engine.last_touched();
    EXPECT_NE(std::find(touched.begin(), touched.end(), 4u), touched.end());
  }
  {  // probe_insert restores everything: nothing stays touched
    std::vector<double> ranks(6, 1.0);
    IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
    (void)engine.probe_insert(0);
    EXPECT_TRUE(engine.last_touched().empty());
  }
}

TEST(Incremental, InjectBatchCoalescesDuplicates) {
  // Two deltas to H coalesce into one delivery whose significance test
  // sees the sum; the result matches a single inject of the sum.
  const Digraph g = figure2_graph();
  std::vector<double> batched(6, 1.0);
  std::vector<double> single(6, 1.0);
  {
    IncrementalPagerank engine(g, batched, opts(1e-9, 1.0));
    const auto stats = engine.inject_batch({{1, 0.1}, {1, 0.2}});
    EXPECT_EQ(stats.updates_delivered, 3u);  // H once, then K and L
    EXPECT_NE(std::find(engine.last_touched().begin(),
                        engine.last_touched().end(), 1u),
              engine.last_touched().end());
  }
  {
    IncrementalPagerank engine(g, single, opts(1e-9, 1.0));
    (void)engine.inject(1, 0.3);
  }
  for (NodeId v = 0; v < 6; ++v) {
    ASSERT_DOUBLE_EQ(batched[v], single[v]) << "node " << v;
  }
}

// Two paths into node 3 (0 -> 1 -> 3, 0 -> 2 -> 3) and a skip edge
// 0 -> 4 that reaches 4 again through 3: documents reached twice.
Digraph diamond_graph() {
  return Digraph::from_edges(
      6, {{0, 1}, {0, 2}, {0, 4}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 5}});
}

TEST(Incremental, CoalescedCascadeDeliversATwiceReachedDocumentOnce) {
  const Digraph g = diamond_graph();
  std::vector<double> coalesced(6, 1.0);
  std::vector<double> per_message(6, 1.0);
  IncrementalPagerank batch(g, coalesced, opts(1e-9, 0.85));
  IncrementalPagerank single(g, per_message, opts(1e-9, 0.85));
  const auto c = batch.inject_batch({{0, 0.6}});
  const auto m = single.inject(0, 0.6);
  // Per message: 0, its 3 out-links, 3 twice, 4 twice more and 5 five
  // times.
  EXPECT_EQ(m.updates_delivered, 13u);
  // Coalesced: 3's two arrivals join one sum. 4 was delivered (depth 1)
  // before 3 forwarded to it, so 3's share reaches it in a second wave;
  // 5 takes 4's first share and 3's together, then 4's second share.
  EXPECT_EQ(c.updates_delivered, 8u);
  EXPECT_EQ(c.nodes_covered, 6u);
  EXPECT_EQ(m.nodes_covered, 6u);
  EXPECT_EQ(c.path_length, m.path_length);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_NEAR(coalesced[v], per_message[v], 1e-12 * per_message[v])
        << "node " << v;
  }
  // Each document once in the touched list, in delivery order.
  EXPECT_EQ(batch.last_touched(), (std::vector<NodeId>{0, 1, 2, 4, 3, 5}));
}

TEST(Incremental, CoalescedRanksMatchPerMessageOnADag) {
  // A layered DAG: every path ends, and below a tiny epsilon both modes
  // deliver the sum over all paths, so they agree up to rounding.
  std::vector<Edge> edges;
  for (NodeId layer = 0; layer < 4; ++layer) {
    for (NodeId a = 0; a < 4; ++a) {
      for (NodeId b = 0; b < 4; ++b) {
        if ((a + b + layer) % 3 != 0) {
          edges.push_back({layer * 4 + a, (layer + 1) * 4 + b});
        }
      }
    }
  }
  const Digraph g = Digraph::from_edges(20, edges);
  std::vector<double> coalesced(20, 0.5);
  std::vector<double> per_message(20, 0.5);
  const std::vector<std::pair<NodeId, double>> seeds{
      {0, 0.4}, {2, -0.1}, {5, 0.25}, {0, 0.1}, {9, 0.3}};
  IncrementalPagerank batch(g, coalesced, opts(1e-15, 0.85));
  IncrementalPagerank single(g, per_message, opts(1e-15, 0.85));
  const auto c = batch.inject_batch(seeds);
  std::uint64_t messages = 0;
  for (const auto& [node, delta] : seeds) {
    messages += single.inject(node, delta).updates_delivered;
  }
  EXPECT_LT(c.updates_delivered, messages);
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_NEAR(coalesced[v], per_message[v],
                1e-12 * std::abs(per_message[v]))
        << "node " << v;
  }
}

TEST(Incremental, DepthCapStopsACoalescedDampingOneCycle) {
  // 0 <-> 1 at damping 1: every delivery forwards its whole delta and the
  // relative change stays above epsilon, so only the depth cap ends it.
  const Digraph g = Digraph::from_edges(2, {{0, 1}, {1, 0}});
  std::vector<double> ranks(2, 1.0);
  IncrementalPagerank engine(g, ranks, opts(1e-9, 1.0));
  const auto stats = engine.inject_batch({{0, 1.0}});
  EXPECT_EQ(stats.path_length, 1'000'000u);
  EXPECT_EQ(stats.updates_delivered, 1'000'001u);
  EXPECT_EQ(stats.nodes_covered, 2u);
}

TEST(Incremental, InjectBatchValidatesNodeIds) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 1.0);
  IncrementalPagerank engine(g, ranks, opts(1e-3));
  EXPECT_THROW(engine.inject_batch({{1, 0.1}, {6, 0.1}}), std::out_of_range);
}

TEST(Incremental, PropagateFullDeleteLeavesNoDanglingRank) {
  const Digraph base = paper_graph(500, 12);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-13).ranks;
  const Digraph snapshot = g.freeze();
  IncrementalPagerank engine(snapshot, ranks, opts(1e-7));

  const NodeId victim = 42;
  (void)engine.propagate_full_delete(g, victim);
  EXPECT_TRUE(g.is_isolated(victim));
  EXPECT_DOUBLE_EQ(ranks[victim], 0.0);
  const auto& touched = engine.last_touched();
  EXPECT_NE(std::find(touched.begin(), touched.end(), victim), touched.end());

  // Wrong graph (size mismatch with the snapshot) is rejected.
  MutableDigraph other(NodeId{3});
  EXPECT_THROW(engine.propagate_full_delete(other, 1), std::invalid_argument);
}

TEST(Incremental, IsolateNodeReturnsRemovedEdgeCount) {
  MutableDigraph g(NodeId{4});
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(3, 0);
  EXPECT_EQ(g.isolate_node(0), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.isolate_node(0), 0u);
}

TEST(Incremental, DanglingSeedSendsNothing) {
  const Digraph g = figure2_graph();
  std::vector<double> ranks(6, 0.5);
  IncrementalPagerank engine(g, ranks, opts(1e-6));
  const auto stats = engine.seed_and_propagate(4);  // K has no outlinks
  EXPECT_EQ(stats.updates_delivered, 0u);
  EXPECT_EQ(stats.nodes_covered, 0u);
  EXPECT_DOUBLE_EQ(ranks[4], 1.0);  // still seeded
}

}  // namespace
}  // namespace dprank
