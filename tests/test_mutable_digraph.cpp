#include "graph/mutable_digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "p2p/placement.hpp"
#include "pagerank/incremental.hpp"

namespace dprank {
namespace {

TEST(MutableDigraph, StartsEmpty) {
  MutableDigraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(MutableDigraph, AddNodesAndEdges) {
  MutableDigraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(2), 1u);
}

TEST(MutableDigraph, RejectsSelfLoopsAndDuplicates) {
  MutableDigraph g(2);
  EXPECT_FALSE(g.add_edge(0, 0));
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(MutableDigraph, RemoveEdge) {
  MutableDigraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.in_degree(1), 0u);
}

TEST(MutableDigraph, AddDocumentOnlyHasOutlinks) {
  MutableDigraph g(3);
  g.add_edge(0, 1);
  const NodeId id = g.add_document({0, 2});
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(g.out_degree(id), 2u);
  EXPECT_EQ(g.in_degree(id), 0u);  // a new document cannot have in-links
  EXPECT_TRUE(g.has_edge(id, 0));
  EXPECT_TRUE(g.has_edge(id, 2));
}

TEST(MutableDigraph, IsolateNodeRemovesBothDirections) {
  MutableDigraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 1);
  g.isolate_node(1);
  EXPECT_TRUE(g.is_isolated(1));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.out_degree(0), 0u);
  EXPECT_EQ(g.in_degree(2), 0u);
  EXPECT_EQ(g.out_degree(3), 0u);
  // Node ids remain stable after isolation.
  EXPECT_EQ(g.num_nodes(), 4u);
}

TEST(MutableDigraph, RoundTripWithCsr) {
  const Digraph original = paper_graph(1000, 21);
  const MutableDigraph mutable_copy(original);
  EXPECT_EQ(mutable_copy.num_nodes(), original.num_nodes());
  EXPECT_EQ(mutable_copy.num_edges(), original.num_edges());
  const Digraph frozen = mutable_copy.freeze();
  ASSERT_EQ(frozen.num_edges(), original.num_edges());
  for (NodeId u = 0; u < original.num_nodes(); ++u) {
    const auto a = original.out_neighbors(u);
    const auto b = frozen.out_neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()));
  }
}

TEST(MutableDigraph, InsertDeleteCycleRestoresShape) {
  const Digraph base = paper_graph(500, 13);
  MutableDigraph g(base);
  const EdgeId edges_before = g.num_edges();
  const NodeId id = g.add_document({1, 2, 3});
  EXPECT_EQ(g.num_edges(), edges_before + 3);
  g.isolate_node(id);
  EXPECT_EQ(g.num_edges(), edges_before);
  EXPECT_TRUE(g.is_isolated(id));
}

// The adjacency lists the shadow edge set implies: out-lists ascending
// (the set orders (u, v) pairs) and in-lists ascending (sources are
// walked in ascending u).
::testing::AssertionResult lists_match(
    const MutableDigraph& g,
    const std::set<std::pair<NodeId, NodeId>>& shadow) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> outs(n);
  std::vector<std::vector<NodeId>> ins(n);
  for (const auto& [u, v] : shadow) {
    outs[u].push_back(v);
    ins[v].push_back(u);
  }
  for (NodeId u = 0; u < n; ++u) {
    if (g.out_neighbors(u) != outs[u]) {
      return ::testing::AssertionFailure() << "out-list of node " << u;
    }
    if (g.in_neighbors(u) != ins[u]) {
      return ::testing::AssertionFailure() << "in-list of node " << u;
    }
  }
  return ::testing::AssertionSuccess();
}

// Array-for-array equality of two CSR graphs through their public view.
::testing::AssertionResult same_csr(const Digraph& a, const Digraph& b) {
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges() ||
      a.memory_bytes() != b.memory_bytes()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    if (a.out_edge_begin(u) != b.out_edge_begin(u) ||
        a.in_edge_begin(u) != b.in_edge_begin(u) ||
        !same(a.out_neighbors(u), b.out_neighbors(u)) ||
        !same(a.in_neighbors(u), b.in_neighbors(u)) ||
        !same(a.in_to_out_edge(u), b.in_to_out_edge(u))) {
      return ::testing::AssertionFailure() << "arrays differ at node " << u;
    }
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.out_to_in_edge(e) != b.out_to_in_edge(e)) {
      return ::testing::AssertionFailure() << "cross index differs at " << e;
    }
  }
  return ::testing::AssertionSuccess();
}

// §4.7 regression: a long randomized stream of the exact mutations the
// incremental protocol performs — document inserts (outlinks only),
// edge adds/removes, document deletions (isolate) — must preserve the
// adjacency-mirror invariant after *every* step. validate() throws
// ContractViolation on the first inconsistency, so any break pinpoints
// the offending mutation instead of surfacing passes later as a wrong
// rank. A shadow edge-set pins the exact lists: after every step each
// out- and in-list is the shadow's ascending order. At checkpoints
// freeze() must equal from_edges of the shadow array for array, and a
// seeded batch cascade over the live graph must match one over the
// frozen CSR bit for bit: ranks, stats and touched set.
TEST(MutableDigraph, RandomizedMutationsPreserveInvariants) {
  if (!contracts::enabled()) {
    GTEST_SKIP() << "contracts compiled out (DPRANK_CHECK_INVARIANTS off)";
  }
  Rng rng(0xD16E57ULL);
  MutableDigraph g(paper_graph(200, 17));
  std::set<std::pair<NodeId, NodeId>> shadow;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.out_neighbors(u)) shadow.emplace(u, v);
  }

  for (int step = 0; step < 2000; ++step) {
    const NodeId n = g.num_nodes();
    const double roll = rng.uniform();
    if (roll < 0.15) {
      // Insert a fresh document with random out-links (§4.7: outlinks
      // only; duplicates in the request must be deduplicated).
      std::vector<NodeId> links;
      const auto want = 1 + rng.bounded(8);
      for (std::uint64_t i = 0; i < want; ++i) {
        links.push_back(static_cast<NodeId>(rng.bounded(n)));
      }
      const NodeId id = g.add_document(links);
      EXPECT_EQ(g.in_degree(id), 0u);
      for (const NodeId v : links) shadow.emplace(id, v);
    } else if (roll < 0.55) {
      const auto u = static_cast<NodeId>(rng.bounded(n));
      const auto v = static_cast<NodeId>(rng.bounded(n));
      const bool added = g.add_edge(u, v);
      EXPECT_EQ(added, u != v && shadow.emplace(u, v).second);
      if (u == v) shadow.erase({u, v});
    } else if (roll < 0.9) {
      const auto u = static_cast<NodeId>(rng.bounded(n));
      const auto v = static_cast<NodeId>(rng.bounded(n));
      EXPECT_EQ(g.remove_edge(u, v), shadow.erase({u, v}) == 1);
    } else {
      // Document deletion: drop the row and column (§4.7).
      const auto v = static_cast<NodeId>(rng.bounded(n));
      g.isolate_node(v);
      EXPECT_TRUE(g.is_isolated(v));
      for (auto it = shadow.begin(); it != shadow.end();) {
        it = (it->first == v || it->second == v) ? shadow.erase(it) : ++it;
      }
    }
    ASSERT_NO_THROW(g.validate()) << "after step " << step;
    ASSERT_EQ(g.num_edges(), shadow.size()) << "after step " << step;
    ASSERT_TRUE(lists_match(g, shadow)) << "after step " << step;

    if (step % 250 != 249) continue;
    const Digraph frozen = g.freeze();
    frozen.validate();
    std::vector<Edge> edges;
    for (const auto& [u, v] : shadow) edges.push_back({u, v});
    ASSERT_TRUE(same_csr(frozen, Digraph::from_edges(g.num_nodes(), edges)))
        << "after step " << step;

    Rng draw(static_cast<std::uint64_t>(step));
    const Placement placement =
        Placement::random(g.num_nodes(), 7, static_cast<std::uint64_t>(step));
    std::vector<double> live_ranks(g.num_nodes());
    for (double& r : live_ranks) r = 0.15 + 2.0 * draw.uniform();
    std::vector<double> frozen_ranks = live_ranks;
    std::vector<std::pair<NodeId, double>> deltas;
    for (int i = 0; i < 48; ++i) {
      deltas.emplace_back(static_cast<NodeId>(draw.bounded(g.num_nodes())),
                          draw.uniform() - 0.5);
    }
    PagerankOptions options;
    options.epsilon = 1e-4;
    IncrementalPagerank live(g, live_ranks, options, &placement);
    IncrementalPagerank snap(frozen, frozen_ranks, options, &placement);
    const PropagationStats a = live.inject_batch(deltas);
    const PropagationStats b = snap.inject_batch(deltas);
    EXPECT_GT(a.updates_delivered, deltas.size());  // the cascade forwarded
    ASSERT_EQ(std::memcmp(live_ranks.data(), frozen_ranks.data(),
                          live_ranks.size() * sizeof(double)),
              0)
        << "after step " << step;
    EXPECT_EQ(a.updates_delivered, b.updates_delivered);
    EXPECT_EQ(a.cross_peer_messages, b.cross_peer_messages);
    EXPECT_EQ(a.nodes_covered, b.nodes_covered);
    EXPECT_EQ(a.path_length, b.path_length);
    EXPECT_EQ(live.last_touched(), snap.last_touched());
  }
}

}  // namespace
}  // namespace dprank
