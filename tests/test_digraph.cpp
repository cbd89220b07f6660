#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace dprank {
namespace {

Digraph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  return Digraph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(Digraph, EmptyGraph) {
  const Digraph g = Digraph::from_edges(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Digraph, NodesWithoutEdges) {
  const Digraph g = Digraph::from_edges(5, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.out_degree(v), 0u);
    EXPECT_EQ(g.in_degree(v), 0u);
    EXPECT_TRUE(g.out_neighbors(v).empty());
    EXPECT_TRUE(g.in_neighbors(v).empty());
  }
}

TEST(Digraph, BasicAdjacency) {
  const Digraph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  const auto n0 = g.out_neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(n0.begin(), n0.end()),
            (std::vector<NodeId>{1, 2}));
  const auto i3 = g.in_neighbors(3);
  EXPECT_EQ(std::vector<NodeId>(i3.begin(), i3.end()),
            (std::vector<NodeId>{1, 2}));
}

TEST(Digraph, DropsSelfLoopsAndDuplicates) {
  const Digraph g = Digraph::from_edges(
      3, {{0, 1}, {0, 1}, {1, 1}, {1, 2}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Digraph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Digraph::from_edges(2, {{0, 2}}), std::out_of_range);
  EXPECT_THROW(Digraph::from_edges(2, {{5, 0}}), std::out_of_range);
}

TEST(Digraph, HasEdge) {
  const Digraph g = diamond();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Digraph, EdgeListRoundTrip) {
  const Digraph g = diamond();
  const auto edges = g.edge_list();
  const Digraph g2 = Digraph::from_edges(4, edges);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (const auto& e : edges) EXPECT_TRUE(g2.has_edge(e.src, e.dst));
}

TEST(Digraph, OutEdgeIdsAreContiguous) {
  const Digraph g = diamond();
  EXPECT_EQ(g.out_edge_begin(0), 0u);
  EXPECT_EQ(g.out_edge_end(0), 2u);
  EXPECT_EQ(g.out_edge_begin(1), 2u);
  EXPECT_EQ(g.out_target(0), 1u);
  EXPECT_EQ(g.out_target(1), 2u);
  EXPECT_EQ(g.out_target(2), 3u);
}

TEST(Digraph, CrossIndexMapsInEdgesToOutSlots) {
  const Digraph g = diamond();
  // For every node v and in-position i, the out-edge id must point back
  // at an edge whose target is v and whose source is in_neighbors(v)[i].
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto sources = g.in_neighbors(v);
    const auto slots = g.in_to_out_edge(v);
    ASSERT_EQ(sources.size(), slots.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const EdgeId e = slots[i];
      EXPECT_EQ(g.out_target(e), v);
      const NodeId u = sources[i];
      EXPECT_GE(e, g.out_edge_begin(u));
      EXPECT_LT(e, g.out_edge_end(u));
    }
  }
}

TEST(Digraph, CrossIndexOnRandomGraph) {
  Rng rng(42);
  std::vector<Edge> edges;
  const NodeId n = 200;
  for (int i = 0; i < 2000; ++i) {
    edges.push_back({static_cast<NodeId>(rng.bounded(n)),
                     static_cast<NodeId>(rng.bounded(n))});
  }
  const Digraph g = Digraph::from_edges(n, edges);
  std::uint64_t checked = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto sources = g.in_neighbors(v);
    const auto slots = g.in_to_out_edge(v);
    ASSERT_EQ(sources.size(), slots.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      ASSERT_EQ(g.out_target(slots[i]), v);
      ASSERT_GE(slots[i], g.out_edge_begin(sources[i]));
      ASSERT_LT(slots[i], g.out_edge_end(sources[i]));
      ++checked;
    }
  }
  EXPECT_EQ(checked, g.num_edges());
}

TEST(Digraph, InNeighborsSortedBySource) {
  // MutableDigraph copies in-lists as they are and relies on them being
  // ordered by source id.
  Rng rng(7);
  std::vector<Edge> edges;
  const NodeId n = 100;
  for (int i = 0; i < 800; ++i) {
    edges.push_back({static_cast<NodeId>(rng.bounded(n)),
                     static_cast<NodeId>(rng.bounded(n))});
  }
  const Digraph g = Digraph::from_edges(n, edges);
  for (NodeId v = 0; v < n; ++v) {
    const auto srcs = g.in_neighbors(v);
    EXPECT_TRUE(std::is_sorted(srcs.begin(), srcs.end()));
  }
}

TEST(Digraph, DegreeSumsEqualEdgeCount) {
  Rng rng(11);
  std::vector<Edge> edges;
  const NodeId n = 150;
  for (int i = 0; i < 1500; ++i) {
    edges.push_back({static_cast<NodeId>(rng.bounded(n)),
                     static_cast<NodeId>(rng.bounded(n))});
  }
  const Digraph g = Digraph::from_edges(n, edges);
  std::uint64_t out_sum = 0;
  std::uint64_t in_sum = 0;
  for (NodeId v = 0; v < n; ++v) {
    out_sum += g.out_degree(v);
    in_sum += g.in_degree(v);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

}  // namespace
}  // namespace dprank
