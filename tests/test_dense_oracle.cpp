// The dense oracle is the independent ground truth: it shares no
// iteration machinery with any engine. These tests first pin the oracle
// itself to hand-solvable systems, then hold every engine in the
// library against it.

#include "pagerank/dense_oracle.hpp"

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/event_engine.hpp"
#include "pagerank/quality.hpp"

namespace dprank {
namespace {

TEST(SolveDense, IdentitySystem) {
  const auto x = solve_dense({1, 0, 0, 1}, {3, 7});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 3, 1e-12);
  EXPECT_NEAR(x[1], 7, 1e-12);
}

TEST(SolveDense, HandSolvable2x2) {
  // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
  const auto x = solve_dense({2, 1, 1, 3}, {5, 10});
  EXPECT_NEAR(x[0], 1, 1e-12);
  EXPECT_NEAR(x[1], 3, 1e-12);
}

TEST(SolveDense, RequiresPivoting) {
  // Leading zero forces a row swap: 0x + y = 2; x + y = 3.
  const auto x = solve_dense({0, 1, 1, 1}, {2, 3});
  EXPECT_NEAR(x[0], 1, 1e-12);
  EXPECT_NEAR(x[1], 2, 1e-12);
}

TEST(SolveDense, SingularRejected) {
  EXPECT_THROW(solve_dense({1, 2, 2, 4}, {1, 2}), std::runtime_error);
}

TEST(SolveDense, SizeValidated) {
  EXPECT_THROW(solve_dense({1, 2, 3}, {1, 2}), std::invalid_argument);
}

TEST(DenseOracle, EmptyAndGuard) {
  EXPECT_TRUE(dense_pagerank_oracle(Digraph::from_edges(0, {})).empty());
  const Digraph big = paper_graph(3000, 1);
  EXPECT_THROW(dense_pagerank_oracle(big, 0.85, 2000),
               std::invalid_argument);
}

TEST(DenseOracle, MatchesHandComputedChain) {
  const Digraph g = Digraph::from_edges(2, {{0, 1}});
  const auto r = dense_pagerank_oracle(g);
  EXPECT_NEAR(r[0], 0.15, 1e-12);
  EXPECT_NEAR(r[1], 0.2775, 1e-12);
}

TEST(DenseOracle, MatchesHandComputedCycle) {
  const Digraph g = Digraph::from_edges(2, {{0, 1}, {1, 0}});
  const auto r = dense_pagerank_oracle(g);
  EXPECT_NEAR(r[0], 1.0, 1e-12);
  EXPECT_NEAR(r[1], 1.0, 1e-12);
}

class OracleVsEngines : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleVsEngines, AllEnginesAgreeWithTheDirectSolve) {
  const Digraph g = paper_graph(300, GetParam());
  const auto oracle = dense_pagerank_oracle(g);
  const auto placement = Placement::random(300, 6, GetParam());
  // epsilon 1e-8: tight enough that every engine lands within 1e-5 of
  // the direct solve, loose enough that the unbatched event cascade
  // stays polynomial (its event count grows steeply as the threshold
  // tightens — see bench_ablation_event_time).
  PagerankOptions opts;
  opts.epsilon = 1e-8;

  const auto jacobi = centralized_pagerank(g, 0.85, 1e-13);
  ASSERT_TRUE(jacobi.converged);
  EXPECT_LT(summarize_quality(jacobi.ranks, oracle).max, 1e-9);

  const auto accel = centralized_pagerank_extrapolated(g, 0.85, 1e-13);
  ASSERT_TRUE(accel.converged);
  EXPECT_LT(summarize_quality(accel.ranks, oracle).max, 1e-9);

  DistributedPagerank pass_engine(g, placement, opts);
  ASSERT_TRUE(pass_engine.run().converged);
  EXPECT_LT(summarize_quality(pass_engine.ranks(), oracle).max, 1e-5);

  EventDrivenPagerank event_engine(g, placement, opts);
  const auto event_result = event_engine.run(/*event_cap=*/20'000'000);
  ASSERT_TRUE(event_result.converged);
  EXPECT_LT(summarize_quality(event_result.ranks, oracle).max, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleVsEngines,
                         ::testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace dprank
