// End-to-end integration tests: the full pipeline the paper describes,
// from graph synthesis through distributed pagerank to index publication
// and incremental search, plus the StandardExperiment harness the bench
// binaries drive.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/incremental.hpp"
#include "pagerank/quality.hpp"
#include "search/incremental_search.hpp"
#include "search/query_gen.hpp"
#include "sim/experiment.hpp"
#include "sim/time_model.hpp"

namespace dprank {
namespace {

TEST(Experiment, StandardSetupMatchesConfig) {
  ExperimentConfig cfg;
  cfg.num_docs = 2000;
  cfg.num_peers = 40;
  cfg.epsilon = 1e-3;
  const StandardExperiment exp(cfg);
  EXPECT_EQ(exp.graph().num_nodes(), 2000u);
  EXPECT_EQ(exp.placement().num_docs(), 2000u);
  EXPECT_EQ(exp.placement().num_peers(), 40u);
  EXPECT_DOUBLE_EQ(exp.pagerank_options().epsilon, 1e-3);
}

TEST(Experiment, GraphCacheSharesInstances) {
  const auto a = cached_paper_graph(1500, 3);
  const auto b = cached_paper_graph(1500, 3);
  EXPECT_EQ(a.get(), b.get());  // same shared instance
  const auto c = cached_paper_graph(1500, 4);
  EXPECT_NE(a.get(), c.get());
}

TEST(Experiment, RunDistributedProducesQualityRanks) {
  ExperimentConfig cfg;
  cfg.num_docs = 3000;
  cfg.num_peers = 100;
  cfg.epsilon = 1e-4;
  const StandardExperiment exp(cfg);
  const auto outcome = exp.run_distributed();
  ASSERT_TRUE(outcome.run.converged);
  const auto q = summarize_quality(outcome.ranks, exp.reference_ranks());
  EXPECT_LT(q.avg, 1e-2);
  EXPECT_GT(outcome.messages, 0u);
  EXPECT_EQ(outcome.history.size(), outcome.run.passes);
}

TEST(Experiment, ChurnConfigSlowsConvergence) {
  ExperimentConfig cfg;
  cfg.num_docs = 2000;
  cfg.num_peers = 50;
  cfg.epsilon = 1e-3;
  const StandardExperiment full(cfg);
  cfg.availability = 0.5;
  const StandardExperiment half(cfg);
  const auto run_full = full.run_distributed();
  const auto run_half = half.run_distributed();
  ASSERT_TRUE(run_full.run.converged);
  ASSERT_TRUE(run_half.run.converged);
  EXPECT_GT(run_half.run.passes, run_full.run.passes);
}

TEST(Integration, TrajectoryMatchesPaperSection43) {
  // "More than 99% of the nodes converged to within 1% of R_c in less
  // than 10 passes" — check the qualitative claim on a 10k graph (the
  // paper's smallest size) with the standard 500 peers.
  ExperimentConfig cfg;
  cfg.num_docs = 10'000;
  cfg.num_peers = 500;
  cfg.epsilon = 1e-3;
  const StandardExperiment exp(cfg);
  const auto& ref = exp.reference_ranks();

  double frac_within_at_pass10 = 0.0;
  double frac_within_at_pass30 = 0.0;
  const auto outcome = exp.run_distributed(
      [&](std::uint64_t pass, const std::vector<double>& ranks) {
        if (pass == 9) {
          frac_within_at_pass10 =
              summarize_quality(ranks, ref).fraction_within_1pct;
        }
        if (pass == 29) {
          frac_within_at_pass30 =
              summarize_quality(ranks, ref).fraction_within_1pct;
        }
      });
  ASSERT_TRUE(outcome.run.converged);
  ASSERT_GE(outcome.run.passes, 30u);
  // Paper: "more than 99% of the nodes converged to within 1% of R_c in
  // less than 10 passes". On our synthetic graphs we measure ~89% at
  // pass 10 and >99% by pass 30 — same shape, corpus-dependent constant
  // (see EXPERIMENTS.md).
  EXPECT_GT(frac_within_at_pass10, 0.80);
  EXPECT_GT(frac_within_at_pass30, 0.99);
}

TEST(Integration, PagerankFeedsSearchEndToEnd) {
  // Full pipeline at reduced scale: synthesize documents over the link
  // graph, compute distributed pageranks, publish to the index, and
  // verify incremental search returns highly ranked results cheaply.
  constexpr std::uint32_t kDocs = 3000;
  ExperimentConfig cfg;
  cfg.num_docs = kDocs;
  cfg.num_peers = 50;
  cfg.epsilon = 1e-4;
  const StandardExperiment exp(cfg);
  const auto outcome = exp.run_distributed();
  ASSERT_TRUE(outcome.run.converged);

  CorpusParams cp;
  cp.num_docs = kDocs;
  cp.vocabulary = 400;
  cp.mean_terms = 50;
  cp.min_terms = 5;
  cp.max_terms = 200;
  const Corpus corpus = Corpus::synthesize(cp);

  ChordRing ring(cfg.num_peers);
  DistributedIndex index(corpus, ring);
  std::vector<PeerId> owner(kDocs);
  for (NodeId d = 0; d < kDocs; ++d) owner[d] = exp.placement().peer_of(d);
  TrafficMeter index_meter;
  index.publish_ranks(outcome.ranks, owner, &index_meter);
  EXPECT_EQ(index_meter.messages() + index_meter.local_updates(),
            index.total_postings());

  SearchEngine engine(index);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  std::uint64_t base_traffic = 0;
  std::uint64_t inc_traffic = 0;
  for (const auto& q : generate_queries(
           corpus,
           {.term_pool = 50, .num_queries = 20, .terms_per_query = 2})) {
    const auto base = engine.run_query(q, kForwardEverything);
    const auto inc = engine.run_query(q, top10);
    base_traffic += base.ids_transferred;
    inc_traffic += inc.ids_transferred;
    // Incremental hits must be the top-ranked subset of baseline hits.
    const std::set<NodeId> base_set(base.hits.begin(), base.hits.end());
    for (const NodeId d : inc.hits) ASSERT_TRUE(base_set.contains(d));
  }
  EXPECT_LT(inc_traffic * 2, base_traffic);
}

TEST(Integration, IncrementalUpdateKeepsIndexFresh) {
  // Insert a document into a converged system; its propagated rank is
  // published to the index and shows up in queries (§3.1 + §2.4.2).
  const Digraph base = paper_graph(1000, 44);
  MutableDigraph g(base);
  std::vector<double> ranks = centralized_pagerank(base, 0.85, 1e-12).ranks;

  CorpusParams cp;
  cp.num_docs = 1000;
  cp.vocabulary = 100;
  cp.mean_terms = 20;
  cp.min_terms = 5;
  cp.max_terms = 50;
  const Corpus corpus = Corpus::synthesize(cp);
  ChordRing ring(10);
  DistributedIndex index(corpus, ring);
  const std::vector<PeerId> owner(1001, 0);
  index.publish_ranks(ranks, {owner.begin(), owner.end() - 1});

  PagerankOptions opts;
  opts.epsilon = 1e-6;
  NodeId id = 0;
  (void)insert_document(g, ranks, {1, 2, 3}, opts, &id);
  index.post_document(id, {0, 7}, ranks[id], 0);

  SearchEngine engine(index);
  const auto outcome = engine.run_query({0, 7}, kForwardEverything);
  EXPECT_TRUE(std::find(outcome.hits.begin(), outcome.hits.end(), id) !=
              outcome.hits.end());
}

TEST(Integration, TimeModelOnRealHistory) {
  ExperimentConfig cfg;
  cfg.num_docs = 3000;
  cfg.num_peers = 100;
  cfg.epsilon = 1e-3;
  const StandardExperiment exp(cfg);
  const auto outcome = exp.run_distributed();
  ASSERT_TRUE(outcome.run.converged);
  const auto serialized =
      estimate_serialized(outcome.history, modem_network());
  const auto parallel =
      estimate_parallel(outcome.history, exp.placement(), modem_network());
  EXPECT_GT(serialized.total_seconds(), 0.0);
  EXPECT_LE(parallel.comm_seconds, serialized.comm_seconds);
  // Faster network, faster finish.
  const auto fast = estimate_serialized(outcome.history, t3_network());
  EXPECT_LT(fast.total_seconds(), serialized.total_seconds());
}

}  // namespace
}  // namespace dprank
