#include "core/p2p_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"

namespace dprank {
namespace {

CorpusParams tiny_corpus() {
  CorpusParams p;
  p.num_docs = 1500;
  p.vocabulary = 200;
  p.mean_terms = 25;
  p.min_terms = 5;
  p.max_terms = 80;
  p.seed = 4;
  return p;
}

class SystemTest : public ::testing::Test {
 protected:
  SystemTest()
      : graph_(paper_graph(1500, 4)),
        corpus_(Corpus::synthesize(tiny_corpus())),
        system_(graph_, corpus_, make_config()) {}

  static P2PSystemConfig make_config() {
    P2PSystemConfig cfg;
    cfg.num_peers = 25;
    cfg.pagerank.epsilon = 1e-5;
    cfg.seed = 4;
    return cfg;
  }

  Digraph graph_;
  Corpus corpus_;
  P2PSystem system_;
};

TEST_F(SystemTest, RejectsMismatchedCorpus) {
  const Digraph small = paper_graph(100, 1);
  EXPECT_THROW(P2PSystem(small, corpus_, make_config()),
               std::invalid_argument);
}

TEST_F(SystemTest, MutationsRequireConvergeFirst) {
  EXPECT_THROW(system_.add_document({1, 2}, {0}), std::logic_error);
  EXPECT_THROW(system_.remove_document(0), std::logic_error);
}

TEST_F(SystemTest, ConvergeMatchesCentralized) {
  const auto passes = system_.converge();
  EXPECT_GT(passes, 1u);
  const auto ref = centralized_pagerank(graph_, 0.85, 1e-12).ranks;
  EXPECT_LT(summarize_quality(system_.ranks(), ref).p99, 1e-3);
  EXPECT_GT(system_.traffic().messages(), 0u);
}

TEST_F(SystemTest, SearchFindsDocumentsSortedByRank) {
  (void)system_.converge();
  const auto outcome = system_.search({0, 1}, kForwardEverything);
  ASSERT_FALSE(outcome.hits.empty());
  for (std::size_t i = 1; i < outcome.hits.size(); ++i) {
    EXPECT_GE(system_.rank_of(outcome.hits[i - 1]),
              system_.rank_of(outcome.hits[i]));
  }
}

TEST_F(SystemTest, AddDocumentAppearsInSearch) {
  (void)system_.converge();
  // Use two rare terms to make the new document findable precisely.
  const TermId rare_a = 198;
  const TermId rare_b = 199;
  const NodeId id = system_.add_document({rare_a, rare_b}, {1, 2, 3});
  EXPECT_EQ(id, 1500u);
  EXPECT_TRUE(system_.is_live(id));
  const auto outcome = system_.search({rare_a, rare_b}, kForwardEverything);
  EXPECT_TRUE(std::find(outcome.hits.begin(), outcome.hits.end(), id) !=
              outcome.hits.end());
}

TEST_F(SystemTest, AddDocumentKeepsRanksAccurate) {
  (void)system_.converge();
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(system_.add_document(
        {static_cast<TermId>(i)},
        {static_cast<NodeId>(10 + i), static_cast<NodeId>(100 + i)}));
  }
  // Ground truth on the final topology.
  MutableDigraph g(graph_);
  for (int i = 0; i < 5; ++i) {
    g.add_document({static_cast<NodeId>(10 + i),
                    static_cast<NodeId>(100 + i)});
  }
  const auto exact = centralized_pagerank(g.freeze(), 0.85, 1e-12).ranks;
  const auto q = summarize_quality(system_.ranks(), exact);
  EXPECT_LT(q.max, 1e-2);
  EXPECT_LT(q.avg, 1e-4);
}

TEST_F(SystemTest, RemoveDocumentDisappearsEverywhere) {
  (void)system_.converge();
  // Find a document present in term 0's postings.
  const auto before = system_.search({0}, kForwardEverything);
  ASSERT_FALSE(before.hits.empty());
  const NodeId victim = before.hits.front();
  system_.remove_document(victim);
  EXPECT_FALSE(system_.is_live(victim));
  EXPECT_DOUBLE_EQ(system_.rank_of(victim), 0.0);
  const auto after = system_.search({0}, kForwardEverything);
  EXPECT_TRUE(std::find(after.hits.begin(), after.hits.end(), victim) ==
              after.hits.end());
  // Deleting twice is rejected.
  EXPECT_THROW(system_.remove_document(victim), std::invalid_argument);
}

TEST_F(SystemTest, LinksToDeadDocumentsRejected) {
  (void)system_.converge();
  const auto hits = system_.search({0}, kForwardEverything);
  ASSERT_FALSE(hits.hits.empty());
  const NodeId victim = hits.hits.front();
  system_.remove_document(victim);
  EXPECT_THROW(system_.add_document({5}, {victim}), std::invalid_argument);
}

// A repeated term would post the document twice under it, and
// validate() would then report a postings/terms mismatch.
TEST_F(SystemTest, RepeatedTermRejectedBeforeAnyMutation) {
  (void)system_.converge();
  const std::vector<double> ranks_before = system_.ranks();
  const auto messages_before = system_.traffic().messages();
  EXPECT_THROW(system_.add_document({7, 3, 7}, {1, 2}),
               std::invalid_argument);
  EXPECT_EQ(system_.num_documents(), 1500u);
  EXPECT_EQ(system_.ranks(), ranks_before);
  EXPECT_EQ(system_.traffic().messages(), messages_before);
  EXPECT_TRUE(system_.validate().empty());
  // The same terms, each once, are accepted.
  (void)system_.add_document({3, 7}, {1, 2});
  EXPECT_TRUE(system_.validate().empty());
}

TEST_F(SystemTest, IndexRefreshTracksCascadedRankChanges) {
  (void)system_.converge();
  const auto msgs_before = system_.traffic().messages();
  // Insert a document pointing at well-connected targets: the cascade
  // moves downstream ranks, which must cost index refresh messages on
  // top of the pagerank updates.
  (void)system_.add_document({3, 4}, {0, 1, 2});
  EXPECT_GT(system_.traffic().messages(), msgs_before);
}

TEST_F(SystemTest, ValidateHoldsThroughLifecycle) {
  (void)system_.converge();
  EXPECT_TRUE(system_.validate().empty());
  const NodeId a = system_.add_document({1, 2, 3}, {5, 6});
  EXPECT_TRUE(system_.validate().empty()) << "after insert";
  const NodeId b = system_.add_document({4}, {a});
  system_.remove_document(a);
  const auto issues = system_.validate();
  EXPECT_TRUE(issues.empty()) << "after delete: " << issues.front();
  system_.remove_document(b);
  EXPECT_TRUE(system_.validate().empty()) << "after second delete";
}

TEST_F(SystemTest, InsertDeleteRoundTripRestoresSearchResults) {
  (void)system_.converge();
  const auto before = system_.search({1, 2}, kForwardEverything);
  const NodeId id = system_.add_document({1, 2}, {7, 8});
  system_.remove_document(id);
  const auto after = system_.search({1, 2}, kForwardEverything);
  EXPECT_EQ(std::set<NodeId>(before.hits.begin(), before.hits.end()),
            std::set<NodeId>(after.hits.begin(), after.hits.end()));
}

TEST_F(SystemTest, IncrementalSearchPolicyWorksOnLiveSystem) {
  (void)system_.converge();
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  const auto base = system_.search({0, 1}, kForwardEverything);
  const auto inc = system_.search({0, 1}, top10);
  EXPECT_LE(inc.ids_transferred, base.ids_transferred);
  const std::set<NodeId> base_set(base.hits.begin(), base.hits.end());
  for (const NodeId d : inc.hits) EXPECT_TRUE(base_set.contains(d));
}

}  // namespace
}  // namespace dprank
