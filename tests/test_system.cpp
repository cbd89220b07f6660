#include "core/p2p_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/options.hpp"
#include "pagerank/quality.hpp"
#include "run_digest.hpp"

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

// A term id beyond the vocabulary names no term's bitmap: refused before
// the graph, the ranks or the index change.
TEST_F(SystemTest, TermBeyondVocabularyRejectedBeforeAnyMutation) {
  (void)system_.converge();
  const std::vector<double> ranks_before = system_.ranks();
  const auto messages_before = system_.traffic().messages();
  EXPECT_THROW(system_.add_document({3, system_.vocabulary()}, {1, 2}),
               std::invalid_argument);
  EXPECT_EQ(system_.num_documents(), 1500u);
  EXPECT_EQ(system_.ranks(), ranks_before);
  EXPECT_EQ(system_.traffic().messages(), messages_before);
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

// A document with no out-links moves no other rank, so its insert
// publishes three postings once: three index updates, not six.
TEST_F(SystemTest, InsertWithoutLinksBillsOneUpdatePerTerm) {
  (void)system_.converge();
  const TrafficMeter& t = system_.traffic();
  const auto before = t.messages() + t.local_updates();
  (void)system_.add_document({3, 4, 5}, {});
  EXPECT_EQ(t.messages() + t.local_updates() - before, 3u);
}

// On one peer no pagerank update crosses peers and every index update
// is local, so the ledger's local updates count index updates exactly.
// An insert publishes itself and each document its cascades moved past
// the refresh threshold once, however many of its cascades reached it.
TEST(SystemBilling, InsertPublishesEachMovedDocumentOnce) {
  const Digraph graph = paper_graph(1500, 4);
  const Corpus corpus = Corpus::synthesize(tiny_corpus());
  P2PSystemConfig cfg;
  cfg.num_peers = 1;
  cfg.pagerank.epsilon = 1e-5;
  cfg.seed = 4;
  P2PSystem system(graph, corpus, cfg);
  (void)system.converge();
  const TrafficMeter& t = system.traffic();
  const std::vector<double> before = system.ranks();
  const auto local_before = t.local_updates();
  const auto messages_before = t.messages();

  const NodeId id = system.add_document({3, 4, 5}, {0, 1, 2});
  std::uint64_t expected = 3;
  for (NodeId v = 0; v < id; ++v) {
    if (system.is_live(v) &&
        relative_change(before[v], system.rank_of(v)) >
            cfg.index_refresh_threshold) {
      expected += system.terms_of(v).size();
    }
  }
  EXPECT_GT(expected, 3u) << "the cascades moved no indexed rank";
  EXPECT_EQ(t.local_updates() - local_before, expected);
  EXPECT_EQ(t.messages(), messages_before);
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

// Query outcomes over a seeded stream of queries, inserts and deletes:
// hits, ids transferred, wire bytes and the per-hop forward counts of
// every query, under the top-10% policy, the forward-everything
// baseline and the Bloom prefilter. The stream deletes documents that
// sit on link cycles, so the digest also pins that a delete subtracts
// its own feedback once, and the system must still validate at the end.
TEST(SystemGolden, QueryOutcomesOverMixedStream) {
  constexpr std::uint64_t kGolden = 4936954921229400072ULL;
  const Digraph graph = paper_graph(1500, 4);
  const Corpus corpus = Corpus::synthesize(tiny_corpus());
  P2PSystemConfig cfg;
  cfg.num_peers = 25;
  cfg.pagerank.epsilon = 1e-4;
  cfg.seed = 4;
  P2PSystem system(graph, corpus, cfg);
  (void)system.converge();

  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  SearchPolicy bloom = top10;
  bloom.bloom_prefilter = true;
  const SearchPolicy policies[] = {top10, kForwardEverything, bloom};

  Rng rng(16);
  Fnv f;
  std::size_t queries = 0;
  for (int op = 0; op < 600; ++op) {
    const auto roll = rng.bounded(10);
    if (roll < 7) {
      std::vector<TermId> terms(1 + rng.bounded(3));
      for (TermId& t : terms) {
        t = static_cast<TermId>(rng.bounded(system.vocabulary()));
      }
      const QueryOutcome out =
          system.search(terms, policies[rng.bounded(3)]);
      f.mix(out.hits.data(), out.hits.size() * sizeof(NodeId));
      f.mix_value(out.hits.size());
      f.mix_value(out.ids_transferred);
      f.mix_value(out.wire_bytes);
      f.mix(out.forwarded_per_hop.data(),
            out.forwarded_per_hop.size() * sizeof(std::uint32_t));
      f.mix_value(out.forwarded_per_hop.size());
      ++queries;
    } else if (roll < 9) {
      std::vector<TermId> terms;
      const auto want = 1 + rng.bounded(4);
      while (terms.size() < want) {
        const auto t = static_cast<TermId>(rng.bounded(system.vocabulary()));
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
      std::vector<NodeId> links;
      const auto degree = rng.bounded(4);
      while (links.size() < degree) {
        const auto v = static_cast<NodeId>(rng.bounded(system.num_documents()));
        if (system.is_live(v) &&
            std::find(links.begin(), links.end(), v) == links.end()) {
          links.push_back(v);
        }
      }
      (void)system.add_document(terms, links);
    } else {
      NodeId victim = 0;
      do {
        victim = static_cast<NodeId>(rng.bounded(system.num_documents()));
      } while (!system.is_live(victim));
      system.remove_document(victim);
    }
  }
  EXPECT_GT(queries, 350u);
  const auto issues = system.validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  EXPECT_EQ(f.value(), kGolden) << "query outcome digest " << f.value();
}

}  // namespace
}  // namespace dprank
