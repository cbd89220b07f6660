#include "search/incremental_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "search/query_gen.hpp"

namespace dprank {
namespace {

CorpusParams corpus_params() {
  CorpusParams p;
  p.num_docs = 3000;
  p.vocabulary = 400;
  p.mean_terms = 50;
  p.min_terms = 5;
  p.max_terms = 200;
  p.seed = 77;
  return p;
}

class SearchTest : public ::testing::Test {
 protected:
  SearchTest()
      : corpus_(Corpus::synthesize(corpus_params())),
        ring_(50),
        index_(corpus_, ring_) {
    Rng rng(123);
    std::vector<double> ranks(corpus_.num_docs());
    for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
    ranks_ = ranks;
    const std::vector<PeerId> owner(corpus_.num_docs(), 0);
    index_.publish_ranks(ranks, owner);
  }

  /// Ground-truth boolean AND by brute force over the corpus.
  std::set<NodeId> brute_force(const std::vector<TermId>& terms) const {
    std::set<NodeId> out;
    for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
      const auto& doc_terms = corpus_.terms_of(d);
      bool all = true;
      for (const TermId t : terms) {
        if (!std::binary_search(doc_terms.begin(), doc_terms.end(), t)) {
          all = false;
          break;
        }
      }
      if (all) out.insert(d);
    }
    return out;
  }

  Corpus corpus_;
  ChordRing ring_;
  DistributedIndex index_;
  std::vector<double> ranks_;
};

TEST_F(SearchTest, BaselineReturnsExactIntersection) {
  const auto queries = generate_queries(
      corpus_, {.term_pool = 50, .num_queries = 10, .terms_per_query = 2});
  SearchEngine engine(index_);
  for (const auto& q : queries) {
    const auto outcome = engine.run_query(q, kForwardEverything);
    const auto expected = brute_force(q);
    const std::set<NodeId> got(outcome.hits.begin(), outcome.hits.end());
    EXPECT_EQ(got, expected);
  }
}

TEST_F(SearchTest, BaselineTrafficIsPostingsPlusResult) {
  SearchEngine engine(index_);
  const std::vector<TermId> q{0, 1};
  const auto outcome = engine.run_query(q, kForwardEverything);
  const auto h1 = index_.postings(0).size();
  EXPECT_EQ(outcome.ids_transferred, h1 + outcome.hits.size());
}

TEST_F(SearchTest, SingleTermQueryIsJustTheReturn) {
  SearchEngine engine(index_);
  const auto outcome = engine.run_query({3}, kForwardEverything);
  EXPECT_EQ(outcome.hits.size(), index_.postings(3).size());
  EXPECT_EQ(outcome.ids_transferred, outcome.hits.size());
}

TEST_F(SearchTest, HitsAreSortedByRank) {
  SearchEngine engine(index_);
  const auto outcome = engine.run_query({0, 1}, kForwardEverything);
  for (std::size_t i = 1; i < outcome.hits.size(); ++i) {
    ASSERT_GE(ranks_[outcome.hits[i - 1]], ranks_[outcome.hits[i]]);
  }
}

TEST_F(SearchTest, IncrementalHitsAreSubsetOfBaseline) {
  SearchEngine engine(index_);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  const std::vector<TermId> q{0, 2, 4};
  const auto inc = engine.run_query(q, top10);
  const auto base = engine.run_query(q, kForwardEverything);
  const std::set<NodeId> base_set(base.hits.begin(), base.hits.end());
  for (const NodeId d : inc.hits) {
    ASSERT_TRUE(base_set.contains(d));
  }
  EXPECT_LE(inc.hits.size(), base.hits.size());
}

TEST_F(SearchTest, IncrementalKeepsTheTopRankedBaselineHit) {
  // The whole point: the most important documents survive filtering.
  SearchEngine engine(index_);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  const std::vector<TermId> q{0, 1};
  const auto inc = engine.run_query(q, top10);
  const auto base = engine.run_query(q, kForwardEverything);
  if (!base.hits.empty() && !inc.hits.empty()) {
    EXPECT_EQ(inc.hits.front(), base.hits.front());
  }
}

TEST_F(SearchTest, IncrementalReducesTraffic) {
  SearchEngine engine(index_);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  std::uint64_t base_total = 0;
  std::uint64_t inc_total = 0;
  const auto queries = generate_queries(
      corpus_, {.term_pool = 40, .num_queries = 20, .terms_per_query = 2});
  for (const auto& q : queries) {
    base_total += engine.run_query(q, kForwardEverything).ids_transferred;
    inc_total += engine.run_query(q, top10).ids_transferred;
  }
  EXPECT_LT(inc_total * 3, base_total);  // at least ~3x better here
}

TEST_F(SearchTest, MinForwardRuleForwardsEverything) {
  SearchEngine engine(index_);
  SearchPolicy tiny;
  tiny.forward_fraction = 0.10;
  tiny.min_forward = 1'000'000;  // always below threshold -> forward all
  const std::vector<TermId> q{0, 1};
  const auto all = engine.run_query(q, kForwardEverything);
  const auto escaped = engine.run_query(q, tiny);
  EXPECT_EQ(escaped.hits.size(), all.hits.size());
  EXPECT_EQ(escaped.ids_transferred, all.ids_transferred);
}

TEST_F(SearchTest, ForwardedPerHopRespectsFraction) {
  SearchEngine engine(index_);
  SearchPolicy top20;
  top20.forward_fraction = 0.20;
  top20.min_forward = 0;
  const std::vector<TermId> q{0, 1, 2};
  const auto outcome = engine.run_query(q, top20);
  ASSERT_EQ(outcome.forwarded_per_hop.size(), 2u);
  const auto h1 = index_.postings(0).size();
  EXPECT_LE(outcome.forwarded_per_hop[0],
            static_cast<std::uint32_t>(std::ceil(0.20 * h1)) + 1);
}

TEST_F(SearchTest, BloomPrefilterIsExact) {
  // The coordinator removes false positives, so bloom mode returns the
  // exact same hit set as the baseline.
  SearchEngine engine(index_);
  SearchPolicy bloom = kForwardEverything;
  bloom.bloom_prefilter = true;
  for (const auto& q : generate_queries(
           corpus_,
           {.term_pool = 30, .num_queries = 10, .terms_per_query = 2})) {
    const auto plain = engine.run_query(q, kForwardEverything);
    const auto filtered = engine.run_query(q, bloom);
    const std::set<NodeId> a(plain.hits.begin(), plain.hits.end());
    const std::set<NodeId> b(filtered.hits.begin(), filtered.hits.end());
    EXPECT_EQ(a, b);
  }
}

TEST_F(SearchTest, BloomReducesBytesOnLargeLists) {
  SearchEngine engine(index_);
  SearchPolicy bloom = kForwardEverything;
  bloom.bloom_prefilter = true;
  const std::vector<TermId> q{0, 1};  // biggest posting lists
  const auto plain = engine.run_query(q, kForwardEverything);
  const auto filtered = engine.run_query(q, bloom);
  EXPECT_LT(filtered.wire_bytes, plain.wire_bytes);
}

TEST_F(SearchTest, EmptyQueryRejected) {
  SearchEngine engine(index_);
  EXPECT_THROW(engine.run_query({}, kForwardEverything),
               std::invalid_argument);
}

TEST_F(SearchTest, TermBeyondVocabularyRejected) {
  // Such a term has no bitmap: reading one would read another term's.
  SearchEngine engine(index_);
  const auto beyond = static_cast<TermId>(corpus_.vocabulary());
  EXPECT_THROW(engine.run_query({beyond}, kForwardEverything),
               std::invalid_argument);
  EXPECT_THROW(engine.run_query({0, beyond}, kForwardEverything),
               std::invalid_argument);
}

TEST_F(SearchTest, NegativeOrNanFractionRejected) {
  // A negative fraction would wrap to a huge forward count and read past
  // the posting list.
  SearchEngine engine(index_);
  SearchPolicy policy;
  for (const double fraction : {-0.05, -1.0, std::nan("")}) {
    policy.forward_fraction = fraction;
    EXPECT_THROW((void)engine.run_query({0, 1}, policy), std::invalid_argument)
        << fraction;
  }
  policy.forward_fraction = 0.0;  // forwards under the min-20 rule
  EXPECT_NO_THROW((void)engine.run_query({0, 1}, policy));
}

TEST_F(SearchTest, DisjointTermsGiveEmptyResult) {
  // Construct a query from two rare tail terms that share no documents
  // (if the seed happens to share them, the assertion is vacuous).
  SearchEngine engine(index_);
  const TermId a = corpus_.vocabulary() - 1;
  const TermId b = corpus_.vocabulary() - 2;
  const auto outcome = engine.run_query({a, b}, kForwardEverything);
  const auto expected = brute_force({a, b});
  EXPECT_EQ(outcome.hits.size(), expected.size());
}

TEST_F(SearchTest, SessionFetchesAreDisjointAndOrdered) {
  SearchEngine engine(index_);
  SearchPolicy top5;
  top5.forward_fraction = 0.05;
  top5.min_forward = 0;
  SearchSession session(engine, {0, 1}, top5);
  std::set<NodeId> all;
  while (!session.exhausted()) {
    const auto batch = session.fetch_more();
    for (const NodeId d : batch) {
      ASSERT_TRUE(all.insert(d).second) << "duplicate hit " << d;
    }
  }
  EXPECT_TRUE(session.fetch_more().empty());  // stays exhausted
  // Exhaustive session must end up with the full baseline result set.
  const auto base = engine.run_query({0, 1}, kForwardEverything);
  EXPECT_EQ(all.size(), base.hits.size());
}

TEST_F(SearchTest, SessionFirstBatchIsTopRanked) {
  SearchEngine engine(index_);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  SearchSession session(engine, {0, 1}, top10);
  const auto first = session.fetch_more();
  const auto base = engine.run_query({0, 1}, kForwardEverything);
  ASSERT_FALSE(first.empty());
  // The first fetch returns a rank-prefix of the baseline ordering.
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], base.hits[i]);
  }
}

TEST_F(SearchTest, EarlyStopBeatsFullQueryOnTraffic) {
  // The paper's usage model: most users never fetch beyond the first
  // screen, so a session stopped after one batch moves far fewer ids
  // than the baseline.
  SearchEngine engine(index_);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  SearchSession session(engine, {0, 1}, top10);
  (void)session.fetch_more();
  const auto base = engine.run_query({0, 1}, kForwardEverything);
  EXPECT_LT(session.total_ids_transferred() * 3, base.ids_transferred);
}

TEST_F(SearchTest, SessionValidatesTerms) {
  SearchEngine engine(index_);
  EXPECT_THROW(SearchSession(engine, {}, kForwardEverything),
               std::invalid_argument);
}

TEST(QueryGen, GeneratesRequestedShape) {
  const Corpus c = Corpus::synthesize(corpus_params());
  const auto queries = generate_queries(
      c, {.term_pool = 100, .num_queries = 20, .terms_per_query = 3});
  ASSERT_EQ(queries.size(), 20u);
  const auto top = c.top_terms(100);
  const std::set<TermId> pool(top.begin(), top.end());
  for (const auto& q : queries) {
    ASSERT_EQ(q.size(), 3u);
    const std::set<TermId> distinct(q.begin(), q.end());
    EXPECT_EQ(distinct.size(), 3u);  // no duplicate terms in a query
    for (const TermId t : q) EXPECT_TRUE(pool.contains(t));
  }
}

TEST(QueryGen, DeterministicAndSeedSensitive) {
  const Corpus c = Corpus::synthesize(corpus_params());
  QueryWorkloadParams params{.term_pool = 50, .num_queries = 10,
                             .terms_per_query = 2, .seed = 1};
  const auto a = generate_queries(c, params);
  const auto b = generate_queries(c, params);
  EXPECT_EQ(a, b);
  params.seed = 2;
  EXPECT_NE(generate_queries(c, params), a);
}

TEST(QueryGen, ValidatesParams) {
  const Corpus c = Corpus::synthesize(corpus_params());
  EXPECT_THROW(
      generate_queries(c, {.term_pool = 10, .num_queries = 5,
                           .terms_per_query = 0}),
      std::invalid_argument);
  EXPECT_THROW(
      generate_queries(c, {.term_pool = 2, .num_queries = 5,
                           .terms_per_query = 3}),
      std::invalid_argument);
}

}  // namespace
}  // namespace dprank
