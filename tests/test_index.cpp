#include "search/distributed_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"

namespace dprank {
namespace {

CorpusParams tiny_params() {
  CorpusParams p;
  p.num_docs = 500;
  p.vocabulary = 80;
  p.mean_terms = 15;
  p.min_terms = 3;
  p.max_terms = 40;
  p.seed = 5;
  return p;
}

class IndexTest : public ::testing::Test {
 protected:
  IndexTest()
      : corpus_(Corpus::synthesize(tiny_params())),
        ring_(8),
        index_(corpus_, ring_) {}

  Corpus corpus_;
  ChordRing ring_;
  DistributedIndex index_;
};

TEST_F(IndexTest, PostingsMatchCorpus) {
  EXPECT_EQ(index_.total_postings(),
            [&] {
              std::uint64_t total = 0;
              for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
                total += corpus_.terms_of(d).size();
              }
              return total;
            }());
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    EXPECT_EQ(index_.postings(t).size(), corpus_.doc_frequency(t));
  }
}

TEST_F(IndexTest, EveryPostingIsGenuine) {
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    for (const Posting& p : index_.postings(t)) {
      const auto& terms = corpus_.terms_of(p.doc);
      ASSERT_TRUE(std::binary_search(terms.begin(), terms.end(), t))
          << "doc " << p.doc << " does not contain term " << t;
    }
  }
}

TEST_F(IndexTest, TermsPartitionedByRing) {
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    EXPECT_EQ(index_.peer_of_term(t),
              ring_.successor_of_key(
                  term_guid("term:" + std::to_string(t))));
  }
}

TEST_F(IndexTest, PublishRanksSortsPostings) {
  Rng rng(9);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  index_.publish_ranks(ranks, owner);

  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    const auto& plist = index_.postings(t);
    for (std::size_t i = 1; i < plist.size(); ++i) {
      ASSERT_GE(plist[i - 1].rank, plist[i].rank);
    }
    for (const Posting& p : plist) {
      ASSERT_DOUBLE_EQ(p.rank, ranks[p.doc]);
    }
  }
}

TEST_F(IndexTest, PublishCountsIndexUpdateMessages) {
  std::vector<double> ranks(corpus_.num_docs(), 1.0);
  // All docs on peer 0: postings on other peers cost a message each.
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  TrafficMeter meter;
  index_.publish_ranks(ranks, owner, &meter);
  EXPECT_EQ(meter.messages() + meter.local_updates(),
            index_.total_postings());
  EXPECT_GT(meter.messages(), 0u);
}

TEST_F(IndexTest, PublishOneUpdatesSingleDocument) {
  std::vector<double> ranks(corpus_.num_docs(), 1.0);
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  index_.publish_ranks(ranks, owner);

  const NodeId doc = 42;
  const auto& terms = corpus_.terms_of(doc);
  ASSERT_FALSE(terms.empty());
  index_.publish_one(doc, terms, 99.0, 0);
  for (const TermId t : terms) {
    const auto& plist = index_.postings(t);
    const auto it = std::find_if(plist.begin(), plist.end(),
                                 [&](const Posting& p) { return p.doc == doc; });
    ASSERT_NE(it, plist.end());
    EXPECT_DOUBLE_EQ(it->rank, 99.0);
    // Re-sorted: the updated doc now leads its lists.
    EXPECT_EQ(plist.front().doc, doc);
  }
}

TEST_F(IndexTest, PublishOneInsertsNewDocument) {
  // A freshly inserted document gets postings added on the fly
  // (§2.4.2's index update path for new documents).
  const NodeId new_doc = corpus_.num_docs();  // beyond the corpus
  const std::vector<TermId> terms{0, 5, 10};
  const auto before = index_.total_postings();
  index_.publish_one(new_doc, terms, 2.5, 3);
  EXPECT_EQ(index_.total_postings(), before + 3);
  for (const TermId t : terms) {
    const auto& plist = index_.postings(t);
    EXPECT_TRUE(std::any_of(plist.begin(), plist.end(), [&](const Posting& p) {
      return p.doc == new_doc && p.rank == 2.5;
    }));
  }
}

TEST_F(IndexTest, PublishRanksValidatesSize) {
  std::vector<double> too_small(10, 1.0);
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  EXPECT_THROW(index_.publish_ranks(too_small, owner), std::out_of_range);
}

TEST_F(IndexTest, ValidateReadsListsWithoutSortingThem) {
  Rng rng(3);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  index_.publish_ranks(ranks, std::vector<PeerId>(corpus_.num_docs(), 0));
  EXPECT_TRUE(index_.validate().empty());
  // Still in document order: the validator sorted nothing.
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    const auto& plist = index_.stored_postings(t);
    EXPECT_TRUE(std::is_sorted(plist.begin(), plist.end(),
                               [](const Posting& a, const Posting& b) {
                                 return a.doc < b.doc;
                               }));
  }
}

// ---- equivalence with the re-sort-on-read index ----

// The index as it was before its lists stayed sorted across writes: a
// write finds a posting by linear scan (appending a new one) and leaves
// the list to be re-sorted whole on its next read. Bills every posting
// on its own.
class ReferenceIndex {
 public:
  ReferenceIndex(const Corpus& corpus, const DistributedIndex& peers)
      : lists_(corpus.vocabulary()), sorted_(corpus.vocabulary(), false) {
    for (NodeId d = 0; d < corpus.num_docs(); ++d) {
      for (const TermId t : corpus.terms_of(d)) lists_[t].push_back({d, 0.0});
    }
    for (TermId t = 0; t < corpus.vocabulary(); ++t) {
      term_peer_.push_back(peers.peer_of_term(t));
    }
  }

  void publish_ranks(const std::vector<double>& ranks,
                     const std::vector<PeerId>& owner, TrafficMeter& meter) {
    for (TermId t = 0; t < lists_.size(); ++t) {
      for (Posting& p : lists_[t]) {
        p.rank = ranks[p.doc];
        bill(owner[p.doc], t, meter);
      }
      sorted_[t] = false;
    }
  }

  void publish_one(NodeId doc, const std::vector<TermId>& terms, double rank,
                   PeerId owner, TrafficMeter& meter) {
    for (const TermId t : terms) {
      auto& plist = lists_[t];
      const auto it = std::find_if(plist.begin(), plist.end(),
                                   [&](const Posting& p) { return p.doc == doc; });
      if (it == plist.end()) {
        plist.push_back({doc, rank});
      } else {
        it->rank = rank;
      }
      sorted_[t] = false;
      bill(owner, t, meter);
    }
  }

  void remove_document(NodeId doc, const std::vector<TermId>& terms,
                       PeerId owner, TrafficMeter& meter) {
    for (const TermId t : terms) {
      auto& plist = lists_[t];
      const auto it = std::find_if(plist.begin(), plist.end(),
                                   [&](const Posting& p) { return p.doc == doc; });
      if (it == plist.end()) continue;
      plist.erase(it);
      bill(owner, t, meter);
    }
  }

  const std::vector<Posting>& postings(TermId t) {
    if (!sorted_[t]) {
      std::sort(lists_[t].begin(), lists_[t].end(),
                [](const Posting& a, const Posting& b) {
                  if (a.rank != b.rank) return a.rank > b.rank;
                  return a.doc < b.doc;
                });
      sorted_[t] = true;
    }
    return lists_[t];
  }

  [[nodiscard]] std::uint64_t total_postings() const {
    std::uint64_t total = 0;
    for (const auto& plist : lists_) total += plist.size();
    return total;
  }

 private:
  void bill(PeerId owner, TermId t, TrafficMeter& meter) const {
    if (owner == term_peer_[t]) {
      meter.record_local_update();
    } else {
      meter.record_message(IndexRankUpdate::kWireBytes);
    }
  }

  std::vector<std::vector<Posting>> lists_;
  std::vector<bool> sorted_;
  std::vector<PeerId> term_peer_;
};

bool same_postings(const std::vector<Posting>& a,
                   const std::vector<Posting>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Posting& x, const Posting& y) {
                      return x.doc == y.doc && x.rank == y.rank;
                    });
}

// Seeded random sequences of publish_ranks, publish_one (existing
// documents, existing documents gaining a term, new documents),
// remove_document and reads. Ranks come from a coarse grid half the
// time, so ties, and the doc-id tie-break, are common. Every read, the
// posting count and the ledger must match the reference exactly.
class IndexModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexModelTest, MatchesReSortOnReadReference) {
  const Corpus corpus = Corpus::synthesize(tiny_params());
  const ChordRing ring(8);
  DistributedIndex index(corpus, ring);
  ReferenceIndex reference(corpus, index);
  TrafficMeter meter;
  TrafficMeter reference_meter;

  Rng rng(GetParam());
  const auto draw_rank = [&] {
    return rng.bounded(2) == 0
               ? 0.15 + 0.25 * static_cast<double>(rng.bounded(6))
               : rng.uniform(0.15, 3.0);
  };
  const TermId vocab = corpus.vocabulary();
  std::vector<std::vector<TermId>> terms;
  std::vector<PeerId> owner;
  std::vector<double> ranks;
  for (NodeId d = 0; d < corpus.num_docs(); ++d) {
    terms.push_back(corpus.terms_of(d));
    owner.push_back(static_cast<PeerId>(rng.bounded(8)));
    ranks.push_back(0.0);
  }
  std::vector<NodeId> live(corpus.num_docs());
  for (NodeId d = 0; d < corpus.num_docs(); ++d) live[d] = d;

  std::uint64_t reads = 0;
  for (int op = 0; op < 4000; ++op) {
    const auto roll = rng.bounded(100);
    if (roll < 2) {
      for (double& r : ranks) r = draw_rank();
      index.publish_ranks(ranks, owner, &meter);
      reference.publish_ranks(ranks, owner, reference_meter);
    } else if (roll < 30 && !live.empty()) {
      const NodeId doc = live[rng.bounded(live.size())];
      if (rng.bounded(4) == 0 && terms[doc].size() < vocab) {
        TermId extra = 0;
        do {
          extra = static_cast<TermId>(rng.bounded(vocab));
        } while (std::find(terms[doc].begin(), terms[doc].end(), extra) !=
                 terms[doc].end());
        terms[doc].push_back(extra);
      }
      ranks[doc] = draw_rank();
      index.publish_one(doc, terms[doc], ranks[doc], owner[doc], &meter);
      reference.publish_one(doc, terms[doc], ranks[doc], owner[doc],
                            reference_meter);
    } else if (roll < 40) {
      const auto doc = static_cast<NodeId>(terms.size());
      std::vector<TermId> doc_terms;
      const auto want = 1 + rng.bounded(5);
      while (doc_terms.size() < want) {
        const auto t = static_cast<TermId>(rng.bounded(vocab));
        if (std::find(doc_terms.begin(), doc_terms.end(), t) ==
            doc_terms.end()) {
          doc_terms.push_back(t);
        }
      }
      terms.push_back(doc_terms);
      owner.push_back(static_cast<PeerId>(rng.bounded(8)));
      ranks.push_back(draw_rank());
      live.push_back(doc);
      index.publish_one(doc, doc_terms, ranks[doc], owner[doc], &meter);
      reference.publish_one(doc, doc_terms, ranks[doc], owner[doc],
                            reference_meter);
    } else if (roll < 50 && !live.empty()) {
      const auto slot = rng.bounded(live.size());
      const NodeId doc = live[slot];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(slot));
      index.remove_document(doc, terms[doc], owner[doc], &meter);
      reference.remove_document(doc, terms[doc], owner[doc],
                                reference_meter);
      terms[doc].clear();
    } else {
      const auto t = static_cast<TermId>(rng.bounded(vocab));
      ASSERT_TRUE(same_postings(index.postings(t), reference.postings(t)))
          << "term " << t << " differs after op " << op;
      ++reads;
    }
    ASSERT_EQ(index.total_postings(), reference.total_postings())
        << "after op " << op;
  }
  EXPECT_GT(reads, 1000u);
  const auto issues = index.validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  for (TermId t = 0; t < vocab; ++t) {
    ASSERT_TRUE(same_postings(index.postings(t), reference.postings(t)))
        << "term " << t << " differs at the end";
  }
  EXPECT_EQ(meter.messages(), reference_meter.messages());
  EXPECT_EQ(meter.local_updates(), reference_meter.local_updates());
  EXPECT_EQ(meter.hop_transmissions(), reference_meter.hop_transmissions());
  EXPECT_EQ(meter.bytes(), reference_meter.bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dprank
