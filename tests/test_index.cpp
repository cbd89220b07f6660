#include "search/distributed_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
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
    for (const NodeId d : index_.postings(t)) {
      const auto& terms = corpus_.terms_of(d);
      ASSERT_TRUE(std::binary_search(terms.begin(), terms.end(), t))
          << "doc " << d << " does not contain term " << t;
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
      ASSERT_GE(index_.rank_of(plist[i - 1]), index_.rank_of(plist[i]));
    }
    for (const NodeId d : plist) {
      ASSERT_DOUBLE_EQ(index_.rank_of(d), ranks[d]);
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
  TrafficMeter meter;
  index_.update_rank(doc, terms, 99.0, 0, &meter);
  EXPECT_EQ(meter.messages() + meter.local_updates(), terms.size());
  EXPECT_DOUBLE_EQ(index_.rank_of(doc), 99.0);
  for (const TermId t : terms) {
    // Sorted on read: the updated doc now leads its lists.
    EXPECT_EQ(index_.postings(t).front(), doc);
  }
}

TEST_F(IndexTest, PublishOneInsertsNewDocument) {
  // A freshly inserted document gets postings added on the fly
  // (§2.4.2's index update path for new documents).
  const NodeId new_doc = corpus_.num_docs();  // beyond the corpus
  const std::vector<TermId> terms{0, 5, 10};
  const auto before = index_.total_postings();
  index_.post_document(new_doc, terms, 2.5, 3);
  EXPECT_EQ(index_.total_postings(), before + 3);
  EXPECT_EQ(index_.doc_bound(), new_doc + 1u);
  EXPECT_DOUBLE_EQ(index_.rank_of(new_doc), 2.5);
  for (const TermId t : terms) {
    const auto& plist = index_.postings(t);
    EXPECT_NE(std::find(plist.begin(), plist.end(), new_doc), plist.end());
  }
  EXPECT_TRUE(index_.validate().empty());
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
    EXPECT_TRUE(std::is_sorted(plist.begin(), plist.end()));
  }
}

/// Every stored list, copied.
std::vector<std::vector<NodeId>> stored_lists(const DistributedIndex& index) {
  std::vector<std::vector<NodeId>> lists;
  for (TermId t = 0; t < index.num_terms(); ++t) {
    lists.push_back(index.stored_postings(t));
  }
  return lists;
}

TEST_F(IndexTest, RankUpdateLeavesDocumentOrderedListsAsStored) {
  Rng rng(4);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  index_.publish_ranks(ranks, owner);
  const auto before = stored_lists(index_);
  for (NodeId d = 0; d < corpus_.num_docs(); d += 7) {
    ranks[d] = rng.uniform(0.1, 10.0);
    index_.update_rank(d, corpus_.terms_of(d), ranks[d], owner[d]);
  }
  EXPECT_EQ(stored_lists(index_), before);
  for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
    ASSERT_EQ(index_.rank_of(d), ranks[d]);
  }
  // The first read sorts by the updated ranks.
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    std::vector<NodeId> expected = index_.stored_postings(t);
    std::sort(expected.begin(), expected.end(), [&](NodeId a, NodeId b) {
      return ranks[a] != ranks[b] ? ranks[a] > ranks[b] : a < b;
    });
    ASSERT_EQ(index_.postings(t), expected) << "term " << t;
  }
}

TEST_F(IndexTest, RankOrderedListsHandleLongMovesAndTies) {
  // Distinct ranks on a 1/16 grid, so a chosen rank can tie exactly.
  std::vector<double> ranks(corpus_.num_docs());
  for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
    ranks[d] = 1.0 + static_cast<double>((d * 211) % corpus_.num_docs()) / 16.0;
  }
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  index_.publish_ranks(ranks, owner);
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) (void)index_.postings(t);

  // Every list is rank-ordered, so each update moves entries in all the
  // document's lists; check them all against a fresh sort.
  const auto update_and_check = [&](NodeId doc, double rank) {
    ranks[doc] = rank;
    index_.update_rank(doc, corpus_.terms_of(doc), rank, owner[doc]);
    for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
      std::vector<NodeId> expected = index_.stored_postings(t);
      std::sort(expected.begin(), expected.end(), [&](NodeId a, NodeId b) {
        return ranks[a] != ranks[b] ? ranks[a] > ranks[b] : a < b;
      });
      ASSERT_EQ(index_.stored_postings(t), expected)
          << "term " << t << " after doc " << doc << " moved to " << rank;
    }
    ASSERT_TRUE(index_.validate().empty());
  };

  // Term 0's list is long; move its last entry to the front and its first
  // entry to the back.
  const std::vector<NodeId> list0 = index_.postings(0);
  ASSERT_GE(list0.size(), 8u);
  const NodeId last = list0.back();
  update_and_check(last, ranks[list0.front()] + 1.0);
  EXPECT_EQ(index_.postings(0).front(), last);
  const NodeId first = list0.front();
  update_and_check(first, ranks[list0[list0.size() - 2]] - 0.5);
  EXPECT_EQ(index_.postings(0).back(), first);

  // Ties on both sides: a document taking the rank of a middle entry
  // lands before it with a smaller id and after it with a larger one,
  // whether it comes from above or from below.
  const NodeId mid = index_.postings(0)[list0.size() / 2];
  for (const NodeId doc : list0) {
    if (doc == mid) continue;
    update_and_check(doc, ranks[mid]);
    const auto& plist = index_.postings(0);
    const auto at_doc = std::find(plist.begin(), plist.end(), doc);
    const auto at_mid = std::find(plist.begin(), plist.end(), mid);
    ASSERT_EQ(doc < mid, at_doc < at_mid);
    ASSERT_EQ(std::abs(at_doc - at_mid), 1);
    // Back to a distinct rank before the next tie.
    update_and_check(doc, doc < mid ? ranks[mid] + 1.0 / 64.0
                                    : ranks[mid] - 1.0 / 64.0);
  }
}

TEST_F(IndexTest, RankUpdateUnderAMissingTermThrows) {
  Rng rng(6);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  index_.publish_ranks(ranks, std::vector<PeerId>(corpus_.num_docs(), 0));
  const NodeId doc = 17;
  std::vector<TermId> terms = corpus_.terms_of(doc);
  TermId absent = 0;
  while (std::binary_search(terms.begin(), terms.end(), absent)) ++absent;
  for (const TermId t : terms) (void)index_.postings(t);
  (void)index_.postings(absent);
  terms.push_back(absent);

  const auto before = stored_lists(index_);
  const auto postings_before = index_.total_postings();
  EXPECT_THROW(index_.update_rank(doc, terms, 50.0, 0), std::invalid_argument);
  // Nothing moved and nothing was posted.
  EXPECT_EQ(stored_lists(index_), before);
  EXPECT_EQ(index_.total_postings(), postings_before);
  EXPECT_EQ(index_.rank_of(doc), ranks[doc]);
  EXPECT_TRUE(index_.validate().empty());
  // A document the index never posted has no rank to update.
  EXPECT_THROW(index_.update_rank(corpus_.num_docs() + 5, {0}, 1.0, 0),
               std::invalid_argument);
}

TEST_F(IndexTest, RepostingAPostedDocumentThrows) {
  Rng rng(8);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  index_.publish_ranks(ranks, std::vector<PeerId>(corpus_.num_docs(), 0));
  const NodeId doc = 23;
  const auto& terms = corpus_.terms_of(doc);
  (void)index_.postings(terms.front());  // one list in each order
  const auto before = stored_lists(index_);
  const auto postings_before = index_.total_postings();
  EXPECT_THROW(index_.post_document(doc, {terms.front()}, 3.0, 0),
               std::invalid_argument);
  EXPECT_THROW(index_.post_document(doc, {terms.back()}, 3.0, 0),
               std::invalid_argument);
  // A new document may not name a term twice either.
  const NodeId fresh = corpus_.num_docs();
  EXPECT_THROW(index_.post_document(fresh, {4, 9, 4}, 3.0, 0),
               std::invalid_argument);
  EXPECT_EQ(stored_lists(index_), before);
  EXPECT_EQ(index_.total_postings(), postings_before);
  EXPECT_EQ(index_.rank_of(doc), ranks[doc]);
  EXPECT_TRUE(index_.validate().empty());
}

// ---- equivalence with the re-sort-on-read index ----

// The index as it was before its lists stayed sorted across writes: each
// posting carries its own copy of the rank, a write finds a posting by
// linear scan (appending a new one) and leaves the list to be re-sorted
// whole on its next read. Bills every posting on its own.
class ReferenceIndex {
 public:
  struct Posting {
    NodeId doc = 0;
    double rank = 0.0;
  };

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

/// Term `t`'s read list as (id, recorded rank) pairs equals the
/// reference's postings.
bool same_postings(const DistributedIndex& index, TermId t,
                   const std::vector<ReferenceIndex::Posting>& expected) {
  const auto& ids = index.postings(t);
  return std::equal(ids.begin(), ids.end(), expected.begin(), expected.end(),
                    [&](NodeId d, const ReferenceIndex::Posting& p) {
                      return d == p.doc && index.rank_of(d) == p.rank;
                    });
}

// Seeded random sequences of publish_ranks, rank updates of posted
// documents, new documents, remove_document and reads. Ranks come from a
// coarse grid half the time, so ties, and the doc-id tie-break, are
// common. Every read, the posting count and the ledger must match the
// reference exactly.
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
      ranks[doc] = draw_rank();
      index.update_rank(doc, terms[doc], ranks[doc], owner[doc], &meter);
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
      index.post_document(doc, doc_terms, ranks[doc], owner[doc], &meter);
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
      ASSERT_TRUE(same_postings(index, t, reference.postings(t)))
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
    ASSERT_TRUE(same_postings(index, t, reference.postings(t)))
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
