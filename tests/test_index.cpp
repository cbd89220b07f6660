#include "search/distributed_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "search/bloom.hpp"
#include "search/incremental_search.hpp"

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
    // The updated doc now leads its lists.
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

TEST_F(IndexTest, MembersComeInDocumentOrder) {
  // A term's members are its bitmap read by id: the corpus's documents
  // for the term, ascending, whatever the ranks.
  Rng rng(3);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  index_.publish_ranks(ranks, std::vector<PeerId>(corpus_.num_docs(), 0));
  EXPECT_TRUE(index_.validate().empty());
  std::vector<std::vector<NodeId>> expected(corpus_.vocabulary());
  for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
    for (const TermId t : corpus_.terms_of(d)) expected[t].push_back(d);
  }
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    ASSERT_EQ(index_.members(t), expected[t]) << "term " << t;
    ASSERT_EQ(index_.term_size(t), expected[t].size()) << "term " << t;
  }
}

/// Every term's list in rank order, copied.
std::vector<std::vector<NodeId>> read_lists(const DistributedIndex& index) {
  std::vector<std::vector<NodeId>> lists;
  for (TermId t = 0; t < index.num_terms(); ++t) {
    lists.push_back(index.postings(t));
  }
  return lists;
}

/// Term `t`'s members sorted by `ranks` descending, ties by id: the list
/// a fresh sort would give.
std::vector<NodeId> sorted_by_rank(const DistributedIndex& index, TermId t,
                                   const std::vector<double>& ranks) {
  std::vector<NodeId> expected = index.members(t);
  std::sort(expected.begin(), expected.end(), [&](NodeId a, NodeId b) {
    return ranks[a] != ranks[b] ? ranks[a] > ranks[b] : a < b;
  });
  return expected;
}

TEST_F(IndexTest, RankUpdatesKeepMembersAndReorderEveryList) {
  Rng rng(4);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  index_.publish_ranks(ranks, owner);
  std::vector<std::vector<NodeId>> members;
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    members.push_back(index_.members(t));
  }
  for (NodeId d = 0; d < corpus_.num_docs(); d += 7) {
    ranks[d] = rng.uniform(0.1, 10.0);
    index_.update_rank(d, corpus_.terms_of(d), ranks[d], owner[d]);
  }
  for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
    ASSERT_EQ(index_.rank_of(d), ranks[d]);
  }
  // A rank update moves no member; every list reads in the new order.
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    ASSERT_EQ(index_.members(t), members[t]) << "term " << t;
    ASSERT_EQ(index_.postings(t), sorted_by_rank(index_, t, ranks))
        << "term " << t;
  }
  EXPECT_TRUE(index_.validate().empty());
}

TEST_F(IndexTest, RankOrderedListsHandleLongMovesAndTies) {
  // Distinct ranks on a 1/16 grid, so a chosen rank can tie exactly.
  std::vector<double> ranks(corpus_.num_docs());
  for (NodeId d = 0; d < corpus_.num_docs(); ++d) {
    ranks[d] = 1.0 + static_cast<double>((d * 211) % corpus_.num_docs()) / 16.0;
  }
  const std::vector<PeerId> owner(corpus_.num_docs(), 0);
  index_.publish_ranks(ranks, owner);

  // Each update moves the document in the one rank order, so in every
  // list it is in; check them all against a fresh sort.
  const auto update_and_check = [&](NodeId doc, double rank) {
    ranks[doc] = rank;
    index_.update_rank(doc, corpus_.terms_of(doc), rank, owner[doc]);
    for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
      ASSERT_EQ(index_.postings(t), sorted_by_rank(index_, t, ranks))
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
  terms.push_back(absent);

  const auto before = read_lists(index_);
  const auto postings_before = index_.total_postings();
  EXPECT_THROW(index_.update_rank(doc, terms, 50.0, 0), std::invalid_argument);
  // Nothing moved and nothing was posted.
  EXPECT_EQ(read_lists(index_), before);
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
  const auto before = read_lists(index_);
  const auto postings_before = index_.total_postings();
  EXPECT_THROW(index_.post_document(doc, {terms.front()}, 3.0, 0),
               std::invalid_argument);
  EXPECT_THROW(index_.post_document(doc, {terms.back()}, 3.0, 0),
               std::invalid_argument);
  // A new document may not name a term twice either.
  const NodeId fresh = corpus_.num_docs();
  EXPECT_THROW(index_.post_document(fresh, {4, 9, 4}, 3.0, 0),
               std::invalid_argument);
  // Nor one beyond the vocabulary, which has no bitmap.
  EXPECT_THROW(index_.post_document(fresh, {4, corpus_.vocabulary()}, 3.0, 0),
               std::invalid_argument);
  EXPECT_EQ(index_.doc_bound(), corpus_.num_docs());
  EXPECT_EQ(read_lists(index_), before);
  EXPECT_EQ(index_.total_postings(), postings_before);
  EXPECT_EQ(index_.rank_of(doc), ranks[doc]);
  EXPECT_TRUE(index_.validate().empty());
}

TEST_F(IndexTest, RepostingAtANewRankKeepsEveryListInRankOrder) {
  Rng rng(10);
  std::vector<double> ranks(corpus_.num_docs());
  for (auto& r : ranks) r = rng.uniform(0.1, 10.0);
  index_.publish_ranks(ranks, std::vector<PeerId>(corpus_.num_docs(), 0));
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) (void)index_.postings(t);
  // A posted document gains a term at a rank above every other: it must
  // lead the new term's list and every list it was already in.
  const NodeId doc = 23;
  const std::vector<TermId>& terms = corpus_.terms_of(doc);
  TermId absent = 0;
  while (std::binary_search(terms.begin(), terms.end(), absent)) ++absent;
  index_.post_document(doc, {absent}, 20.0, 0);
  ranks[doc] = 20.0;
  const auto issues = index_.validate();
  EXPECT_TRUE(issues.empty()) << issues.size() << " findings, the first: "
                              << issues.front();
  EXPECT_EQ(index_.rank_of(doc), 20.0);
  EXPECT_EQ(index_.postings(absent).front(), doc);
  for (const TermId t : terms) {
    EXPECT_EQ(index_.postings(t).front(), doc) << "term " << t;
  }
  for (TermId t = 0; t < corpus_.vocabulary(); ++t) {
    ASSERT_EQ(index_.postings(t), sorted_by_rank(index_, t, ranks))
        << "term " << t;
  }
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

  [[nodiscard]] PeerId peer_of_term(TermId t) const { return term_peer_[t]; }

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

/// How often the reference query took each path.
struct QueryPaths {
  std::uint64_t truncated = 0;   // forwarded the top x% of a longer set
  std::uint64_t escaped = 0;     // forwarded all under min_forward
  std::uint64_t bloom_hops = 0;
  std::uint64_t free_hops = 0;
};

/// A query over the reference's lists the way each index peer runs it
/// on a list of its own: forward the top of the hits, then intersect
/// them in the next term's list order (or, with the Bloom prefilter,
/// keep the forwarded ids among the next list's candidates).
QueryOutcome reference_query(ReferenceIndex& reference,
                             const std::vector<TermId>& terms,
                             const SearchPolicy& policy, QueryPaths& paths) {
  const auto forward_count = [&](std::size_t n) {
    if (policy.forward_fraction >= 1.0) return n;
    const auto want = static_cast<std::size_t>(
        std::ceil(policy.forward_fraction * static_cast<double>(n)));
    if (want < policy.min_forward) {
      if (want < n) ++paths.escaped;
      return n;
    }
    if (want < n) ++paths.truncated;
    return want;
  };
  const auto ids_of = [&](TermId t) {
    std::vector<NodeId> ids;
    for (const auto& p : reference.postings(t)) ids.push_back(p.doc);
    return ids;
  };
  // The entries of `local` that `incoming` holds, in local's order.
  const auto intersect = [](const std::vector<NodeId>& incoming,
                            const std::vector<NodeId>& local) {
    const std::set<NodeId> in(incoming.begin(), incoming.end());
    std::vector<NodeId> out;
    for (const NodeId d : local) {
      if (in.contains(d)) out.push_back(d);
    }
    return out;
  };

  QueryOutcome out;
  std::vector<NodeId> current = ids_of(terms[0]);
  PeerId holder = reference.peer_of_term(terms[0]);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    const PeerId next = reference.peer_of_term(terms[i]);
    const bool free_hop = policy.free_same_peer_hops && next == holder;
    if (free_hop) ++paths.free_hops;
    current.resize(forward_count(current.size()));
    out.forwarded_per_hop.push_back(static_cast<std::uint32_t>(current.size()));
    const std::vector<NodeId> local = ids_of(terms[i]);
    if (policy.bloom_prefilter) {
      ++paths.bloom_hops;
      BloomFilter filter(current.size(), policy.bloom_bits_per_item);
      for (const NodeId d : current) filter.insert(d);
      std::vector<NodeId> candidates;
      for (const NodeId d : local) {
        if (filter.possibly_contains(d)) candidates.push_back(d);
      }
      if (!free_hop) {
        const std::uint64_t filter_ids =
            (filter.byte_count() + policy.bytes_per_doc_id - 1) /
            policy.bytes_per_doc_id;
        out.ids_transferred += filter_ids + candidates.size();
        out.wire_bytes += filter.byte_count() +
                          candidates.size() * policy.bytes_per_doc_id;
      }
      current = intersect(candidates, current);
    } else {
      if (!free_hop) {
        out.ids_transferred += current.size();
        out.wire_bytes += current.size() * policy.bytes_per_doc_id;
      }
      current = intersect(current, local);
      holder = next;
    }
  }
  out.ids_transferred += current.size();
  out.wire_bytes += current.size() * policy.bytes_per_doc_id;
  out.hits = current;
  return out;
}

// Seeded random sequences of publish_ranks, rank updates of posted
// documents, new documents, remove_document and reads. Ranks come from a
// coarse grid half the time, so ties, and the doc-id tie-break, are
// common. Every read, the posting count and the ledger must match the
// reference exactly. Each read also runs a 1-3-term query, drawn from a
// stream of its own, through SearchEngine and through reference_query,
// under one of six policies; the outcomes must be equal.
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

  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  SearchPolicy no_escape = top10;
  no_escape.min_forward = 0;
  SearchPolicy bloom = top10;
  bloom.bloom_prefilter = true;
  SearchPolicy free_hops = top10;
  free_hops.free_same_peer_hops = true;
  SearchPolicy bloom_free{.forward_fraction = 0.25,
                          .min_forward = 4,
                          .free_same_peer_hops = true,
                          .bloom_prefilter = true};
  const SearchPolicy policies[] = {top10, kForwardEverything, no_escape,
                                   bloom, free_hops, bloom_free};
  const SearchEngine engine(index);
  Rng query_rng(GetParam() ^ 0x5EA2C4ULL);
  QueryPaths paths;
  const auto check_query = [&](int op) {
    std::vector<TermId> q(1 + query_rng.bounded(3));
    for (TermId& t : q) {
      // Half from the most frequent terms, whose lists are long enough
      // for the top 10% to cut them.
      t = static_cast<TermId>(query_rng.bounded(2) == 0
                                  ? query_rng.bounded(10)
                                  : query_rng.bounded(vocab));
    }
    const SearchPolicy& policy = policies[query_rng.bounded(6)];
    const QueryOutcome got = engine.run_query(q, policy);
    const QueryOutcome want = reference_query(reference, q, policy, paths);
    ASSERT_EQ(got.hits, want.hits) << "after op " << op;
    ASSERT_EQ(got.ids_transferred, want.ids_transferred) << "after op " << op;
    ASSERT_EQ(got.wire_bytes, want.wire_bytes) << "after op " << op;
    ASSERT_EQ(got.forwarded_per_hop, want.forwarded_per_hop)
        << "after op " << op;
  };

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
      check_query(op);
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(index.total_postings(), reference.total_postings())
        << "after op " << op;
  }
  EXPECT_GT(reads, 1000u);
  EXPECT_GT(paths.truncated, 100u);
  EXPECT_GT(paths.escaped, 100u);
  EXPECT_GT(paths.bloom_hops, 100u);
  EXPECT_GT(paths.free_hops, 20u);
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
