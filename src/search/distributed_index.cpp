#include "search/distributed_index.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "net/message.hpp"

namespace dprank {

namespace {

// A read list's order, on (rank, id) keys: a strict total order over one
// list, since a document is posted at most once per term.
bool rank_before(double rank_a, NodeId a, double rank_b, NodeId b) {
  if (rank_a != rank_b) return rank_a > rank_b;
  return a < b;
}

/// Bill `updates` index updates, `local` of them between co-located
/// document and term, in one call per kind.
void bill(TrafficMeter* meter, std::uint64_t updates, std::uint64_t local) {
  if (meter == nullptr) return;
  meter->record_messages(updates - local, IndexRankUpdate::kWireBytes);
  meter->record_local_updates(local);
}

/// The partition point of [first, last) under `pred`, found by galloping
/// out from `first`: O(log d) probes for a point d entries in.
template <typename It, typename Pred>
It gallop(It first, It last, Pred pred) {
  for (std::ptrdiff_t step = 1; step < last - first; step *= 2) {
    if (!pred(first[step - 1])) {
      return std::partition_point(first, first + step - 1, pred);
    }
    first += step;
  }
  return std::partition_point(first, last, pred);
}

/// Move entry `i` of a rank-ordered list, whose document's rank becomes
/// `rank`, to its new place, galloping out from `i` in the direction it
/// moves; `doc_rank` keys every other entry.
void move_into_place(std::vector<NodeId>& plist, std::size_t i, double rank,
                     const std::vector<double>& doc_rank) {
  const NodeId doc = plist[i];
  // True on the entries that stay ahead of `doc`: a prefix of the list
  // without it.
  const auto ahead = [&](NodeId e) {
    return rank_before(doc_rank[e], e, rank, doc);
  };
  const auto at = plist.begin() + static_cast<std::ptrdiff_t>(i);
  const auto up = gallop(std::make_reverse_iterator(at), plist.rend(),
                         [&](NodeId e) { return !ahead(e); });
  if (up.base() != at) {
    std::rotate(up.base(), at, std::next(at));
  } else {
    std::rotate(at, std::next(at), gallop(std::next(at), plist.end(), ahead));
  }
}

}  // namespace

DistributedIndex::DistributedIndex(const Corpus& corpus,
                                   const ChordRing& ring)
    : doc_rank_(corpus.num_docs(), 0.0) {
  const TermId vocab = corpus.vocabulary();
  postings_.resize(vocab);
  rank_ordered_.assign(vocab, false);
  term_peer_.resize(vocab);
  for (TermId t = 0; t < vocab; ++t) {
    term_peer_[t] = ring.successor_of_key(term_guid("term:" + std::to_string(t)));
    postings_[t].reserve(corpus.doc_frequency(t));
  }
  for (NodeId d = 0; d < corpus.num_docs(); ++d) {
    for (const TermId t : corpus.terms_of(d)) {
      postings_[t].push_back(d);
      ++total_postings_;
    }
  }
}

std::vector<NodeId>::iterator DistributedIndex::locate(TermId t, NodeId doc,
                                                       double rank) {
  auto& plist = postings_[t];
  if (!rank_ordered_[t]) {
    return std::lower_bound(plist.begin(), plist.end(), doc);
  }
  return std::partition_point(plist.begin(), plist.end(), [&](NodeId e) {
    return rank_before(doc_rank_[e], e, rank, doc);
  });
}

void DistributedIndex::publish_ranks(const std::vector<double>& ranks,
                                     const std::vector<PeerId>& doc_owner,
                                     TrafficMeter* meter) {
  if (ranks.size() < doc_rank_.size()) {
    throw std::out_of_range("publish_ranks: rank vector too small");
  }
  std::copy_n(ranks.begin(), doc_rank_.size(), doc_rank_.begin());
  std::uint64_t local = 0;
  for (TermId t = 0; t < postings_.size(); ++t) {
    auto& plist = postings_[t];
    if (rank_ordered_[t]) {
      std::sort(plist.begin(), plist.end());
      rank_ordered_[t] = false;
    }
    if (meter == nullptr) continue;
    for (const NodeId d : plist) {
      if (doc_owner[d] == term_peer_[t]) ++local;
    }
  }
  bill(meter, total_postings_, local);
}

void DistributedIndex::post_document(NodeId doc,
                                     const std::vector<TermId>& terms,
                                     double rank, PeerId doc_owner,
                                     TrafficMeter* meter) {
  std::vector<TermId> distinct = terms;
  std::sort(distinct.begin(), distinct.end());
  if (std::adjacent_find(distinct.begin(), distinct.end()) != distinct.end()) {
    throw std::invalid_argument("post_document: repeated term");
  }
  if (doc < doc_rank_.size()) {
    for (const TermId t : terms) {
      const auto it = locate(t, doc, doc_rank_[doc]);
      if (it != postings_[t].end() && *it == doc) {
        throw std::invalid_argument("post_document: doc " +
                                    std::to_string(doc) +
                                    " already posted under term " +
                                    std::to_string(t));
      }
    }
  } else {
    doc_rank_.resize(doc + 1, 0.0);
  }
  doc_rank_[doc] = rank;
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    postings_[t].insert(locate(t, doc, rank), doc);
    if (doc_owner == term_peer_[t]) ++local;
  }
  total_postings_ += terms.size();
  bill(meter, terms.size(), local);
}

void DistributedIndex::update_rank(NodeId doc,
                                   const std::vector<TermId>& terms,
                                   double rank, PeerId doc_owner,
                                   TrafficMeter* meter) {
  if (doc >= doc_rank_.size()) {
    throw std::invalid_argument("update_rank: doc " + std::to_string(doc) +
                                " was never posted");
  }
  // Find the entry in every rank-ordered list, by the document's old key,
  // before moving any; a document-ordered list does not depend on ranks.
  std::vector<std::size_t> found;
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    if (doc_owner == term_peer_[t]) ++local;
    if (!rank_ordered_[t]) continue;
    const auto& plist = postings_[t];
    const auto it = locate(t, doc, doc_rank_[doc]);
    if (it == plist.end() || *it != doc) {
      throw std::invalid_argument("update_rank: doc " + std::to_string(doc) +
                                  " is not posted under term " +
                                  std::to_string(t));
    }
    found.push_back(static_cast<std::size_t>(it - plist.begin()));
  }
  auto slot = found.begin();
  for (const TermId t : terms) {
    if (rank_ordered_[t]) {
      move_into_place(postings_[t], *slot++, rank, doc_rank_);
    }
  }
  doc_rank_[doc] = rank;
  bill(meter, terms.size(), local);
}

void DistributedIndex::remove_document(NodeId doc,
                                       const std::vector<TermId>& terms,
                                       PeerId doc_owner,
                                       TrafficMeter* meter) {
  if (doc >= doc_rank_.size()) return;  // never posted
  std::uint64_t removed = 0;
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    auto& plist = postings_[t];
    const auto it = locate(t, doc, doc_rank_[doc]);
    if (it == plist.end() || *it != doc) continue;
    plist.erase(it);
    ++removed;
    if (doc_owner == term_peer_[t]) ++local;
  }
  total_postings_ -= removed;
  bill(meter, removed, local);
}

const std::vector<NodeId>& DistributedIndex::postings(TermId term) const {
  auto& plist = postings_[term];
  if (!rank_ordered_[term]) {
    std::sort(plist.begin(), plist.end(), [this](NodeId a, NodeId b) {
      return rank_before(doc_rank_[a], a, doc_rank_[b], b);
    });
    rank_ordered_[term] = true;
  }
  return plist;
}

std::vector<std::string> DistributedIndex::validate() const {
  std::vector<std::string> issues;
  std::uint64_t total = 0;
  const std::size_t bound = doc_rank_.size();
  for (TermId t = 0; t < postings_.size(); ++t) {
    const auto& plist = postings_[t];
    total += plist.size();
    const bool by_rank = rank_ordered_[t];
    const auto report = [&](const std::string& what) {
      issues.push_back("term " + std::to_string(t) + ": " + what);
    };
    for (std::size_t i = 0; i < plist.size(); ++i) {
      const NodeId d = plist[i];
      // An unknown id has no rank to read: report it, compare it with
      // neither neighbour.
      if (d >= bound) {
        report("doc " + std::to_string(d) + " is beyond doc_bound() " +
               std::to_string(bound));
        continue;
      }
      if (i == 0 || plist[i - 1] >= bound) continue;
      const NodeId prev = plist[i - 1];
      if (!(by_rank ? rank_before(doc_rank_[prev], prev, doc_rank_[d], d)
                    : prev < d)) {
        report("postings " + std::to_string(i - 1) + " and " +
               std::to_string(i) + " break " +
               (by_rank ? "rank" : "document") + " order");
      }
    }
  }
  if (total != total_postings_) {
    issues.push_back("total_postings() is " +
                     std::to_string(total_postings_) + " but the lists hold " +
                     std::to_string(total));
  }
  return issues;
}

}  // namespace dprank
