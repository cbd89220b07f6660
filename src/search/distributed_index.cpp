#include "search/distributed_index.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "net/message.hpp"

namespace dprank {

namespace {

// A read list's order: a strict total order over one list, since a
// document is posted at most once per term.
bool rank_before(const Posting& a, const Posting& b) {
  if (a.rank != b.rank) return a.rank > b.rank;
  return a.doc < b.doc;
}

bool doc_before(const Posting& a, const Posting& b) { return a.doc < b.doc; }

/// Bill `updates` index updates, `local` of them between co-located
/// document and term, in one call per kind.
void bill(TrafficMeter* meter, std::uint64_t updates, std::uint64_t local) {
  if (meter == nullptr) return;
  meter->record_messages(updates - local, IndexRankUpdate::kWireBytes);
  meter->record_local_updates(local);
}

/// Move the entry at `it`, whose rank just changed, to its place in a
/// rank-ordered list whose other entries are all in order.
void move_into_place(std::vector<Posting>& plist,
                     std::vector<Posting>::iterator it) {
  const auto up = std::lower_bound(plist.begin(), it, *it, rank_before);
  if (up != it) {
    std::rotate(up, it, std::next(it));
    return;
  }
  const auto down =
      std::lower_bound(std::next(it), plist.end(), *it, rank_before);
  std::rotate(it, std::next(it), down);
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
      postings_[t].push_back({d, 0.0});
      ++total_postings_;
    }
  }
}

std::vector<Posting>::iterator DistributedIndex::locate(TermId t, NodeId doc,
                                                        double rank) {
  auto& plist = postings_[t];
  const Posting key{doc, rank};
  return rank_ordered_[t]
             ? std::lower_bound(plist.begin(), plist.end(), key, rank_before)
             : std::lower_bound(plist.begin(), plist.end(), key, doc_before);
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
      std::sort(plist.begin(), plist.end(), doc_before);
      rank_ordered_[t] = false;
    }
    for (Posting& p : plist) {
      p.rank = doc_rank_[p.doc];
      if (meter != nullptr && doc_owner[p.doc] == term_peer_[t]) ++local;
    }
  }
  bill(meter, total_postings_, local);
}

void DistributedIndex::publish_one(NodeId doc,
                                   const std::vector<TermId>& terms,
                                   double rank, PeerId doc_owner,
                                   TrafficMeter* meter) {
  if (doc >= doc_rank_.size()) doc_rank_.resize(doc + 1, 0.0);
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    auto& plist = postings_[t];
    const auto it = locate(t, doc, doc_rank_[doc]);
    if (it == plist.end() || it->doc != doc) {
      // New posting: in document order `it` is already its place.
      plist.insert(rank_ordered_[t] ? locate(t, doc, rank) : it,
                   {doc, rank});
      ++total_postings_;
    } else {
      it->rank = rank;
      if (rank_ordered_[t]) move_into_place(plist, it);
    }
    if (doc_owner == term_peer_[t]) ++local;
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
    if (it == plist.end() || it->doc != doc) continue;
    plist.erase(it);
    ++removed;
    if (doc_owner == term_peer_[t]) ++local;
  }
  total_postings_ -= removed;
  bill(meter, removed, local);
}

const std::vector<Posting>& DistributedIndex::postings(TermId term) const {
  auto& plist = postings_[term];
  if (!rank_ordered_[term]) {
    std::sort(plist.begin(), plist.end(), rank_before);
    rank_ordered_[term] = true;
  }
  return plist;
}

std::vector<std::string> DistributedIndex::validate() const {
  std::vector<std::string> issues;
  std::uint64_t total = 0;
  for (TermId t = 0; t < postings_.size(); ++t) {
    const auto& plist = postings_[t];
    total += plist.size();
    const bool by_rank = rank_ordered_[t];
    const auto report = [&](const std::string& what) {
      issues.push_back("term " + std::to_string(t) + ": " + what);
    };
    for (std::size_t i = 0; i < plist.size(); ++i) {
      const Posting& p = plist[i];
      if (i > 0 && !(by_rank ? rank_before(plist[i - 1], p)
                             : doc_before(plist[i - 1], p))) {
        report("postings " + std::to_string(i - 1) + " and " +
               std::to_string(i) + " break " +
               (by_rank ? "rank" : "document") + " order");
      }
      if (p.doc >= doc_rank_.size()) {
        report("doc " + std::to_string(p.doc) + " has no recorded rank");
      } else if (p.rank != doc_rank_[p.doc]) {
        report("doc " + std::to_string(p.doc) + " carries rank " +
               std::to_string(p.rank) + ", not its recorded " +
               std::to_string(doc_rank_[p.doc]));
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
