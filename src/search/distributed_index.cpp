#include "search/distributed_index.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>

#include "net/message.hpp"

namespace dprank {

namespace {

// The rank order, on (rank, id) keys: a strict total order over the
// posted documents, since each has one recorded rank.
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

/// Bit `doc` of the term whose block-major words start at `column`, as 0
/// or 1, for branch-free scans.
std::uint64_t bit_of(const std::uint64_t* column, std::size_t stride,
                     NodeId doc) {
  return (column[(doc >> 6) * stride] >> (doc & 63)) & 1;
}

/// The index of `word`'s lowest set bit (word != 0).
std::size_t lowest_bit(std::uint64_t word) {
  return static_cast<std::size_t>(std::countr_zero(word));
}

}  // namespace

DistributedIndex::DistributedIndex(const Corpus& corpus,
                                   const ChordRing& ring)
    : term_peer_(corpus.vocabulary()),
      term_size_(corpus.vocabulary(), 0),
      doc_rank_(corpus.num_docs(), 0.0),
      doc_terms_(corpus.num_docs(), 0) {
  const TermId vocab = corpus.vocabulary();
  for (TermId t = 0; t < vocab; ++t) {
    term_peer_[t] = ring.successor_of_key(term_guid("term:" + std::to_string(t)));
  }
  // Capacity for as many documents again, so early inserts append blocks
  // without a copy. Only the blocks in use are written, and so resident.
  const std::size_t words =
      bitmap_bytes(corpus.num_docs(), vocab) / sizeof(std::uint64_t);
  bits_.reserve(2 * words);
  bits_.resize(words, 0);
  for (NodeId d = 0; d < corpus.num_docs(); ++d) {
    const auto& terms = corpus.terms_of(d);
    for (const TermId t : terms) {
      bits_[word_of(t, d)] |= std::uint64_t{1} << (d & 63);
      ++term_size_[t];
    }
    doc_terms_[d] = static_cast<std::uint32_t>(terms.size());
    total_postings_ += terms.size();
    // Every rank is zero until publish_ranks(): id order is rank order.
    if (!terms.empty()) order_.push_back(d);
  }
}

std::vector<NodeId>::iterator DistributedIndex::place_of(NodeId doc,
                                                         double rank) {
  return std::partition_point(order_.begin(), order_.end(), [&](NodeId e) {
    return rank_before(doc_rank_[e], e, rank, doc);
  });
}

void DistributedIndex::rerank(NodeId doc, double rank) {
  // Its entry is the one place its old key can be.
  const auto at = place_of(doc, doc_rank_[doc]);
  // True on the entries that stay ahead of `doc` at its new rank: a
  // prefix of the order without it.
  const auto ahead = [&](NodeId e) {
    return rank_before(doc_rank_[e], e, rank, doc);
  };
  if (at != order_.begin() && !ahead(*std::prev(at))) {
    std::rotate(std::partition_point(order_.begin(), at, ahead), at,
                std::next(at));
  } else {
    std::rotate(at, std::next(at),
                std::partition_point(std::next(at), order_.end(), ahead));
  }
  doc_rank_[doc] = rank;
}

void DistributedIndex::publish_ranks(const std::vector<double>& ranks,
                                     const std::vector<PeerId>& doc_owner,
                                     TrafficMeter* meter) {
  if (ranks.size() < doc_rank_.size()) {
    throw std::out_of_range("publish_ranks: rank vector too small");
  }
  if (meter != nullptr && doc_owner.size() < doc_rank_.size()) {
    throw std::out_of_range("publish_ranks: owner vector too small");
  }
  std::copy_n(ranks.begin(), doc_rank_.size(), doc_rank_.begin());
  std::sort(order_.begin(), order_.end(), [this](NodeId a, NodeId b) {
    return rank_before(doc_rank_[a], a, doc_rank_[b], b);
  });
  if (meter == nullptr) return;
  // A posting is local when its term's peer owns its document. Per block
  // of 64 documents, AND each term's word with the block's documents its
  // peer owns, and count.
  const std::size_t vocab = term_peer_.size();
  PeerId peers = 0;
  for (const PeerId p : term_peer_) peers = std::max(peers, p + 1);
  std::vector<std::uint64_t> owned(peers, 0);
  std::uint64_t local = 0;
  for (std::size_t base = 0; base < doc_rank_.size(); base += 64) {
    const std::size_t end = std::min(base + 64, doc_rank_.size());
    for (std::size_t d = base; d < end; ++d) {
      if (doc_owner[d] < peers) {
        owned[doc_owner[d]] |= std::uint64_t{1} << (d - base);
      }
    }
    const std::uint64_t* words = bits_.data() + base / 64 * vocab;
    for (std::size_t t = 0; t < vocab; ++t) {
      local += static_cast<std::uint64_t>(
          std::popcount(words[t] & owned[term_peer_[t]]));
    }
    for (std::size_t d = base; d < end; ++d) {
      if (doc_owner[d] < peers) owned[doc_owner[d]] = 0;
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
  if (!distinct.empty() && distinct.back() >= num_terms()) {
    throw std::invalid_argument("post_document: term " +
                                std::to_string(distinct.back()) +
                                " beyond the vocabulary");
  }
  if (doc < doc_rank_.size()) {
    for (const TermId t : terms) {
      if (has(t, doc)) {
        throw std::invalid_argument("post_document: doc " +
                                    std::to_string(doc) +
                                    " already posted under term " +
                                    std::to_string(t));
      }
    }
  } else {
    const std::size_t bound = std::size_t{doc} + 1;
    doc_rank_.resize(bound, 0.0);
    doc_terms_.resize(bound, 0);
    bits_.resize(bitmap_bytes(bound, num_terms()) / sizeof(std::uint64_t), 0);
  }
  // A document posted under other terms moves for all of them.
  if (doc_terms_[doc] != 0) {
    rerank(doc, rank);
  } else {
    if (!terms.empty()) order_.insert(place_of(doc, rank), doc);
    doc_rank_[doc] = rank;
  }
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    bits_[word_of(t, doc)] |= std::uint64_t{1} << (doc & 63);
    ++term_size_[t];
    if (doc_owner == term_peer_[t]) ++local;
  }
  doc_terms_[doc] += static_cast<std::uint32_t>(terms.size());
  total_postings_ += terms.size();
  bill(meter, terms.size(), local);
}

void DistributedIndex::update_rank(NodeId doc,
                                   const std::vector<TermId>& terms,
                                   double rank, PeerId doc_owner,
                                   TrafficMeter* meter) {
  if (doc >= doc_rank_.size() || doc_terms_[doc] == 0) {
    throw std::invalid_argument("update_rank: doc " + std::to_string(doc) +
                                " is not posted");
  }
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    if (!has(t, doc)) {
      throw std::invalid_argument("update_rank: doc " + std::to_string(doc) +
                                  " is not posted under term " +
                                  std::to_string(t));
    }
    if (doc_owner == term_peer_[t]) ++local;
  }
  rerank(doc, rank);
  bill(meter, terms.size(), local);
}

void DistributedIndex::remove_document(NodeId doc,
                                       const std::vector<TermId>& terms,
                                       PeerId doc_owner,
                                       TrafficMeter* meter) {
  if (doc >= doc_rank_.size()) return;  // never posted
  std::uint32_t removed = 0;
  std::uint64_t local = 0;
  for (const TermId t : terms) {
    if (!has(t, doc)) continue;
    bits_[word_of(t, doc)] &= ~(std::uint64_t{1} << (doc & 63));
    --term_size_[t];
    ++removed;
    if (doc_owner == term_peer_[t]) ++local;
  }
  if (removed != 0) {
    doc_terms_[doc] -= removed;
    if (doc_terms_[doc] == 0) order_.erase(place_of(doc, doc_rank_[doc]));
  }
  total_postings_ -= removed;
  bill(meter, removed, local);
}

void DistributedIndex::top_postings(TermId term, std::size_t k,
                                    std::vector<NodeId>& out) const {
  k = std::min<std::size_t>(k, term_size_[term]);
  out.resize(k);
  std::size_t found = 0;
  if (k != 0) {
    const std::uint64_t* column = bits_.data() + term;
    const std::size_t stride = term_peer_.size();
    // Branch-free: write every entry, keep it by stepping past it.
    for (const NodeId d : order_) {
      out[found] = d;
      found += bit_of(column, stride, d);
      if (found == k) break;
    }
  }
  out.resize(found);
}

void DistributedIndex::keep_members(TermId term,
                                    std::vector<NodeId>& ids) const {
  const std::uint64_t* column = bits_.data() + term;
  const std::size_t stride = term_peer_.size();
  std::size_t kept = 0;
  // In place and branch-free: the write never passes the read.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const NodeId d = ids[i];
    ids[kept] = d;
    kept += bit_of(column, stride, d);
  }
  ids.resize(kept);
}

std::vector<NodeId> DistributedIndex::members(TermId term) const {
  std::vector<NodeId> out;
  out.reserve(term_size_[term]);
  const std::size_t stride = term_peer_.size();
  for (std::size_t w = term, base = 0; w < bits_.size();
       w += stride, base += 64) {
    for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
      out.push_back(static_cast<NodeId>(base + lowest_bit(word)));
    }
  }
  return out;
}

std::vector<std::string> DistributedIndex::validate() const {
  std::vector<std::string> issues;
  const std::size_t bound = doc_rank_.size();
  const std::size_t vocab = term_peer_.size();
  if (term_size_.size() != vocab || doc_terms_.size() != bound ||
      bits_.size() != bitmap_bytes(bound, vocab) / sizeof(std::uint64_t)) {
    issues.push_back("array sizes disagree with " + std::to_string(vocab) +
                     " terms and doc_bound() " + std::to_string(bound));
    return issues;  // everything below would index out of bounds
  }

  // The rank order: every posted document once, strictly in order. An
  // unknown id has no rank to read: report it, compare it with neither
  // neighbour.
  std::size_t posted = 0;
  for (const std::uint32_t n : doc_terms_) posted += n != 0 ? 1 : 0;
  if (order_.size() != posted) {
    issues.push_back("rank order holds " + std::to_string(order_.size()) +
                     " documents but " + std::to_string(posted) +
                     " are posted");
  }
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const NodeId d = order_[i];
    const std::string entry =
        "rank order: entry " + std::to_string(i) + ", doc " + std::to_string(d);
    if (d >= bound) {
      issues.push_back(entry + ", is beyond doc_bound() " +
                       std::to_string(bound));
      continue;
    }
    if (doc_terms_[d] == 0) issues.push_back(entry + ", is posted under no term");
    if (i == 0 || order_[i - 1] >= bound) continue;
    const NodeId prev = order_[i - 1];
    if (!rank_before(doc_rank_[prev], prev, doc_rank_[d], d)) {
      issues.push_back("rank order: entries " + std::to_string(i - 1) +
                       " and " + std::to_string(i) + " break " +
                       (doc_rank_[prev] == doc_rank_[d]
                            ? "document order among equal ranks"
                            : "rank order"));
    }
  }

  // The bitmaps: no member at or beyond the bound, and the counts.
  std::vector<std::uint64_t> term_count(vocab, 0);
  std::vector<std::uint32_t> doc_count(bound, 0);
  for (std::size_t base = 0; base < bound; base += 64) {
    const std::uint64_t beyond =
        bound - base >= 64 ? 0 : ~std::uint64_t{0} << (bound - base);
    for (std::size_t t = 0; t < vocab; ++t) {
      std::uint64_t word = bits_[base / 64 * vocab + t];
      if ((word & beyond) != 0) {
        issues.push_back(
            "term " + std::to_string(t) + ": doc " +
            std::to_string(base + lowest_bit(word & beyond)) +
            " is beyond doc_bound() " + std::to_string(bound));
        word &= ~beyond;
      }
      term_count[t] += static_cast<std::uint64_t>(std::popcount(word));
      for (; word != 0; word &= word - 1) {
        ++doc_count[base + lowest_bit(word)];
      }
    }
  }
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < vocab; ++t) {
    if (term_count[t] != term_size_[t]) {
      issues.push_back("term " + std::to_string(t) + ": size " +
                       std::to_string(term_size_[t]) + " but its bitmap holds " +
                       std::to_string(term_count[t]));
    }
    total += term_count[t];
  }
  for (std::size_t d = 0; d < bound; ++d) {
    if (doc_count[d] != doc_terms_[d]) {
      issues.push_back("doc " + std::to_string(d) + ": posted under " +
                       std::to_string(doc_terms_[d]) + " terms but its bits number " +
                       std::to_string(doc_count[d]));
    }
  }
  if (total != total_postings_) {
    issues.push_back("total_postings() is " +
                     std::to_string(total_postings_) +
                     " but the bitmaps hold " + std::to_string(total));
  }
  return issues;
}

}  // namespace dprank
