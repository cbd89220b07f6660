#pragma once

// Distributed inverted index with pagerank integration (§2.4.2).
//
// "Keyword search on DHT based systems is typically implemented by using
// a distributed index, with the index entry for each keyword pointing to
// all documents containing that particular keyword. We propose adding an
// extra entry in the index to store the pageranks for documents. When
// the pagerank has been computed for a node, an index update message is
// sent, and the pagerank is noted in the index."
//
// Terms are partitioned across peers by hashing the term GUID onto the
// DHT ring. The index stores each document's pagerank once, and index
// peers sort hits by it without contacting the owners.
//
// Every term's hits are read in one order, the same for all terms:
// recorded rank descending, then id ascending. So the index keeps that
// order once, as one vector of every posted document, and a term's
// posting list is a membership bitmap indexed by document id. A term's
// hits in rank order are the members met on a scan of the one order. A
// rank update moves one entry in that vector; posting or removing a
// document inserts or erases one entry and flips one bit per term.
// Index updates are billed one per (document, term), to the meter once
// per call. DESIGN.md §15 has the costs and the memory.

#include <cstdint>
#include <string>
#include <vector>

#include "common/guid.hpp"
#include "dht/ring.hpp"
#include "net/traffic_meter.hpp"
#include "search/corpus.hpp"

namespace dprank {

class DistributedIndex {
 public:
  /// Bytes of membership bitmaps for `docs` documents over `terms` terms:
  /// one 64-bit word per term for every 64 document ids.
  [[nodiscard]] static std::uint64_t bitmap_bytes(std::uint64_t docs,
                                                  std::uint64_t terms) {
    return (docs + 63) / 64 * terms * sizeof(std::uint64_t);
  }

  /// Build the index for `corpus`, partitioning terms over `ring`.
  /// Initial pageranks are zero until publish_ranks() runs.
  DistributedIndex(const Corpus& corpus, const ChordRing& ring);

  /// Record converged pageranks in the index. Each (document, term)
  /// posting on a different peer than the document's owner costs one
  /// index update message (§2.4.2), tallied into `meter` when provided.
  /// `doc_owner(doc)` names the peer holding the document. Throws
  /// std::out_of_range, before any change, when `ranks` (or, with a
  /// meter, `doc_owner`) does not cover every document the index holds.
  void publish_ranks(const std::vector<double>& ranks,
                     const std::vector<PeerId>& doc_owner,
                     TrafficMeter* meter = nullptr);

  /// Post a document under `terms` at `rank`. A document already posted
  /// under other terms moves to its new rank for all of them. Throws
  /// std::invalid_argument, before any change, when `terms` repeats a
  /// term, names one at or beyond num_terms(), or the document is already
  /// posted under one of them.
  void post_document(NodeId doc, const std::vector<TermId>& terms,
                     double rank, PeerId doc_owner,
                     TrafficMeter* meter = nullptr);

  /// Record a posted document's new rank (after an incremental update).
  /// `terms` must be exactly the distinct terms the document is posted
  /// under; each is billed. Throws std::invalid_argument, before any
  /// change, when the document is not posted under one of `terms`: an
  /// update never posts.
  void update_rank(NodeId doc, const std::vector<TermId>& terms, double rank,
                   PeerId doc_owner, TrafficMeter* meter = nullptr);

  /// Remove a deleted document's postings (§3.1's delete path at the
  /// index). One deletion notice per term whose partition lives on a
  /// different peer than the document's owner.
  void remove_document(NodeId doc, const std::vector<TermId>& terms,
                       PeerId doc_owner, TrafficMeter* meter = nullptr);

  [[nodiscard]] PeerId peer_of_term(TermId term) const {
    return term_peer_[term];
  }

  /// How many documents are posted under `term`.
  [[nodiscard]] std::uint32_t term_size(TermId term) const {
    return term_size_[term];
  }

  /// Replace `out` with the first `k` documents posted under `term` in
  /// rank order (all of them when k >= term_size(term)): one scan of the
  /// rank order that stops at the k-th member.
  void top_postings(TermId term, std::size_t k,
                    std::vector<NodeId>& out) const;

  /// Keep the ids of `ids` posted under `term`, in their order. Every id
  /// must be below doc_bound().
  void keep_members(TermId term, std::vector<NodeId>& ids) const;

  /// A term's document ids, by descending recorded rank (ties by id).
  [[nodiscard]] std::vector<NodeId> postings(TermId term) const {
    std::vector<NodeId> out;
    top_postings(term, term_size_[term], out);
    return out;
  }

  /// A term's document ids, ascending: its bitmap read in id order.
  [[nodiscard]] std::vector<NodeId> members(TermId term) const;

  /// The rank the index records for `doc` (below doc_bound()).
  [[nodiscard]] double rank_of(NodeId doc) const { return doc_rank_[doc]; }

  /// One past the highest document id the index records a rank for:
  /// every posted document is below it (sizes per-document arrays).
  [[nodiscard]] std::size_t doc_bound() const { return doc_rank_.size(); }

  [[nodiscard]] std::uint64_t total_postings() const {
    return total_postings_;
  }
  [[nodiscard]] std::size_t num_terms() const { return term_peer_.size(); }

  /// Check the rank order and the bitmaps; returns human-readable
  /// violations (empty = healthy). The rank order must hold each posted
  /// document once, strictly in order, with ids below doc_bound(); no
  /// bit may be set at or beyond doc_bound(); each term's size must equal
  /// its bitmap's count, each document's term count its bits, and
  /// total_postings() their sum.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates

  /// The bitmap word holding (term, doc): block-major, one word per term
  /// for every 64 document ids, so a new block appends at the end.
  [[nodiscard]] std::size_t word_of(TermId term, NodeId doc) const {
    return (doc >> 6) * term_peer_.size() + term;
  }
  /// Whether `doc` (below doc_bound()) is posted under `term`; false for
  /// a term beyond num_terms().
  [[nodiscard]] bool has(TermId term, NodeId doc) const {
    return term < num_terms() &&
           ((bits_[word_of(term, doc)] >> (doc & 63)) & 1) != 0;
  }
  /// Where `doc` at `rank` sits, or would sit, in the rank order.
  [[nodiscard]] std::vector<NodeId>::iterator place_of(NodeId doc,
                                                       double rank);
  /// Move posted `doc` to `rank`, within the rank order.
  void rerank(NodeId doc, double rank);

  std::vector<PeerId> term_peer_;
  std::vector<std::uint32_t> term_size_;  // by term: its members
  std::vector<double> doc_rank_;          // by document: the one stored rank
  std::vector<std::uint32_t> doc_terms_;  // by document: terms posted under
  std::vector<NodeId> order_;             // posted documents, rank order
  std::vector<std::uint64_t> bits_;       // membership, see word_of()
  std::uint64_t total_postings_ = 0;
};

}  // namespace dprank
