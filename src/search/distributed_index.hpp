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
// DHT ring. A posting list holds document ids only (4 B an entry); the
// index stores each document's pagerank once, and index peers sort hits
// by it without contacting the owners.
//
// Each posting list is always in one of two total orders:
//   * document order (id ascending), from construction or
//     publish_ranks() until the list's first read;
//   * rank order (recorded rank descending, then id ascending), from that
//     read on.
// So postings() sorts a list at most once per publish_ranks(). A rank
// update leaves a document-ordered list untouched, since its order does
// not depend on ranks. In a rank-ordered list it finds the entry by
// binary search on the document's old rank and gallops from there to its
// new place: O(log L + log d) for a move of d places, plus the shift of
// the entries it passes. Index updates are billed one per (document,
// term), to the meter once per call.

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
  /// Build the index for `corpus`, partitioning terms over `ring`.
  /// Initial pageranks are zero until publish_ranks() runs.
  DistributedIndex(const Corpus& corpus, const ChordRing& ring);

  /// Record converged pageranks in the index. Each (document, term)
  /// posting on a different peer than the document's owner costs one
  /// index update message (§2.4.2), tallied into `meter` when provided.
  /// `doc_owner(doc)` names the peer holding the document. Throws
  /// std::out_of_range, before any change, when `ranks` does not cover
  /// every document the index holds. Returns every list to document
  /// order.
  void publish_ranks(const std::vector<double>& ranks,
                     const std::vector<PeerId>& doc_owner,
                     TrafficMeter* meter = nullptr);

  /// Post a new document under `terms` at `rank`, each entry at its place
  /// in its list's current order. The document must not be posted under
  /// any term yet. Throws std::invalid_argument, before any change, when
  /// `terms` repeats a term or the document is already posted under one
  /// of them.
  void post_document(NodeId doc, const std::vector<TermId>& terms,
                     double rank, PeerId doc_owner,
                     TrafficMeter* meter = nullptr);

  /// Record a posted document's new rank (after an incremental update).
  /// `terms` must be exactly the distinct terms the document is posted
  /// under. Throws std::invalid_argument, before any change, when the
  /// document was never posted or a rank-ordered list of `terms` lacks
  /// it: an update never posts.
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

  /// A term's document ids, by descending recorded rank (ties by id).
  /// The first read after publish_ranks() sorts the list; writes keep it
  /// sorted from then on.
  [[nodiscard]] const std::vector<NodeId>& postings(TermId term) const;

  /// A term's list as stored, never sorted by the call: document order
  /// until its first postings() read, rank order after.
  [[nodiscard]] const std::vector<NodeId>& stored_postings(
      TermId term) const {
    return postings_[term];
  }

  /// The rank the index records for `doc` (below doc_bound()).
  [[nodiscard]] double rank_of(NodeId doc) const { return doc_rank_[doc]; }

  /// One past the highest document id the index records a rank for:
  /// every posted document is below it (sizes per-document arrays).
  [[nodiscard]] std::size_t doc_bound() const { return doc_rank_.size(); }

  [[nodiscard]] std::uint64_t total_postings() const {
    return total_postings_;
  }
  [[nodiscard]] std::size_t num_terms() const { return postings_.size(); }

  /// Check the stored lists without sorting them; returns human-readable
  /// violations (empty = healthy). Each id must be below doc_bound(), each
  /// list strictly in its current order, and total_postings() must equal
  /// the summed list sizes.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates

  /// Where `doc`, keyed by `rank`, sits (or would sit) in term `t`'s list,
  /// searched in the list's current order.
  [[nodiscard]] std::vector<NodeId>::iterator locate(TermId t, NodeId doc,
                                                     double rank);

  // postings() sorts a list on its first read; the two mutable members
  // are that one-time sort's state.
  mutable std::vector<std::vector<NodeId>> postings_;  // by term
  mutable std::vector<bool> rank_ordered_;             // by term
  std::vector<PeerId> term_peer_;
  std::vector<double> doc_rank_;  // by document: the one stored rank
  std::uint64_t total_postings_ = 0;
};

}  // namespace dprank
