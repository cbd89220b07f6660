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
// DHT ring; each posting carries the document id and its recorded
// pagerank so index peers can sort hits without contacting the owners.
//
// The index records one rank per document, and every posting of that
// document carries exactly that rank. Each posting list is always in one
// of two total orders:
//   * document order (doc ascending), from construction or
//     publish_ranks() until the list's first read;
//   * rank order (rank descending, then doc ascending), from that read on.
// So postings() sorts a list at most once per publish_ranks(). A write
// finds each posting by binary search in its list's current order, and
// in a rank-ordered list publish_one() moves the one changed entry to its
// new place instead of unsorting the list: a write costs O(log L) per
// term plus the shift of the entries it moves past. Each call bills its
// index updates to the meter once, not per posting.

#include <cstdint>
#include <string>
#include <vector>

#include "common/guid.hpp"
#include "dht/ring.hpp"
#include "net/traffic_meter.hpp"
#include "search/corpus.hpp"

namespace dprank {

struct Posting {
  NodeId doc = 0;
  double rank = 0.0;
};

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

  /// Update one document's recorded rank across all its terms (used
  /// after incremental updates); a term the document is not yet posted
  /// under gains a posting. `terms` must be distinct and include every
  /// term the document is already posted under, so that all its postings
  /// keep one rank.
  void publish_one(NodeId doc, const std::vector<TermId>& terms,
                   double rank, PeerId doc_owner,
                   TrafficMeter* meter = nullptr);

  /// Remove a deleted document's postings (§3.1's delete path at the
  /// index). One deletion notice per term whose partition lives on a
  /// different peer than the document's owner.
  void remove_document(NodeId doc, const std::vector<TermId>& terms,
                       PeerId doc_owner, TrafficMeter* meter = nullptr);

  [[nodiscard]] PeerId peer_of_term(TermId term) const {
    return term_peer_[term];
  }

  /// Postings for a term, sorted by descending pagerank (ties by doc id).
  /// The first read after publish_ranks() sorts the list; writes keep it
  /// sorted from then on.
  [[nodiscard]] const std::vector<Posting>& postings(TermId term) const;

  /// A term's list as stored, never sorted by the call: document order
  /// until its first postings() read, rank order after.
  [[nodiscard]] const std::vector<Posting>& stored_postings(
      TermId term) const {
    return postings_[term];
  }

  /// One past the highest document id the index records a rank for:
  /// every posted document is below it (sizes per-document arrays).
  [[nodiscard]] std::size_t doc_bound() const { return doc_rank_.size(); }

  [[nodiscard]] std::uint64_t total_postings() const {
    return total_postings_;
  }
  [[nodiscard]] std::size_t num_terms() const { return postings_.size(); }

  /// Check the stored lists without sorting them; returns human-readable
  /// violations (empty = healthy). Each list must be strictly in its
  /// current order, each posting must carry its document's recorded
  /// rank, and total_postings() must equal the summed list sizes.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates

  /// Where `doc`, recorded at `rank`, sits (or would sit) in term `t`'s
  /// list, searched in the list's current order.
  [[nodiscard]] std::vector<Posting>::iterator locate(TermId t, NodeId doc,
                                                      double rank);

  // postings() sorts a list on its first read; the two mutable members
  // are that one-time sort's state.
  mutable std::vector<std::vector<Posting>> postings_;  // by term
  mutable std::vector<bool> rank_ordered_;              // by term
  std::vector<PeerId> term_peer_;
  std::vector<double> doc_rank_;  // by document: the rank its postings carry
  std::uint64_t total_postings_ = 0;
};

}  // namespace dprank
