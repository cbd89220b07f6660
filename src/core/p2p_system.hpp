#pragma once

// P2PSystem — the assembled system of the paper, behind one facade.
//
// Owns the pieces a deployment would run together: the document link
// graph, the peer overlay (Chord ring + placement), the pagerank state,
// and the term-partitioned keyword index. Provides the full document
// lifecycle the paper describes:
//
//   * converge()        — initial distributed pagerank (Fig. 1) and
//                         publication of ranks into the index (§2.4.2);
//   * add_document()    — §3.1 insert: place the document, seed its
//                         rank, propagate increments (Fig. 2), post it
//                         under its terms, and update the recorded rank
//                         of every document the cascades moved, once per
//                         document per write (one index update per
//                         (document, term));
//   * remove_document() — §3.1 delete: negated-rank propagation, link
//                         and posting removal, index refresh;
//   * search()          — §2.4.3 incremental multi-word search over the
//                         maintained index.
//
// All network traffic (pagerank updates, index updates, search
// forwards) is tallied in one ledger, so "what does keeping ranks
// continuously fresh cost?" is a single method call.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dht/ring.hpp"
#include "graph/mutable_digraph.hpp"
#include "net/traffic_meter.hpp"
#include "p2p/placement.hpp"
#include "pagerank/incremental.hpp"
#include "pagerank/options.hpp"
#include "search/corpus.hpp"
#include "search/distributed_index.hpp"
#include "search/incremental_search.hpp"

namespace dprank {

struct P2PSystemConfig {
  PeerId num_peers = 50;
  PagerankOptions pagerank;       // damping 0.85, epsilon 1e-3
  std::uint64_t seed = 42;
  /// Index entries are refreshed for documents whose rank moved by more
  /// than this relative amount during an incremental cascade (refreshing
  /// every touched posting on every insert would swamp the index).
  double index_refresh_threshold = 1e-3;
};

class P2PSystem {
 public:
  /// Adopt an initial corpus and its link graph. Documents are placed
  /// uniformly at random (the paper's setup); the index is built
  /// immediately, ranks are zero until converge().
  P2PSystem(const Digraph& initial_graph, const Corpus& corpus,
            const P2PSystemConfig& config);
  // The engine holds references to this system's graph, ranks and
  // placement.
  P2PSystem(const P2PSystem&) = delete;
  P2PSystem& operator=(const P2PSystem&) = delete;

  /// Run the initial distributed pagerank computation to convergence and
  /// publish every rank into the index. Returns the number of passes.
  std::uint64_t converge();

  /// Insert a document with the given index terms and out-links
  /// (§3.1 + §4.7). Returns its id. Requires converge() first. Throws
  /// std::invalid_argument, before any mutation, on an out-link to a
  /// missing document, a repeated term or a term beyond vocabulary().
  NodeId add_document(const std::vector<TermId>& terms,
                      const std::vector<NodeId>& out_links);

  /// Delete a document (§3.1): negated-rank propagation, graph
  /// isolation, posting removal. Requires converge() first.
  void remove_document(NodeId doc);

  /// Boolean multi-word search with pagerank-sorted incremental
  /// forwarding (§2.4.3).
  [[nodiscard]] QueryOutcome search(const std::vector<TermId>& terms,
                                    const SearchPolicy& policy) const;

  /// Paged search (§1: top hits first, "additional pages fetched
  /// incrementally as required"). The session references this system's
  /// index; keep the system alive while using it.
  [[nodiscard]] SearchSession begin_search(std::vector<TermId> terms,
                                           SearchPolicy policy) const;

  [[nodiscard]] const std::vector<double>& ranks() const { return ranks_; }
  [[nodiscard]] double rank_of(NodeId doc) const { return ranks_[doc]; }
  [[nodiscard]] PeerId peer_of(NodeId doc) const {
    return placement_.peer_of(doc);
  }
  [[nodiscard]] NodeId num_documents() const { return graph_.num_nodes(); }
  [[nodiscard]] bool is_live(NodeId doc) const { return live_[doc]; }

  /// One ledger for everything: pagerank updates, index updates, and
  /// (via searches' QueryOutcome) search traffic.
  [[nodiscard]] const TrafficMeter& traffic() const { return meter_; }

  /// Terms a document is indexed under.
  [[nodiscard]] const std::vector<TermId>& terms_of(NodeId doc) const {
    return terms_[doc];
  }

  /// Cross-component consistency check; returns human-readable
  /// violations (empty = healthy). Verifies that ranks, liveness, graph
  /// state and the index's posted ids agree, and appends the index's own
  /// findings (DistributedIndex::validate) — the invariant set every
  /// mutation must preserve. Reads each term's members in document
  /// order. O(total postings); intended for tests, the CLI doctor, and
  /// debugging sessions.
  [[nodiscard]] std::vector<std::string> validate() const;

  [[nodiscard]] TermId vocabulary() const {
    return static_cast<TermId>(index_.num_terms());
  }

 private:
  friend struct TestCorruptor;  // negative invariant tests corrupt privates

  /// Update the recorded rank of the live documents a write's cascades
  /// moved past the refresh threshold since prior_ranks_, each once
  /// whatever the number of cascades that touched it, then bring
  /// prior_ranks_ level with ranks_. A document the write added is
  /// skipped: the caller posts it itself.
  void refresh_index(std::vector<NodeId> touched);

  P2PSystemConfig config_;
  MutableDigraph graph_;
  ChordRing ring_;
  Placement placement_;
  std::vector<std::vector<TermId>> terms_;
  std::vector<bool> live_;
  std::vector<double> ranks_;
  // ranks_ as the last write left it: a write changes only the documents
  // its cascades touch, so those alone are compared and brought level.
  std::vector<double> prior_ranks_;
  IncrementalPagerank<MutableDigraph> engine_;
  DistributedIndex index_;
  TrafficMeter meter_;
  Rng rng_;
  bool converged_ = false;
};

}  // namespace dprank
