#pragma once

// Incremental multi-word search (§2.4.3, Table 6).
//
// A boolean AND query visits the index peer of each term in sequence.
// The first peer sorts its posting list by pagerank and forwards only the
// top x% of hits; each subsequent peer intersects the incoming set with
// its own postings, re-sorts by pagerank, and again forwards the top x%.
// The paper's escape hatch: "when the top x% of the documents falls below
// a threshold (we used 20), then all the results are forwarded along."
// The final peer returns the whole surviving intersection to the user.
//
// Traffic is counted in document ids transferred between peers plus the
// final transfer to the user — the unit Table 6 reports. Like the paper,
// accounting assumes each query term's index partition lives on a
// different peer ("we assumed that each search term in the query was
// always present in a different peer"); same-peer hops can optionally be
// counted as free for the DHT-realistic variant.
//
// Two baselines:
//  * kForwardEverything — no pageranks: full posting lists travel
//    (Table 6's "Baseline");
//  * Bloom-filter assisted intersection (the cited Reynolds & Vahdat
//    approach), standalone or composed with incremental forwarding.

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "search/distributed_index.hpp"

namespace dprank {

struct SearchPolicy {
  /// Fraction of hits forwarded between peers; 1.0 disables filtering.
  double forward_fraction = 0.10;
  /// If the top x% would be fewer than this many hits, forward all
  /// (the paper used 20).
  std::uint32_t min_forward = 20;
  /// Count a hop between two terms whose partitions share a peer as free.
  /// Table 6's accounting assumes distinct peers, so default false.
  bool free_same_peer_hops = false;
  /// Compose with a Bloom-filter prefilter: instead of document ids, the
  /// forwarding peer ships a Bloom filter of its (already top-x%
  /// filtered) hit set; the receiving peer intersects locally and ships
  /// the matching ids back. Traffic adds the filter's id-equivalents.
  bool bloom_prefilter = false;
  double bloom_bits_per_item = 8.0;
  /// Bytes a document id occupies on the wire (a 128-bit GUID).
  std::uint32_t bytes_per_doc_id = 16;
};

inline SearchPolicy kForwardEverything{.forward_fraction = 1.0,
                                       .min_forward = 0};

struct QueryOutcome {
  std::vector<NodeId> hits;           // returned to the user, rank order
  std::uint64_t ids_transferred = 0;  // inter-peer + final return
  std::uint64_t wire_bytes = 0;       // ids + bloom filters if any
  std::vector<std::uint32_t> forwarded_per_hop;
};

class SearchEngine {
 public:
  explicit SearchEngine(const DistributedIndex& index) : index_(index) {}
  explicit SearchEngine(DistributedIndex&&) = delete;

  /// Run a boolean AND query over `terms` (2 and 3 terms in the paper's
  /// evaluation; any count >= 1 works). Throws std::invalid_argument on
  /// no terms, a term beyond the index's vocabulary, or a NaN or
  /// negative forward fraction.
  [[nodiscard]] QueryOutcome run_query(const std::vector<TermId>& terms,
                                       const SearchPolicy& policy) const;

  /// Publish per-query telemetry into `registry`: `search.queries`,
  /// `search.ids_transferred`, `search.wire_bytes` counters plus
  /// `search.query.fanout` (ids forwarded per inter-peer hop) and
  /// `search.query.hits` histograms. The registry must outlive the
  /// engine (and every SearchSession copied from it).
  void bind_metrics(obs::MetricsRegistry& registry) { metrics_ = &registry; }

  /// Emit one complete span per query ("search.query", one lane per
  /// query pipeline) plus an instant per inter-peer forward hop.
  void bind_tracer(obs::Tracer& tracer) { tracer_ = &tracer; }

 private:
  const DistributedIndex& index_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

/// Incremental result fetching (§1/§4.9: the user "sees the most
/// important documents first, while other documents can be fetched
/// incrementally if requested").
///
/// A session starts with the policy's forward fraction and, on each
/// fetch_more(), re-issues the query with the fraction doubled,
/// returning only hits not yet delivered. Traffic accumulates across
/// re-executions (conservative: index peers are assumed stateless
/// between fetches, so each deepening pays the pipeline again).
class SearchSession {
 public:
  /// `engine` is a lightweight handle (it references the index, which
  /// must outlive the session).
  SearchSession(SearchEngine engine, std::vector<TermId> terms,
                SearchPolicy initial_policy);

  /// New hits, in pagerank order, that earlier fetches did not deliver.
  /// Empty when the result set is exhausted.
  std::vector<NodeId> fetch_more();

  /// All hits delivered so far, in delivery order.
  [[nodiscard]] const std::vector<NodeId>& delivered() const {
    return delivered_;
  }
  /// Cumulative document ids moved across all fetches.
  [[nodiscard]] std::uint64_t total_ids_transferred() const {
    return total_ids_;
  }
  /// True once a fetch at forward_fraction == 1 has run: nothing more
  /// can ever arrive.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

 private:
  SearchEngine engine_;
  std::vector<TermId> terms_;
  SearchPolicy policy_;
  std::vector<NodeId> delivered_;
  std::uint64_t total_ids_ = 0;
  bool exhausted_ = false;
};

}  // namespace dprank
