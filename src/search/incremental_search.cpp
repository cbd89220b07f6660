#include "search/incremental_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "search/bloom.hpp"

namespace dprank {

namespace {

/// How many of `n` rank-sorted hits the policy forwards: the top x%, or
/// all of them under the paper's min-20 escape hatch.
std::size_t forward_count(std::size_t n, const SearchPolicy& policy) {
  if (policy.forward_fraction >= 1.0) return n;
  const auto want = static_cast<std::size_t>(
      std::ceil(policy.forward_fraction * static_cast<double>(n)));
  if (want < policy.min_forward) return n;  // forward everything
  return want;
}

/// Intersect `incoming` with `local`, preserving local's rank order.
/// `marked` is a per-document array, all zero on entry and on return.
std::vector<NodeId> intersect(std::span<const NodeId> incoming,
                              std::span<const NodeId> local,
                              std::vector<std::uint8_t>& marked) {
  for (const NodeId d : incoming) marked[d] = 1;
  std::vector<NodeId> out;
  out.reserve(std::min(incoming.size(), local.size()));
  for (const NodeId d : local) {
    if (marked[d] != 0) out.push_back(d);
  }
  for (const NodeId d : incoming) marked[d] = 0;
  return out;
}

}  // namespace

QueryOutcome SearchEngine::run_query(const std::vector<TermId>& terms,
                                     const SearchPolicy& policy) const {
  if (terms.empty()) {
    throw std::invalid_argument("SearchEngine::run_query: no terms");
  }
  // Rejects NaN too: a negative share of the hits has no meaning.
  if (!(policy.forward_fraction >= 0.0)) {
    throw std::invalid_argument(
        "SearchEngine::run_query: forward_fraction must be >= 0, got " +
        std::to_string(policy.forward_fraction));
  }
  QueryOutcome out;
  // The first hop forwards straight from the index's list; each later
  // hop from the intersection the previous one left in `working`.
  std::span<const NodeId> current = index_.postings(terms[0]);
  std::vector<NodeId> working;
  std::vector<std::uint8_t> marked(terms.size() > 1 ? index_.doc_bound() : 0);
  PeerId holder = index_.peer_of_term(terms[0]);

  for (std::size_t i = 1; i < terms.size(); ++i) {
    const PeerId next_peer = index_.peer_of_term(terms[i]);
    const bool free_hop =
        policy.free_same_peer_hops && next_peer == holder;
    const std::span<const NodeId> forwarded =
        current.first(forward_count(current.size(), policy));
    out.forwarded_per_hop.push_back(
        static_cast<std::uint32_t>(forwarded.size()));
    if (tracer_ != nullptr) {
      tracer_->instant("search.forward", "search", next_peer,
                       {{"hop", static_cast<double>(i)},
                        {"forwarded", static_cast<double>(forwarded.size())}});
    }

    if (policy.bloom_prefilter) {
      // Coordinator keeps the working set; it ships a Bloom filter of the
      // (filtered) set, the term peer replies with matching candidate
      // ids, and exact intersection locally removes false positives.
      BloomFilter filter(forwarded.size(), policy.bloom_bits_per_item);
      for (const NodeId d : forwarded) filter.insert(d);
      std::vector<NodeId> candidates;
      for (const NodeId d : index_.postings(terms[i])) {
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
      working = intersect(candidates, forwarded, marked);
      // holder unchanged: the coordinator retains the working set.
    } else {
      if (!free_hop) {
        out.ids_transferred += forwarded.size();
        out.wire_bytes += forwarded.size() * policy.bytes_per_doc_id;
      }
      working = intersect(forwarded, index_.postings(terms[i]), marked);
      holder = next_peer;
    }
    current = working;
  }

  // Final transfer of the surviving hits back to the querying user.
  out.ids_transferred += current.size();
  out.wire_bytes += current.size() * policy.bytes_per_doc_id;
  out.hits.assign(current.begin(), current.end());

  if (metrics_ != nullptr) {
    metrics_->counter("search.queries").add(1);
    metrics_->counter("search.ids_transferred").add(out.ids_transferred);
    metrics_->counter("search.wire_bytes").add(out.wire_bytes);
    obs::Histogram& fanout = metrics_->histogram("search.query.fanout");
    for (const std::uint32_t f : out.forwarded_per_hop) {
      fanout.record(static_cast<double>(f));
    }
    metrics_->histogram("search.query.hits")
        .record(static_cast<double>(out.hits.size()));
  }
  if (tracer_ != nullptr) {
    tracer_->complete(
        "search.query", "search", index_.peer_of_term(terms[0]),
        static_cast<double>(terms.size()),
        {{"terms", static_cast<double>(terms.size())},
         {"hits", static_cast<double>(out.hits.size())},
         {"ids", static_cast<double>(out.ids_transferred)}});
  }
  return out;
}

SearchSession::SearchSession(SearchEngine engine, std::vector<TermId> terms,
                             SearchPolicy initial_policy)
    : engine_(engine), terms_(std::move(terms)), policy_(initial_policy) {
  if (terms_.empty()) {
    throw std::invalid_argument("SearchSession: no terms");
  }
  policy_.forward_fraction =
      std::clamp(policy_.forward_fraction, 1e-6, 1.0);
}

std::vector<NodeId> SearchSession::fetch_more() {
  if (exhausted_) return {};
  const auto outcome = engine_.run_query(terms_, policy_);
  total_ids_ += outcome.ids_transferred;
  if (policy_.forward_fraction >= 1.0) exhausted_ = true;
  policy_.forward_fraction = std::min(1.0, policy_.forward_fraction * 2.0);

  std::unordered_set<NodeId> seen(delivered_.begin(), delivered_.end());
  std::vector<NodeId> fresh;
  for (const NodeId d : outcome.hits) {
    if (!seen.contains(d)) fresh.push_back(d);
  }
  delivered_.insert(delivered_.end(), fresh.begin(), fresh.end());
  return fresh;
}

}  // namespace dprank
