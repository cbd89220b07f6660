#include "search/incremental_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
  // A term beyond the vocabulary has no bitmap to read.
  for (const TermId t : terms) {
    if (t >= index_.num_terms()) {
      throw std::invalid_argument("SearchEngine::run_query: term " +
                                  std::to_string(t) +
                                  " beyond the vocabulary");
    }
  }
  QueryOutcome out;
  // The holder's hit set has `held` ids in rank order, and `hits` holds
  // the top of it that the next hop forwards: the first term's list read
  // from the index's one rank order, then what each hop kept. Every list
  // shares that order, so keeping the forwarded ids that the next term
  // holds, in forwarded order, is the intersection in the next list's
  // order.
  std::vector<NodeId>& hits = out.hits;
  std::size_t held = index_.term_size(terms[0]);
  index_.top_postings(
      terms[0], terms.size() > 1 ? forward_count(held, policy) : held, hits);
  PeerId holder = index_.peer_of_term(terms[0]);

  for (std::size_t i = 1; i < terms.size(); ++i) {
    const PeerId next_peer = index_.peer_of_term(terms[i]);
    const bool free_hop =
        policy.free_same_peer_hops && next_peer == holder;
    hits.resize(forward_count(held, policy));
    out.forwarded_per_hop.push_back(static_cast<std::uint32_t>(hits.size()));
    if (tracer_ != nullptr) {
      tracer_->instant("search.forward", "search", next_peer,
                       {{"hop", static_cast<double>(i)},
                        {"forwarded", static_cast<double>(hits.size())}});
    }

    if (policy.bloom_prefilter) {
      // Coordinator keeps the working set; it ships a Bloom filter of the
      // (filtered) set, the term peer replies with matching candidate
      // ids, and exact intersection locally removes false positives.
      BloomFilter filter(hits.size(), policy.bloom_bits_per_item);
      for (const NodeId d : hits) filter.insert(d);
      std::uint64_t candidates = 0;
      for (const NodeId d : index_.members(terms[i])) {
        if (filter.possibly_contains(d)) ++candidates;
      }
      if (!free_hop) {
        const std::uint64_t filter_ids =
            (filter.byte_count() + policy.bytes_per_doc_id - 1) /
            policy.bytes_per_doc_id;
        out.ids_transferred += filter_ids + candidates;
        out.wire_bytes +=
            filter.byte_count() + candidates * policy.bytes_per_doc_id;
      }
      // holder unchanged: the coordinator retains the working set.
    } else {
      if (!free_hop) {
        out.ids_transferred += hits.size();
        out.wire_bytes += hits.size() * policy.bytes_per_doc_id;
      }
      holder = next_peer;
    }
    index_.keep_members(terms[i], hits);
    held = hits.size();
  }

  // Final transfer of the surviving hits back to the querying user.
  out.ids_transferred += hits.size();
  out.wire_bytes += hits.size() * policy.bytes_per_doc_id;

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
