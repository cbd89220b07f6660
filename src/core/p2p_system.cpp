#include "core/p2p_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/message.hpp"
#include "pagerank/distributed_engine.hpp"

namespace dprank {

P2PSystem::P2PSystem(const Digraph& initial_graph, const Corpus& corpus,
                     const P2PSystemConfig& config)
    : config_(config),
      graph_(initial_graph),
      ring_(config.num_peers),
      placement_(Placement::random(initial_graph.num_nodes(),
                                   config.num_peers, config.seed)),
      live_(initial_graph.num_nodes(), true),
      ranks_(initial_graph.num_nodes(), 0.0),
      prior_ranks_(ranks_),
      engine_(graph_, ranks_, config.pagerank, &placement_),
      index_(corpus, ring_),
      rng_(config.seed ^ 0x5157E0ULL) {
  if (corpus.num_docs() != initial_graph.num_nodes()) {
    throw std::invalid_argument(
        "P2PSystem: corpus and link graph must cover the same documents");
  }
  terms_.reserve(corpus.num_docs());
  for (NodeId d = 0; d < corpus.num_docs(); ++d) {
    terms_.push_back(corpus.terms_of(d));
  }
}

std::uint64_t P2PSystem::converge() {
  const Digraph snapshot = graph_.freeze();
  DistributedPagerank engine(snapshot, placement_, config_.pagerank);
  const auto run = engine.run();
  if (!run.converged) {
    throw std::runtime_error("P2PSystem::converge: engine hit pass cap");
  }
  ranks_ = engine.ranks();
  for (NodeId d = 0; d < graph_.num_nodes(); ++d) {
    if (!live_[d]) ranks_[d] = 0.0;
  }
  prior_ranks_ = ranks_;
  meter_.merge(engine.traffic());

  std::vector<PeerId> owners(graph_.num_nodes());
  for (NodeId d = 0; d < graph_.num_nodes(); ++d) {
    owners[d] = placement_.peer_of(d);
  }
  index_.publish_ranks(ranks_, owners, &meter_);
  converged_ = true;
  return run.passes;
}

NodeId P2PSystem::add_document(const std::vector<TermId>& doc_terms,
                               const std::vector<NodeId>& out_links) {
  if (!converged_) {
    throw std::logic_error("P2PSystem::add_document before converge()");
  }
  for (const NodeId v : out_links) {
    if (v >= graph_.num_nodes() || !live_[v]) {
      throw std::invalid_argument(
          "P2PSystem::add_document: out-link to missing document");
    }
  }
  // A document's terms are a set: a repeated term would post the
  // document twice under it and break the postings/terms agreement.
  std::vector<TermId> distinct = doc_terms;
  std::sort(distinct.begin(), distinct.end());
  if (std::adjacent_find(distinct.begin(), distinct.end()) != distinct.end()) {
    throw std::invalid_argument("P2PSystem::add_document: repeated term");
  }
  if (!distinct.empty() && distinct.back() >= vocabulary()) {
    throw std::invalid_argument(
        "P2PSystem::add_document: term " + std::to_string(distinct.back()) +
        " beyond the vocabulary of " + std::to_string(vocabulary()));
  }
  const NodeId id = graph_.add_document(out_links);
  placement_.add_document(
      id, static_cast<PeerId>(rng_.bounded(config_.num_peers)));
  terms_.push_back(doc_terms);
  live_.push_back(true);
  ranks_.push_back(config_.pagerank.initial_rank);

  // §3.1: seed with the initial constant, send updates to out-links,
  // then reconverge the new document itself (no in-links => rank 1-d).
  std::vector<NodeId> touched;
  const auto stats = engine_.integrate_insert(id, &touched);
  meter_.record_messages(stats.cross_peer_messages,
                         PagerankUpdate::kWireBytes);

  index_.post_document(id, doc_terms, ranks_[id], placement_.peer_of(id),
                       &meter_);
  refresh_index(std::move(touched));
  return id;
}

void P2PSystem::remove_document(NodeId doc) {
  if (!converged_) {
    throw std::logic_error("P2PSystem::remove_document before converge()");
  }
  if (doc >= graph_.num_nodes() || !live_[doc]) {
    throw std::invalid_argument("P2PSystem::remove_document: not live");
  }
  const auto stats = engine_.propagate_delete(doc);
  meter_.record_messages(stats.cross_peer_messages,
                         PagerankUpdate::kWireBytes);
  std::vector<NodeId> touched = engine_.last_touched();

  graph_.isolate_node(doc);
  ranks_[doc] = 0.0;
  live_[doc] = false;
  index_.remove_document(doc, terms_[doc], placement_.peer_of(doc),
                         &meter_);
  terms_[doc].clear();
  refresh_index(std::move(touched));
}

QueryOutcome P2PSystem::search(const std::vector<TermId>& query_terms,
                               const SearchPolicy& policy) const {
  const SearchEngine engine(index_);
  return engine.run_query(query_terms, policy);
}

SearchSession P2PSystem::begin_search(std::vector<TermId> query_terms,
                                      SearchPolicy policy) const {
  return SearchSession(SearchEngine(index_), std::move(query_terms), policy);
}

std::vector<std::string> P2PSystem::validate() const {
  std::vector<std::string> issues;
  auto complain = [&](std::string msg) { issues.push_back(std::move(msg)); };

  const NodeId n = graph_.num_nodes();
  if (placement_.num_docs() != n || live_.size() != n ||
      ranks_.size() != n || prior_ranks_.size() != n || terms_.size() != n) {
    complain("container sizes disagree with the graph");
    return issues;  // everything below would index out of bounds
  }

  const double floor_rank = 1.0 - config_.pagerank.damping;
  for (NodeId d = 0; d < n; ++d) {
    if (prior_ranks_[d] != ranks_[d]) {
      complain("doc " + std::to_string(d) + " has rank " +
               std::to_string(ranks_[d]) + " but the last write left " +
               std::to_string(prior_ranks_[d]));
    }
    if (live_[d]) {
      if (converged_ && ranks_[d] < floor_rank * 0.5) {
        complain("live doc " + std::to_string(d) + " has rank " +
                 std::to_string(ranks_[d]) + " below the teleport floor");
      }
    } else {
      if (ranks_[d] != 0.0) {
        complain("dead doc " + std::to_string(d) + " has nonzero rank");
      }
      if (!graph_.is_isolated(d)) {
        complain("dead doc " + std::to_string(d) + " still has links");
      }
      if (!terms_[d].empty()) {
        complain("dead doc " + std::to_string(d) + " still has terms");
      }
    }
  }

  // The index's own invariants, then its agreement with liveness and
  // terms.
  for (const std::string& issue : index_.validate()) {
    complain("index: " + issue);
  }
  std::vector<std::uint64_t> postings_per_doc(n, 0);
  for (TermId t = 0; t < index_.num_terms(); ++t) {
    for (const NodeId d : index_.members(t)) {
      if (d >= n) {
        complain("posting for unknown doc " + std::to_string(d));
        continue;
      }
      if (!live_[d]) {
        complain("dead doc " + std::to_string(d) +
                 " still posted under term " + std::to_string(t));
      }
      ++postings_per_doc[d];
    }
  }
  for (NodeId d = 0; d < n; ++d) {
    if (live_[d] && postings_per_doc[d] != terms_[d].size()) {
      complain("doc " + std::to_string(d) + " has " +
               std::to_string(postings_per_doc[d]) + " postings but " +
               std::to_string(terms_[d].size()) + " terms");
    }
  }
  return issues;
}

void P2PSystem::refresh_index(std::vector<NodeId> touched) {
  // An insert's cascades may each touch the same document: update it
  // once.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const NodeId v : touched) {
    if (v >= prior_ranks_.size()) continue;  // the new document: posted
    if (live_[v] && relative_change(prior_ranks_[v], ranks_[v]) >
                        config_.index_refresh_threshold) {
      index_.update_rank(v, terms_[v], ranks_[v], placement_.peer_of(v),
                         &meter_);
    }
    prior_ranks_[v] = ranks_[v];
  }
  // A document the write added joins at its rank.
  prior_ranks_.insert(prior_ranks_.end(),
                      ranks_.begin() + static_cast<std::ptrdiff_t>(
                                           prior_ranks_.size()),
                      ranks_.end());
}

}  // namespace dprank
