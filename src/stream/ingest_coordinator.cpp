#include "stream/ingest_coordinator.hpp"

#include <chrono>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "pagerank/quality.hpp"

namespace dprank {

namespace {
// Per-cycle salt for the reconvergence campaign seeds ("RCNV"): cycle k
// of two same-config runs draws the same campaign, different cycles draw
// independent membership histories.
constexpr std::uint64_t kReconvergeSalt = 0x52434E56ULL;
}  // namespace

bool apply_structural_event(MutableDigraph& g,
                            std::vector<std::uint8_t>& deleted,
                            const StreamEvent& ev,
                            const StreamSourceHook& touch) {
  switch (ev.kind) {
    case StreamEvent::Kind::kInsert: {
      if (ev.node != g.num_nodes()) {
        throw std::invalid_argument(
            "apply_structural_event: insert id out of sequence (graph did "
            "not start from the stream's initial_docs)");
      }
      const NodeId id = g.add_node();
      deleted.push_back(0);
      if (touch) touch(id);
      for (const NodeId w : ev.out_links) {
        // Targets were live at emission time, but an earlier delete in
        // the same batch may have tombstoned one — skip links into it.
        if (w < id && deleted[w] == 0) g.add_edge(id, w);
      }
      return true;
    }
    case StreamEvent::Kind::kDelete: {
      const NodeId v = ev.node;
      if (v >= g.num_nodes() || deleted[v] != 0) return false;
      if (touch) {
        touch(v);
        for (const NodeId u : g.in_neighbors(v)) touch(u);
      }
      g.isolate_node(v);
      deleted[v] = 1;
      return true;
    }
    case StreamEvent::Kind::kAddEdge: {
      const NodeId u = ev.node;
      const NodeId v = ev.target;
      if (u >= g.num_nodes() || v >= g.num_nodes() || u == v) return false;
      if (deleted[u] != 0 || deleted[v] != 0) return false;
      if (g.has_edge(u, v)) return false;
      if (touch) touch(u);
      g.add_edge(u, v);
      return true;
    }
    case StreamEvent::Kind::kRemoveEdge: {
      const NodeId u = ev.node;
      if (u >= g.num_nodes() || deleted[u] != 0) return false;
      const std::uint32_t deg = g.out_degree(u);
      if (deg == 0) return false;
      const NodeId w = g.out_neighbors(u)[ev.ordinal % deg];
      if (touch) touch(u);
      g.remove_edge(u, w);
      return true;
    }
  }
  return false;
}

IngestCoordinator::IngestCoordinator(MutableDigraph graph,
                                     std::vector<double> ranks,
                                     IngestConfig config,
                                     obs::MetricsRegistry* metrics)
    : graph_(std::move(graph)),
      ranks_(std::move(ranks)),
      config_(std::move(config)),
      metrics_(metrics),
      engine_(graph_, ranks_, config_.options) {  // refuses a size mismatch
  if (config_.batch_size == 0) {
    throw std::invalid_argument("IngestCoordinator: zero batch_size");
  }
  warm_ranks_ = ranks_;
  deleted_.assign(graph_.num_nodes(), 0);
  snap_epoch_.assign(graph_.num_nodes(), 0);
  pending_.reserve(config_.batch_size);
}

void IngestCoordinator::snapshot_source(NodeId u,
                                        std::vector<SourceSnapshot>& snaps) {
  // An insert allocated the id a moment ago: grow the parallel arrays
  // (rank 0 until the post-mutation assignment; tombstone flag is grown
  // by apply_structural_event itself).
  if (ranks_.size() < graph_.num_nodes()) {
    ranks_.resize(graph_.num_nodes(), 0.0);
    snap_epoch_.resize(graph_.num_nodes(), 0);
  }
  if (snap_epoch_[u] == batch_epoch_) return;  // first touch only
  snap_epoch_[u] = batch_epoch_;
  SourceSnapshot s;
  s.node = u;
  s.rank = ranks_[u];
  s.outs = graph_.out_neighbors(u);
  snaps.push_back(std::move(s));
}

IngestBatchStats IngestCoordinator::flush() {
  IngestBatchStats out;
  if (pending_.empty()) return out;
  // Telemetry measuring the harness, not the simulation: no control flow
  // depends on the reading.
  // dprank-analyze: allow(nondet-source) -- measures the harness only
  const auto t0 = std::chrono::steady_clock::now();

  ++batch_epoch_;
  std::vector<SourceSnapshot> snaps;
  std::vector<NodeId> inserted;
  std::vector<NodeId> deleted_now;
  const auto touch = [this, &snaps](NodeId u) { snapshot_source(u, snaps); };

  // Tier 1: structure, in stream order (identical across batch sizes).
  for (const StreamEvent& ev : pending_) {
    const bool applied = apply_structural_event(graph_, deleted_, ev, touch);
    if (!applied) continue;
    if (ev.kind == StreamEvent::Kind::kInsert) inserted.push_back(ev.node);
    if (ev.kind == StreamEvent::Kind::kDelete) deleted_now.push_back(ev.node);
  }

  // Rank assignments outside the cascade: an inserted document enters at
  // its no-in-link fixed point (1-d) — in-links gained later in the same
  // batch arrive through the emission diff of their sources — and a
  // deleted document carries no rank from the instant it is isolated.
  const double d = config_.options.damping;
  for (const NodeId id : inserted) {
    if (deleted_[id] == 0) ranks_[id] = 1.0 - d;
  }
  for (const NodeId v : deleted_now) ranks_[v] = 0.0;

  // Tier 2: fold the batch into one emission diff. Old emissions use the
  // snapshotted (pre-batch) rank and out-list; new emissions use the
  // current ones. Per-target sums coalesce naturally in inject_batch.
  std::vector<std::pair<NodeId, double>> deltas;
  for (const SourceSnapshot& s : snaps) {
    if (!s.outs.empty() && s.rank != 0.0) {
      const double per =
          d * s.rank / static_cast<double>(s.outs.size());
      for (const NodeId w : s.outs) {
        if (deleted_[w] == 0) deltas.emplace_back(w, -per);
      }
    }
    const std::vector<NodeId>& outs = graph_.out_neighbors(s.node);
    if (!outs.empty() && ranks_[s.node] != 0.0) {
      const double per =
          d * ranks_[s.node] / static_cast<double>(outs.size());
      for (const NodeId w : outs) {
        if (deleted_[w] == 0) deltas.emplace_back(w, per);
      }
    }
  }

  out.events = pending_.size();
  // The cascade walks the live graph.
  out.cascade = engine_.inject_batch(deltas);

  // The engine's covered markers keep the list free of duplicates: the
  // cascade's documents in delivery order, then the inserts and deletes
  // it did not reach.
  for (const NodeId id : inserted) engine_.touch_seed(id);
  for (const NodeId v : deleted_now) engine_.touch_seed(v);
  last_batch_touched_ = engine_.last_touched();

  events_applied_ += pending_.size();
  pending_.clear();
  ++version_;

  // Contract coverage for the live graph: until this sweep existed, no
  // src-side walk ever reached MutableDigraph::validate() — a corrupted
  // adjacency mirror would have served wrong ranks until the next full
  // reconvergence.
  if (contracts::enabled() && config_.sweep_every_batches != 0 &&
      ++batches_since_sweep_ >= config_.sweep_every_batches) {
    batches_since_sweep_ = 0;
    validate();
    if (metrics_ != nullptr) metrics_->counter("stream.contract_sweeps").add();
  }

  // dprank-analyze: allow(nondet-source) -- measures the harness only
  const auto t1 = std::chrono::steady_clock::now();
  out.apply_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  if (metrics_ != nullptr) {
    metrics_->histogram("stream.batch_apply_us").record(out.apply_us);
    metrics_->counter("stream.batches").add();
    metrics_->counter("stream.events_applied").add(out.events);
    metrics_->counter("stream.cascade_updates")
        .add(out.cascade.updates_delivered);
  }
  return out;
}

void IngestCoordinator::reconverge() {
  flush();
  // Telemetry measuring the harness, like flush()'s clock.
  // dprank-analyze: allow(nondet-source) -- measures the harness only
  const auto t0 = std::chrono::steady_clock::now();
  ChaosCampaignConfig cc = config_.reconverge;
  cc.options = config_.options;
  cc.seed = mix64(config_.seed ^ (kReconvergeSalt + reconverge_cycles_));
  const Digraph snapshot = graph_.freeze();
  // Warm start (see the header): documents inserted since the last mark
  // start cold.
  warm_ranks_.resize(graph_.num_nodes(), config_.options.initial_rank);
  ChaosCampaignReport rep =
      run_chaos_campaign(snapshot, cc, std::move(warm_ranks_), metrics_);
  warm_ranks_ = rep.final_ranks;
  ranks_ = std::move(rep.final_ranks);
  // The campaign ranks every node of the frozen graph; tombstones come
  // back at the isolated-node fixed point (1-d) and must stay zeroed.
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (deleted_[v] != 0) ranks_[v] = 0.0;
  }
  ++reconverge_cycles_;
  ++version_;
  last_batch_touched_.clear();  // whole vector replaced: full refresh
  if (contracts::enabled()) {
    batches_since_sweep_ = 0;
    validate();
    if (metrics_ != nullptr) metrics_->counter("stream.contract_sweeps").add();
  }
  // dprank-analyze: allow(nondet-source) -- measures the harness only
  const auto t1 = std::chrono::steady_clock::now();
  const ReconvergeStats mark{
      .events_offered = events_offered_,
      .mass_ratio = rep.result.mass_ratio,
      .passes = rep.result.passes,
      .docs_recomputed = rep.docs_recomputed,
      .messages = rep.messages,
      .wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count()};
  reconverge_history_.push_back(mark);
  if (metrics_ != nullptr) {
    const auto x = static_cast<double>(events_offered_);
    metrics_->counter("stream.reconverges").add();
    metrics_->series("stream.mass_ratio").append(x, mark.mass_ratio);
    metrics_->histogram("stream.reconverge_us").record(mark.wall_us);
    metrics_->series("stream.reconverge_passes")
        .append(x, static_cast<double>(mark.passes));
    metrics_->series("stream.reconverge_recomputes")
        .append(x, static_cast<double>(mark.docs_recomputed));
    metrics_->series("stream.reconverge_messages")
        .append(x, static_cast<double>(mark.messages));
  }
}

void IngestCoordinator::offer(const StreamEvent& ev) {
  pending_.push_back(ev);
  ++events_offered_;
  if (pending_.size() >= config_.batch_size) flush();
  if (config_.reconverge_every_events > 0 &&
      events_offered_ % config_.reconverge_every_events == 0) {
    reconverge();
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("stream.pending")
        .set(static_cast<double>(pending_.size()));
  }
}

std::vector<double> IngestCoordinator::mass_ratios() const {
  std::vector<double> ratios;
  ratios.reserve(reconverge_history_.size());
  for (const ReconvergeStats& m : reconverge_history_) {
    ratios.push_back(m.mass_ratio);
  }
  return ratios;
}

std::uint64_t IngestCoordinator::digest() const {
  return fnv1a_rank_digest(ranks_);
}

void IngestCoordinator::validate() const {
  if (!contracts::enabled()) return;
  constexpr const char* kSub = "stream";
  graph_.validate();
  DPRANK_INVARIANT(ranks_.size() == graph_.num_nodes(), kSub,
                   "rank vector out of step with the live graph");
  DPRANK_INVARIANT(deleted_.size() == graph_.num_nodes(), kSub,
                   "tombstone array out of step with the live graph");
  DPRANK_INVARIANT(snap_epoch_.size() == graph_.num_nodes(), kSub,
                   "snapshot-epoch array out of step with the live graph");
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (deleted_[v] == 0) continue;
    DPRANK_INVARIANT(ranks_[v] == 0.0, kSub,
                     "tombstoned document serves a nonzero rank");
    DPRANK_INVARIANT(graph_.out_degree(v) == 0, kSub,
                     "tombstoned document still has out-edges");
  }
}

}  // namespace dprank
