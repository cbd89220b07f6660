#pragma once

// Seeded streaming-event source (ROADMAP item 1; §3.1/§4.7 as a live
// workload).
//
// The paper measures document insert/delete as one-shot probes against a
// converged system. A real P2P deployment sees them as a *stream*: docs
// appear, age, gain and lose links, and vanish while queries are being
// served. StreamSource synthesizes that stream deterministically — the
// whole event sequence is a pure function of the config (seed included),
// so every experiment replays bit-identically and a same-seed double run
// is the determinism contract the stream bench gates on.
//
// Attachment is Zipf-ish over document age (low live-slot index = old
// document), the discrete stand-in for preferential attachment: old,
// well-linked documents keep collecting links, matching the power-law
// degree evidence the paper's generator (§4.1) builds on. Deletions are
// uniform over the live population, with a floor that rerolls deletes
// into inserts so the stream can never empty the corpus.
//
// Events carry everything needed to apply them WITHOUT consulting the
// source again:
//  * kInsert names the id the document WILL get (the next MutableDigraph
//    node id — inserts are the only events that allocate ids, so the
//    source can predict them) plus its out-links;
//  * kRemoveEdge names the source document and an ordinal resolved
//    against the live, strictly ascending out-list at apply time
//    (ordinal % outdeg) — the source does not track edges, but
//    structural application order is identical across batch sizes, so
//    the resolution is deterministic;
//  * kAddEdge may duplicate an existing edge and kRemoveEdge may land on
//    an empty out-list; appliers treat both as no-ops.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "graph/digraph.hpp"

namespace dprank {

struct StreamEvent {
  enum class Kind : std::uint8_t { kInsert, kDelete, kAddEdge, kRemoveEdge };

  Kind kind = Kind::kInsert;
  /// 0-based position in the stream.
  std::uint64_t seq = 0;
  /// Arrival time in microseconds: seq / events_per_sec.
  std::uint64_t timestamp_us = 0;
  /// kInsert: the id the document will be assigned; kDelete: the victim;
  /// kAddEdge/kRemoveEdge: the source document.
  NodeId node = 0;
  /// kAddEdge only: the destination document.
  NodeId target = 0;
  /// kRemoveEdge only: out-slot selector, resolved as ordinal % outdeg
  /// against the source's ascending out-list at apply time.
  std::uint32_t ordinal = 0;
  /// kInsert only: out-links of the new document (live at emission time).
  std::vector<NodeId> out_links;

  [[nodiscard]] bool operator==(const StreamEvent&) const = default;
};

struct StreamSourceConfig {
  /// Documents alive before the stream starts (ids 0..initial_docs-1).
  NodeId initial_docs = 0;
  /// Upper bound on events this source will emit; sizes the Zipf table.
  std::uint64_t max_events = 10'000;
  std::uint64_t seed = 42;
  /// Offered ingest rate; only affects timestamps, never event content.
  double events_per_sec = 1000.0;
  /// Zipf skew of the age-attachment distribution.
  double zipf_s = 0.9;

  // Event-kind mix (relative weights).
  std::uint32_t insert_weight = 3;
  std::uint32_t delete_weight = 1;
  std::uint32_t add_edge_weight = 4;
  std::uint32_t remove_edge_weight = 1;

  /// Deletes reroll into inserts at or below this live population.
  NodeId min_live_docs = 2;
  /// Inserted documents carry 1..max_out_links out-links.
  std::uint32_t max_out_links = 4;
};

class StreamSource {
 public:
  /// Throws std::invalid_argument when the weights are all zero or the
  /// initial corpus is smaller than min_live_docs (or than 2).
  explicit StreamSource(const StreamSourceConfig& config);

  /// Generate the next event. Deterministic: two sources built from
  /// equal configs emit equal sequences.
  StreamEvent next();

  /// Convenience: the next n events.
  [[nodiscard]] std::vector<StreamEvent> take(std::uint64_t n);

  [[nodiscard]] std::uint64_t emitted() const { return seq_; }
  [[nodiscard]] NodeId live_docs() const {
    return static_cast<NodeId>(live_.size());
  }
  /// Id the next insert will assign.
  [[nodiscard]] NodeId next_id() const { return next_id_; }

 private:
  /// Zipf-by-age sample from the live population.
  [[nodiscard]] NodeId sample_live();

  StreamSourceConfig config_;
  Rng rng_;
  ZipfSampler zipf_;
  /// Live documents in insertion-age order (index 0 = oldest).
  std::vector<NodeId> live_;
  std::uint64_t seq_ = 0;
  NodeId next_id_ = 0;
};

}  // namespace dprank
