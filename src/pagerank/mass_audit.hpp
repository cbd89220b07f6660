#pragma once

// Rank-mass conservation audit (extension).
//
// The chaotic iteration (§2.3) is self-stabilizing only if every emitted
// contribution eventually lands in its destination cell: the fixed point
// is defined by "cell(u->v) == R(u)/outdeg(u) for the freshest emission".
// Graceful churn preserves this (the §3.1 outbox buffers every undelivered
// value), but crash faults and unacked lossy delivery can *leak* rank
// mass: a contribution that was emitted but exists nowhere — not applied,
// not parked, not in flight — leaves the destination permanently stale.
//
// MassAuditor is the ledger that makes such leaks observable and
// repairable. It records, per out-edge, the freshest contribution the
// sender emitted (`expected`). An audit compares that against the
// *effective* value the system still holds for the edge (the applied cell,
// or the parked outbox value). The accounted fraction
//
//     mass_ratio = 1 - sum|expected - effective| / sum|expected|
//
// equals 1.0 exactly when no emission was lost; the distributed engine
// re-injects the missing contributions (proportional repair: exactly the
// leaked values are re-sent) whenever the audit finds leaks beyond the
// tolerance, so the iteration converges to the no-fault fixed point even
// under crash pressure. Conceptually the ledger is the union of sender
// outbox state — in a deployment each peer audits its own out-edges and
// the global ratio is a gossip aggregate; the simulator computes it
// directly.

#include <cmath>
#include <concepts>
#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace dprank {

struct MassAuditReport {
  double emitted_total = 0.0;    // sum of |expected| over all edges
  double leaked = 0.0;           // sum of |expected - effective| over leaks
  double mass_ratio = 1.0;       // 1 - leaked / emitted_total
  std::uint64_t leaking_edges = 0;
  [[nodiscard]] bool conserved(double tolerance) const {
    return mass_ratio >= 1.0 - tolerance && mass_ratio <= 1.0 + tolerance;
  }
};

class MassAuditor {
 public:
  /// The ledger starts from the engine's start state: every edge u->v
  /// carries start_ranks[u] / outdeg(u) (a cold start fills the vector
  /// with initial_rank). Throws std::invalid_argument unless the vector
  /// covers the documents.
  MassAuditor(const Digraph& g, const std::vector<double>& start_ranks);

  /// The sender refreshed its contribution on edge `e` (an emission, a
  /// recovery re-request response, or a repair re-send).
  void on_emit(EdgeId e, double value) { expected_[e] = value; }

  [[nodiscard]] double expected(EdgeId e) const { return expected_[e]; }
  [[nodiscard]] std::uint64_t num_edges() const { return expected_.size(); }
  /// Bytes held by the ledger (capacity).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(expected_.capacity()) * sizeof(double);
  }

  /// A known, attributable loss (crash wipe, outbox eviction, unacked
  /// drop): cheap per-pass signal, tracked without scanning.
  void on_known_loss(double amount) {
    known_lost_ += amount < 0 ? -amount : amount;
    ++known_loss_events_;
  }
  [[nodiscard]] double known_lost() const { return known_lost_; }
  [[nodiscard]] std::uint64_t known_loss_events() const {
    return known_loss_events_;
  }

  /// Full O(E) audit, in edge order: `effective(e)` is the value the
  /// system currently retains for edge e (applied cell, or the parked
  /// pending value for edges waiting in an outbox), read as the sweep
  /// goes. `slack` absorbs floating-point copy noise; values are copied
  /// verbatim through the engine, so the default is effectively exact.
  template <typename Effective>
    requires std::invocable<const Effective&, EdgeId>
  [[nodiscard]] MassAuditReport audit(const Effective& effective,
                                      double slack = 1e-12) const {
    MassAuditReport report;
    for (EdgeId e = 0; e < expected_.size(); ++e) {
      report.emitted_total += std::abs(expected_[e]);
      const double diff = std::abs(expected_[e] - effective(e));
      if (diff > slack) {
        report.leaked += diff;
        ++report.leaking_edges;
      }
    }
    report.mass_ratio = report.emitted_total > 0.0
                            ? 1.0 - report.leaked / report.emitted_total
                            : 1.0;
    return report;
  }

  /// Edge ids whose effective value deviates from the ledger by more than
  /// `slack` — the re-injection work list, in edge order.
  template <typename Effective>
    requires std::invocable<const Effective&, EdgeId>
  [[nodiscard]] std::vector<EdgeId> leaking_edges(const Effective& effective,
                                                  double slack = 1e-12) const {
    std::vector<EdgeId> leaks;
    for (EdgeId e = 0; e < expected_.size(); ++e) {
      if (std::abs(expected_[e] - effective(e)) > slack) leaks.push_back(e);
    }
    return leaks;
  }

 private:
  std::vector<double> expected_;
  double known_lost_ = 0.0;
  std::uint64_t known_loss_events_ = 0;
};

}  // namespace dprank
