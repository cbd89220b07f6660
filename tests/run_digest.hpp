#pragma once

// FNV-1a digests for the golden-digest tests. One 64-bit value pins a
// whole run bit for bit: ranks, pass history, traffic ledger, and (in
// the full variant) every fault, replica, membership and audit counter
// the engine exposes. Trace streams get their own digest, because their
// event order is part of the contract too.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "obs/trace.hpp"
#include "pagerank/distributed_engine.hpp"

namespace dprank {

/// FNV-1a over raw bytes.
class Fnv {
 public:
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void mix_value(const T& v) {
    mix(&v, sizeof(v));
  }
  void mix_string(const char* s) { mix(s, std::strlen(s) + 1); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// The fifo compatibility observables: pass count, convergence, ranks,
/// the original PassStats fields, the traffic ledger and the outbox peak.
/// The fifo golden constants are recorded over exactly these bytes.
inline void mix_core(Fnv& f, const DistributedPagerank& engine,
                     const DistributedRunResult& run) {
  f.mix_value(run.passes);
  f.mix_value(run.converged);
  f.mix(engine.ranks().data(), engine.ranks().size() * sizeof(double));
  for (const PassStats& s : engine.pass_history()) {
    f.mix_value(s.pass);
    f.mix_value(s.docs_recomputed);
    f.mix_value(s.messages_sent);
    f.mix_value(s.messages_deferred);
    f.mix_value(s.messages_delivered_late);
    f.mix_value(s.local_updates);
    f.mix_value(s.max_peer_messages);
    f.mix_value(s.max_rel_change);
  }
  const TrafficMeter& t = engine.traffic();
  f.mix_value(t.messages());
  f.mix_value(t.local_updates());
  f.mix_value(t.bytes());
  f.mix_value(t.resends());
  f.mix_value(t.hop_transmissions());
  f.mix_value(engine.outbox_peak());
}

[[nodiscard]] inline std::uint64_t digest_core(
    const DistributedPagerank& engine, const DistributedRunResult& run) {
  Fnv f;
  mix_core(f, engine, run);
  return f.value();
}

/// The engine's run totals: every fault, replica, membership and audit
/// counter it exposes.
inline void mix_counters(Fnv& f, const DistributedPagerank& engine) {
  for (const std::uint64_t c :
       {engine.replica_messages(), engine.replica_stale_skips(),
        engine.dropped_messages(), engine.duplicated_messages(),
        engine.crashes(), engine.recovered_docs(), engine.replica_restores(),
        engine.recovery_messages(), engine.repair_messages(),
        engine.partition_deferrals(), engine.retransmissions(),
        engine.stale_rejected(), engine.duplicates_suppressed(),
        engine.gave_up(), engine.handoff_docs(),
        engine.stale_owner_queries(), engine.outbox_dropped_dead()}) {
    f.mix_value(c);
  }
}

/// digest_core plus the scheduler, fault, replica, membership and audit
/// observables, for runs with something attached.
[[nodiscard]] inline std::uint64_t digest_full(
    const DistributedPagerank& engine, const DistributedRunResult& run) {
  Fnv f;
  mix_core(f, engine, run);
  f.mix_value(run.mass_ratio);
  f.mix_value(run.repair_rounds);
  for (const PassStats& s : engine.pass_history()) {
    f.mix_value(s.crashes);
    f.mix_value(s.recovered_docs);
    f.mix_value(s.retransmissions);
    f.mix_value(s.repair_messages);
    f.mix_value(s.docs_deferred);
    f.mix_value(s.handoff_docs);
    f.mix_value(s.stale_owner_queries);
  }
  mix_counters(f, engine);
  return f.value();
}

/// Every recorded trace event in order: phase, name, category, peer,
/// journey id, simulated timestamps and arguments.
[[nodiscard]] inline std::uint64_t digest_trace(const obs::Tracer& tracer) {
  Fnv f;
  f.mix_value(tracer.minted_traces());
  f.mix_value(tracer.dropped_events());
  for (const obs::TraceEvent& ev : tracer.events()) {
    f.mix_value(ev.phase);
    f.mix_string(ev.name);
    f.mix_string(ev.category);
    f.mix_value(ev.pid);
    f.mix_value(ev.id);
    f.mix_value(ev.ts_us);
    f.mix_value(ev.dur_us);
    for (std::uint8_t i = 0; i < ev.num_args; ++i) {
      f.mix_string(ev.args[i].first);
      f.mix_value(ev.args[i].second);
    }
  }
  return f.value();
}

}  // namespace dprank
