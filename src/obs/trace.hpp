#pragma once

// Span/event tracing with causal message traces.
//
// A TraceId is minted at send time and rides along with the update as it
// moves between subsystems — DHT routing hops, outbox parking, delivery
// delay, retransmission, crash loss, and final application all append
// events carrying the same id. Exported as Chrome trace_event JSON
// (obs/export.hpp) the id becomes an async-event track, so Perfetto /
// chrome://tracing renders one lane per message journey and the whole
// story of any update is reconstructable by filtering on its id.
//
// Time base: the pass simulator has no wall clock, so the tracer keeps a
// simulated-time cursor in microseconds. The engine advances it once per
// pass by the Eq. 4 estimate (sim/time_model.hpp's make_pass_clock);
// events within a pass are spaced a nanosecond apart in emission order,
// which preserves causal ordering in the viewer without inventing
// sub-pass timing the simulator never modelled.
//
// Event names and categories must be string literals (or otherwise
// outlive the tracer): events store the pointers, not copies — tracing a
// million messages must not make a million string allocations.
//
// Thread-safe: event emission takes a mutex (tracing is opt-in and the
// pass engine emits its events from one thread). Sampling:
// `sample_every = k` keeps every k-th minted trace, letting big runs
// trace a representative subset; `max_events` hard-caps memory,
// counting dropped events instead of growing.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dprank::obs {

using TraceId = std::uint64_t;
inline constexpr TraceId kNoTrace = 0;

struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  double ts_us = 0.0;
  double dur_us = 0.0;       // 'X' events only
  char phase = 'i';          // X complete, i instant, b/n/e async begin/step/end
  std::uint32_t pid = 0;     // peer id (Perfetto renders one track group per pid)
  TraceId id = kNoTrace;     // async journey id; 0 for plain events
  const char* name = "";
  const char* category = "";
  std::uint8_t num_args = 0;
  std::pair<const char*, double> args[kMaxArgs];
};

class Tracer {
 public:
  struct Config {
    std::size_t max_events = 1'000'000;
    std::uint64_t sample_every = 1;  // keep every k-th minted trace id
  };

  Tracer() = default;
  explicit Tracer(Config config) : config_(config) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Mint the id for a new message journey, or kNoTrace when the sampler
  /// skips this one (callers emit nothing for unsampled journeys).
  [[nodiscard]] TraceId begin_trace();

  /// Async-journey events: begin ('b') at send, step ('n') for each
  /// waypoint (hop, park, drop, retransmit...), end ('e') at the terminal
  /// outcome (applied or lost). All three share `id`'s lane.
  void async_begin(TraceId id, const char* name, const char* category,
                   std::uint32_t pid,
                   std::initializer_list<std::pair<const char*, double>>
                       args = {});
  void async_step(TraceId id, const char* name, const char* category,
                  std::uint32_t pid,
                  std::initializer_list<std::pair<const char*, double>>
                      args = {});
  void async_end(TraceId id, const char* name, const char* category,
                 std::uint32_t pid,
                 std::initializer_list<std::pair<const char*, double>>
                     args = {});

  /// Standalone instant event (no journey).
  void instant(const char* name, const char* category, std::uint32_t pid,
               std::initializer_list<std::pair<const char*, double>>
                   args = {});

  /// Complete event spanning [now, now + dur_us] — pass spans, query
  /// spans.
  void complete(const char* name, const char* category, std::uint32_t pid,
                double dur_us,
                std::initializer_list<std::pair<const char*, double>>
                    args = {});

  /// Advance simulated time to at least `ts_us` (monotone; earlier values
  /// are ignored so a misconfigured clock cannot run time backwards).
  void advance_time(double ts_us);
  [[nodiscard]] double now_us() const;

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }
  [[nodiscard]] std::uint64_t minted_traces() const { return next_trace_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void push(char phase, TraceId id, const char* name, const char* category,
            std::uint32_t pid, double dur_us,
            std::initializer_list<std::pair<const char*, double>> args);

  Config config_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint64_t next_trace_ = 0;
  std::uint64_t dropped_ = 0;
  double cursor_us_ = 0.0;
};

}  // namespace dprank::obs
