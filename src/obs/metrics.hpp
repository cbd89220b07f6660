#pragma once

// Unified metrics registry (observability subsystem, `dprank_obs`).
//
// Das Sarma et al. argue message/round complexity is *the* cost metric
// for distributed pagerank; D-Iteration treats residual mass as the
// natural convergence telemetry. Both need one place to live. This
// registry holds named counters, gauges, log-bucketed histograms and
// (x, y) series, designed for two very different callers:
//
//   * concurrent writers: every primitive is safe to update from many
//     threads at once (relaxed atomics on the hot path, a mutex only at
//     registration and snapshot time);
//   * the pass simulator's per-message paths: an update is one relaxed
//     atomic add (Counter) or two plus a few integer ops (Histogram) —
//     cheap enough to leave on in benches (the bench suite records the
//     measured overhead in its BENCH_*.json output).
//
// Naming scheme (see DESIGN.md "Observability"): dot-separated
// `<layer>.<object>.<measure>`, e.g. `net.messages`, `dht.chord.lookup_hops`,
// `pagerank.residual`, `search.query.fanout`, and the streaming-ingest
// family `stream.staleness` (series: mean |served - oracle| vs events
// offered), `stream.ingest_lag_events`, `stream.batch_apply_us`,
// `stream.mass_ratio`. Callers cache the returned reference; name lookup
// takes the registry mutex and belongs outside hot loops.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dprank::obs {

/// Monotone event count. Thread-safe; one relaxed fetch_add per add().
/// Copyable (value copy) so aggregates like TrafficMeter stay copyable;
/// a registered Counter must not be moved while a registry references it.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : v_(other.value()) {}
  Counter& operator=(const Counter& other) {
    v_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t n) noexcept {
    v_.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Point estimates a histogram snapshot can answer.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Log-bucketed histogram: power-of-two octaves split into 8 linear
/// sub-buckets, so any bucket's width is at most 1/8 of its lower bound.
/// Quantile estimates (bucket midpoint) are therefore within 6.25%
/// relative error of the exact nearest-rank value — kQuantileRelError
/// is the bound tests assert against. record() is wait-free: bucket
/// index arithmetic plus three relaxed atomic adds (bucket, count, sum);
/// min/max keep exact values via CAS loops.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;          // per octave
  static constexpr int kMinExponent = -32;       // values below ~2^-32 clamp
  static constexpr int kMaxExponent = 63;        // values above 2^64 clamp
  static constexpr int kNumBuckets =
      (kMaxExponent - kMinExponent + 1) * kSubBuckets + 1;  // +1: zero bucket
  static constexpr double kQuantileRelError = 1.0 / (2.0 * kSubBuckets);

  void record(double v) noexcept;
  void record_count(double v, std::uint64_t times) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Nearest-rank quantile estimate over the bucketed sample, q in
  /// (0, 1]. Returns 0 on an empty histogram. The estimate is clamped to
  /// the exact observed [min, max].
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] HistogramSummary summarize() const;

  /// Non-empty buckets as (upper bound, count), ascending. For exporters.
  [[nodiscard]] std::vector<std::pair<double, std::uint64_t>> buckets() const;

 private:
  static int bucket_index(double v) noexcept;
  static double bucket_lower(int index) noexcept;
  static double bucket_upper(int index) noexcept;

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_value_{false};
};

/// Append-only (x, y) series — per-pass residual mass, convergence
/// timelines, crash marks. Mutex-protected: series points are recorded
/// once per pass/round, never per message.
class Series {
 public:
  void append(double x, double y);
  [[nodiscard]] std::vector<std::pair<double, double>> points() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> points_;
};

/// Immutable copy of a registry's state, safe to format/export after the
/// instrumented objects are gone.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
  std::map<std::string, std::vector<std::pair<double, double>>> series;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           series.empty();
  }
};

/// Named metric store. Creation/lookup takes a mutex and returns a
/// reference with a stable address for the registry's lifetime; updates
/// through that reference are lock-free. snapshot() may run concurrently
/// with updates (it reads relaxed atomics; counts lag by at most the
/// in-flight writes).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);
  [[nodiscard]] Series& series(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Drop every metric (bench harness reuse between configs).
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
};

/// Process-wide registry the bench harness snapshots into BENCH_*.json.
/// Engines attach to it by default via sim::StandardExperiment.
[[nodiscard]] MetricsRegistry& default_registry();

}  // namespace dprank::obs
