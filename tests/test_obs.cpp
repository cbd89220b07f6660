// Observability subsystem tests: histogram quantile error bounds,
// registry thread-safety (a raw multi-writer hammer), deterministic
// trace export, TrafficMeter shim arithmetic, and the two end-to-end
// acceptance criteria — a faulty message journey reconstructable by
// trace id, and the exported residual series matching the engine's pass
// history.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dht/ring.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generator.hpp"
#include "net/ip_cache.hpp"
#include "net/traffic_meter.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/placement.hpp"
#include "pagerank/distributed_engine.hpp"
#include "sim/experiment.hpp"
#include "sim/time_model.hpp"

namespace dprank {
namespace {

// ---- primitives ----

TEST(ObsCounter, AddAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  const obs::Counter copy = c;  // value-copy semantics for aggregates
  EXPECT_EQ(copy.value(), 42u);
}

TEST(ObsHistogram, EmptySummary) {
  const obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  const auto s = h.summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0.0);
}

/// Exact nearest-rank quantile of a sorted sample.
double exact_quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

TEST(ObsHistogram, QuantileErrorBound) {
  // Log-uniform values over 6 decades, inserted in scrambled order: every
  // estimate must be within the documented relative-error bound of the
  // exact nearest-rank value.
  obs::Histogram h;
  std::vector<double> values;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(lcg >> 11) / 9007199254740992.0;
    values.push_back(std::pow(10.0, 6.0 * u));  // in [1, 1e6)
  }
  for (const double v : values) h.record(v);
  std::sort(values.begin(), values.end());

  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double est = h.quantile(q);
    EXPECT_NEAR(est, exact, exact * obs::Histogram::kQuantileRelError)
        << "q=" << q;
  }
  EXPECT_EQ(h.count(), values.size());
  // min/max are tracked exactly, and quantiles clamp to them.
  const auto s = h.summarize();
  EXPECT_EQ(s.min, values.front());
  EXPECT_EQ(s.max, values.back());
  EXPECT_LE(h.quantile(1.0), s.max);
}

TEST(ObsHistogram, ZeroAndClampedValues) {
  obs::Histogram h;
  h.record(0.0);
  h.record(0.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.summarize().min, 0.0);
  EXPECT_NEAR(h.quantile(0.5), 0.0, 1e-12);
}

TEST(ObsSeries, AppendsInOrder) {
  obs::Series s;
  s.append(0, 1.5);
  s.append(1, 0.75);
  const auto pts = s.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1], (std::pair<double, double>{1.0, 0.75}));
}

// ---- registry thread-safety ----

TEST(ObsRegistry, ConcurrentWritersAreExact) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("hammer.count");
  auto& h = reg.histogram("hammer.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hammer.count"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, StableAddressesAcrossLookups) {
  obs::MetricsRegistry reg;
  auto& a = reg.counter("same.name");
  auto& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

// ---- TrafficMeter shim ----

/// The original plain-uint64 TrafficMeter arithmetic, kept here as the
/// reference the shim must replay bit-for-bit.
struct LegacyMeter {
  std::uint64_t messages = 0, local_updates = 0, resends = 0;
  std::uint64_t hop_transmissions = 0, bytes = 0;
  void record_message(std::uint64_t b, std::uint64_t h) {
    messages += 1;
    hop_transmissions += h;
    bytes += b * h;
  }
  void record_messages(std::uint64_t count, std::uint64_t bytes_each) {
    messages += count;
    hop_transmissions += count;
    bytes += count * bytes_each;
  }
  void record_local_update() { local_updates += 1; }
  void record_resend(std::uint64_t b) {
    resends += 1;
    bytes += b;
  }
};

TEST(ObsTrafficShim, ReplaysLegacyArithmetic) {
  TrafficMeter meter;
  LegacyMeter ref;
  std::uint64_t lcg = 12345;
  for (int i = 0; i < 10'000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto op = (lcg >> 60) % 4;
    const std::uint64_t b = (lcg >> 20) % 100 + 1;
    const std::uint64_t h = (lcg >> 40) % 9 + 1;
    switch (op) {
      case 0:
        meter.record_message(b, h);
        ref.record_message(b, h);
        break;
      case 1:
        meter.record_messages(h, b);
        ref.record_messages(h, b);
        break;
      case 2:
        meter.record_local_update();
        ref.record_local_update();
        break;
      default:
        meter.record_resend(b);
        ref.record_resend(b);
        break;
    }
  }
  EXPECT_EQ(meter.messages(), ref.messages);
  EXPECT_EQ(meter.local_updates(), ref.local_updates);
  EXPECT_EQ(meter.resends(), ref.resends);
  EXPECT_EQ(meter.hop_transmissions(), ref.hop_transmissions);
  EXPECT_EQ(meter.bytes(), ref.bytes);
}

TEST(ObsTrafficShim, MergeResetAndFlush) {
  TrafficMeter a;
  TrafficMeter b;
  a.record_message(24, 3);
  b.record_resend(24);
  b.record_local_update();
  a.merge(b);
  EXPECT_EQ(a.messages(), 1u);
  EXPECT_EQ(a.resends(), 1u);
  EXPECT_EQ(a.bytes(), 24u * 3 + 24);

  obs::MetricsRegistry reg;
  a.flush_to(reg);
  a.flush_to(reg);  // additive across flushes
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("net.messages"), 2u);
  EXPECT_EQ(snap.counters.at("net.bytes"), 2u * (24u * 3 + 24));

  a.reset();
  EXPECT_EQ(a.messages(), 0u);
  EXPECT_EQ(a.bytes(), 0u);

  // A §4.6.1 bulk transfer (membership handoffs bill this way): one wire
  // message carrying k updates behind one header, per hop.
  TrafficMeter batch;
  batch.record_batch(5, 24, 16, 2);
  EXPECT_EQ(batch.messages(), 1u);
  EXPECT_EQ(batch.batched_updates(), 5u);
  EXPECT_EQ(batch.hop_transmissions(), 2u);
  EXPECT_EQ(batch.bytes(), (16u + 5u * 24u) * 2u);
  a.merge(batch);
  EXPECT_EQ(a.batched_updates(), 5u);
  obs::MetricsRegistry batch_reg;
  a.flush_to(batch_reg);
  EXPECT_EQ(batch_reg.snapshot().counters.at("net.batched_updates"), 5u);
}

// ---- tracer + exporters ----

TEST(ObsTracer, SamplingAndEventCap) {
  obs::Tracer t({.max_events = 3, .sample_every = 2});
  EXPECT_NE(t.begin_trace(), obs::kNoTrace);  // 1st kept
  EXPECT_EQ(t.begin_trace(), obs::kNoTrace);  // 2nd sampled out
  EXPECT_NE(t.begin_trace(), obs::kNoTrace);
  for (int i = 0; i < 5; ++i) t.instant("x", "test", 0, {});
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped_events(), 2u);
}

TEST(ObsTracer, SimulatedTimeIsMonotone) {
  obs::Tracer t;
  t.advance_time(10.0);
  t.advance_time(5.0);  // ignored: time never runs backwards
  EXPECT_EQ(t.now_us(), 10.0);
  t.instant("a", "test", 0, {});
  t.instant("b", "test", 0, {});
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_GT(t.events()[1].ts_us, t.events()[0].ts_us);
}

TEST(ObsExport, ChromeTraceDeterministicAcrossIdenticalRuns) {
  // Golden-style determinism: two fresh engines on the same seeded
  // 2-peer experiment must export byte-identical Chrome traces.
  const Digraph g = figure2_graph();
  const auto p = Placement::random(g.num_nodes(), 2, 11);
  PagerankOptions o;
  o.epsilon = 1e-4;
  const NetworkParams net;
  std::string exported[2];
  for (auto& out : exported) {
    DistributedPagerank engine(g, p, o);
    obs::Tracer tracer;
    engine.attach_tracer(tracer, make_pass_clock(net));
    ASSERT_TRUE(engine.run().converged);
    out = obs::chrome_trace_string(tracer);
  }
  EXPECT_GT(exported[0].size(), 2u);
  EXPECT_EQ(exported[0], exported[1]);
  EXPECT_NE(exported[0].find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(exported[0].find("update.send"), std::string::npos);
  EXPECT_NE(exported[0].find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObsExport, MetricsJsonAndCsvRoundTripNames) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(7);
  reg.gauge("a.gauge").set(2.5);
  reg.histogram("a.hist").record(3.0);
  reg.series("a.series").append(0, 1.0);
  const auto snap = reg.snapshot();

  std::ostringstream json;
  obs::write_metrics_json(snap, json);
  for (const char* key : {"a.count", "a.gauge", "a.hist", "a.series"}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }
  std::ostringstream json2;
  obs::write_metrics_json(snap, json2);
  EXPECT_EQ(json.str(), json2.str());  // deterministic formatting

  std::ostringstream csv;
  obs::write_metrics_csv(snap, csv);
  EXPECT_NE(csv.str().find("counter,a.count"), std::string::npos);
  EXPECT_NE(csv.str().find("histogram,a.hist"), std::string::npos);
}

TEST(ObsExport, JsonEscaping) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::format_double(1.0), "1");
}

// ---- engine integration: the acceptance criteria ----

TEST(ObsEngine, AttachAfterRunRejected) {
  const Digraph g = figure2_graph();
  const auto p = Placement::random(g.num_nodes(), 2, 1);
  PagerankOptions o;
  o.epsilon = 1e-3;
  DistributedPagerank engine(g, p, o);
  (void)engine.run();
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  EXPECT_THROW(engine.attach_metrics(reg), std::logic_error);
  EXPECT_THROW(engine.attach_tracer(tracer), std::logic_error);
}

TEST(ObsEngine, ResidualSeriesMatchesPassHistory) {
  // Acceptance criterion: the exported pagerank.residual series must
  // match the engine's own pass history pass-for-pass.
  const StandardExperiment exp({.num_docs = 2'000, .num_peers = 40});
  obs::MetricsRegistry reg;
  StandardExperiment::Telemetry telemetry;
  telemetry.registry = &reg;
  const auto outcome = exp.run_distributed(nullptr, telemetry);
  ASSERT_TRUE(outcome.run.converged);

  const auto snap = reg.snapshot();
  const auto& residual = snap.series.at("pagerank.residual");
  ASSERT_EQ(residual.size(), outcome.history.size());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    EXPECT_EQ(residual[i].first,
              static_cast<double>(outcome.history[i].pass));
    EXPECT_EQ(residual[i].second, outcome.history[i].max_rel_change);
  }
  EXPECT_EQ(snap.counters.at("pagerank.passes"), outcome.run.passes);
  EXPECT_EQ(snap.counters.at("pagerank.converged_runs"), 1u);
}

TEST(ObsEngine, FaultyJourneyReconstructableByTraceId) {
  // Acceptance criterion: on a seeded faulty run, at least one message's
  // full journey — send, drop, retransmission(s), final application —
  // must be reconstructable by filtering events on its trace id, with
  // timestamps in causal order. DHT hop steps must appear in the trace
  // (overlay attached, so cold sends route through the ring).
  const Digraph g = paper_graph(2'000, 17);
  const auto p = Placement::random(2'000, 40, 17);
  PagerankOptions o;
  o.epsilon = 1e-3;
  DistributedPagerank engine(g, p, o);
  const ChordRing ring(40);
  IpCache cache(true);
  engine.attach_overlay(ring, cache);
  FaultPlan plan({.drop_probability = 0.15, .acked_delivery = true,
                  .seed = 99});
  engine.attach_fault_plan(plan);
  obs::Tracer tracer;
  engine.attach_tracer(tracer, make_pass_clock(NetworkParams{}));
  const auto run = engine.run();
  ASSERT_TRUE(run.converged);
  ASSERT_GT(engine.dropped_messages(), 0u);
  ASSERT_GT(engine.traffic().resends(), 0u);

  struct Journey {
    bool sent = false, dropped = false, retransmitted = false;
    bool applied = false;
    double last_ts = -1.0;
    bool causal = true;
  };
  std::map<obs::TraceId, Journey> journeys;
  bool saw_dht_hop = false;
  for (const auto& e : tracer.events()) {
    if (e.id == obs::kNoTrace) continue;
    auto& j = journeys[e.id];
    const std::string name = e.name;
    if (name == "update.send") j.sent = true;
    if (name == "net.drop") j.dropped = true;
    if (name == "net.retransmit") j.retransmitted = true;
    if (name == "update.apply") j.applied = true;
    if (name == "dht.hop") saw_dht_hop = true;
    if (e.ts_us < j.last_ts) j.causal = false;
    j.last_ts = e.ts_us;
  }
  EXPECT_TRUE(saw_dht_hop);
  std::size_t full_journeys = 0;
  for (const auto& [id, j] : journeys) {
    EXPECT_TRUE(j.causal) << "trace " << id;
    if (j.sent && j.dropped && j.retransmitted && j.applied) {
      ++full_journeys;
    }
  }
  EXPECT_GT(full_journeys, 0u)
      << "no drop->retransmit->apply journey found among "
      << journeys.size() << " traces";

  // The pass spans advance simulated time, so the trace has a timeline.
  EXPECT_GT(tracer.now_us(), 0.0);
}

TEST(ObsEngine, CrashEventsAppearInTrace) {
  const StandardExperiment exp({.num_docs = 2'000, .num_peers = 40});
  StandardExperiment::FaultRunOptions fo;
  fo.plan.crashes = {{.pass = 2, .peer = 3}};
  fo.plan.acked_delivery = true;
  fo.replicas_per_doc = 1;
  obs::Tracer tracer;
  obs::MetricsRegistry reg;
  StandardExperiment::Telemetry telemetry;
  telemetry.registry = &reg;
  telemetry.tracer = &tracer;
  const auto outcome = exp.run_distributed_faulty(fo, nullptr, telemetry);
  ASSERT_TRUE(outcome.run.converged);
  ASSERT_EQ(outcome.crashes, 1u);

  bool saw_crash = false;
  bool saw_recover = false;
  for (const auto& e : tracer.events()) {
    const std::string name = e.name;
    if (name == "peer.crash") saw_crash = true;
    if (name == "peer.recover") saw_recover = true;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_recover);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("pagerank.crashes"), 1u);
  EXPECT_FALSE(snap.series.at("pagerank.crash_events").empty());
}

}  // namespace
}  // namespace dprank
