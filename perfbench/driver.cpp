// Workload driver of the repo benchmark (see perfbench/README.md).
//
//   perfbench_driver stamp
//       print the build stamp (SIMD level, build type, contracts, compiler)
//   perfbench_driver prepare --workload W --seed S --dir D
//       write the workload's inputs into D: the link graph (seeded for
//       the rank workloads, fixed for the others; read back with
//       load_graph, as `dprank_cli rank --graph` does) and, for the rank
//       workloads, the centralized reference ranks
//   perfbench_driver run --workload W --seed S --seconds T --trace 0|1
//                        --dir D
//       run one workload through the public API and print one JSON
//       document of raw measurements on stdout
//
// The driver only measures. run.py turns the raw samples into metrics,
// so every statistic (medians, tail percentiles, open-loop latency, span
// self time) lives in one tested place.
//
// Every timer wraps a call into a public function of one layer. With
// --trace 1 the same calls are also recorded as spans (name, start, end,
// parent) kept in memory and written with the result; span names are
// "<layer>.<call>", "idle.wait" covers the open loop's waits for the
// schedule, and "harness.*" spans cover the benchmark's own work (input
// generation, correctness checks, probes).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "common/guid.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/p2p_system.hpp"
#include "dht/ring.hpp"
#include "graph/generator.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "graph/mutable_digraph.hpp"
#include "net/ip_cache.hpp"
#include "obs/mem_probe.hpp"
#include "obs/metrics.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/quality.hpp"
#include "search/corpus.hpp"
#include "search/incremental_search.hpp"
#include "search/query_gen.hpp"
#include "sim/time_model.hpp"
#include "stream/ingest_coordinator.hpp"
#include "stream/live_rank_service.hpp"
#include "stream/stream_source.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace dprank;

// ---- workload sizes -------------------------------------------------------

constexpr std::uint64_t kCleanDocs = 1'000'000;
constexpr PeerId kCleanPeers = 2'000;
constexpr std::uint64_t kOverlayDocs = 250'000;
constexpr PeerId kOverlayPeers = 500;
constexpr double kOverlayAvailability = 0.8;
constexpr std::uint32_t kOverlayThreads = 2;
constexpr double kRankEpsilon = 1e-3;
/// Reference tolerance: far tighter than the engine's epsilon, so the
/// measured L1 error is the engine's, not the oracle's.
constexpr double kReferenceTolerance = 1e-10;
/// Upper bound on the normalized L1 error a fifo run at epsilon 1e-3 may
/// show against the centralized reference.
constexpr double kRankL1Bound = 1e-2;
/// A rank workload repeats set-up and run() until the time is up, but
/// always at least this often, so medians have three samples (and a
/// traced run has both recorded and unrecorded repetitions).
constexpr int kMinRankReps = 3;
/// "mass_ratio == 1.0" means within the mass audit's default tolerance,
/// the bar the repo's stream and chaos-soak benches gate on.
constexpr double kMassTolerance = 1e-9;

/// stream_ingest and search_mixed serve one fixed system: its graph (and
/// search_mixed's corpus and placement) come from this seed, and --seed
/// draws the events, reads and operations it serves. At 20k and 11k docs
/// a seeded graph's structure moves the cost of their work between seeds
/// by more than the run-to-run noise.
constexpr std::uint64_t kServingDataSeed = 42;

constexpr std::uint64_t kStreamDocs = 20'000;
constexpr double kStreamRate = 400.0;  // offered events per second
constexpr std::uint32_t kStreamBatch = 16;
constexpr std::uint64_t kStreamReconvergeEvery = 1'000;
constexpr double kStreamEpsilon = 1e-4;
constexpr std::size_t kStreamTopK = 10;
constexpr int kStreamPointReads = 4;

constexpr std::uint64_t kSearchDocs = 11'000;
constexpr PeerId kSearchPeers = 50;
constexpr double kSearchEpsilon = 1e-3;
/// Operations whose traffic and end state are compared across runs: the
/// closed loop always completes at least this prefix of the seeded
/// operation sequence, whatever the machine's speed.
constexpr std::uint64_t kSearchGuardOps = 2'000;
/// Queries of each length drawn up front and cycled.
constexpr std::uint32_t kSearchQueryPool = 2'000;
/// A traced search run records every other window of this many operations.
constexpr std::uint64_t kSearchTraceWindow = 100;

/// Set-up repetitions per run: stream and search set up this many times
/// and serve from the last; the rank workloads add this many set-ups
/// without a run after their timed runs. Set-up time is the median.
constexpr int kSetupReps = 7;

constexpr int kFoldProbeReps = 5;
constexpr std::uint64_t kRouteProbeSamples = 20'000;

// ---- clock and spans ------------------------------------------------------

using Clock = std::chrono::steady_clock;

const Clock::time_point& origin() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

/// Seconds since the process started measuring.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - origin()).count();
}

struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder. Disabled (trace 0) it records nothing and
/// every call is a branch on one bool.
///
/// A traced run alternates windows with and without recording, so the
/// tracing overhead is measured against untraced work of the same process
/// and moment rather than against another run. Each unrecorded window is
/// kept as one "harness.untraced" span, which the harness leaves out of
/// the traced time.
class SpanLog {
 public:
  explicit SpanLog(bool trace) : trace_(trace), on_(trace) {}

  /// Whether this run traces at all (--trace 1).
  [[nodiscard]] bool tracing() const { return trace_; }
  /// Whether spans are recorded now.
  [[nodiscard]] bool on() const { return on_; }

  /// Record the window that starts now, or leave it unrecorded. Call it
  /// only where no span but the root is open, so spans stay nested.
  void record(bool yes) {
    if (!trace_ || yes == on_) return;
    if (yes) {
      on_ = true;
      close(pause_);
      pause_ = -1;
    } else {
      pause_ = open("harness.untraced");
      on_ = false;
    }
  }

  int open(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), -1.0, current()});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  /// A span measured after the fact (pass spans come from observer
  /// timestamps once run() has returned).
  void add(const char* name, double start, double end, int parent) {
    if (on_) spans_.push_back({name, start, end, parent});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  bool trace_;
  bool on_;
  int pause_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Run `fn` under a span and return its wall time in seconds.
template <typename Fn>
double timed(SpanLog& log, const char* name, Fn&& fn) {
  const ScopedSpan span(log, name);
  const double t = now_s();
  fn();
  return now_s() - t;
}

// ---- result ---------------------------------------------------------------

/// Raw measurements of one run: named sample lists (seconds unless the
/// name says otherwise), named scalar values, failures.
struct Result {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  /// Process peak RSS to report; 0 means "at exit".
  std::uint64_t peak_rss_bytes = 0;

  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

// ---- JSON output ----------------------------------------------------------

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_result(std::ostream& os, const std::string& workload,
                  std::uint64_t seed, bool trace, const Result& r,
                  const SpanLog& log) {
  os << "{\"workload\": ";
  write_string(os, workload);
  os << ", \"seed\": " << seed << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"digest\": \"" << r.digest << "\", \"peak_rss_bytes\": "
     << (r.peak_rss_bytes != 0 ? r.peak_rss_bytes : obs::peak_rss_bytes())
     << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i != 0) os << ", ";
    write_string(os, r.failures[i]);
  }
  os << "], \"values\": {";
  bool first = true;
  for (const auto& [name, v] : r.values) {
    os << (first ? "" : ", ");
    first = false;
    write_string(os, name);
    os << ": ";
    write_number(os, v);
  }
  os << "}, \"samples\": {";
  first = true;
  for (const auto& [name, vs] : r.samples) {
    os << (first ? "" : ", ");
    first = false;
    write_string(os, name);
    os << ": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i != 0) os << ",";
      write_number(os, vs[i]);
    }
    os << "]";
  }
  os << "}, \"spans\": [";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i != 0) os << ",\n";
    os << "[";
    write_string(os, spans[i].name);
    os << ",";
    write_number(os, spans[i].start);
    os << ",";
    write_number(os, spans[i].end);
    os << "," << spans[i].parent << "]";
  }
  os << "]}\n";
}

// ---- inputs ---------------------------------------------------------------

std::uint64_t docs_of(const std::string& workload) {
  if (workload == "rank_clean") return kCleanDocs;
  if (workload == "rank_overlay") return kOverlayDocs;
  if (workload == "stream_ingest") return kStreamDocs;
  if (workload == "search_mixed") return kSearchDocs;
  throw std::invalid_argument("unknown workload: " + workload);
}

bool is_rank_workload(const std::string& workload) {
  return workload == "rank_clean" || workload == "rank_overlay";
}

void write_reference(const std::vector<double>& ranks, const fs::path& path) {
  std::ofstream os(path, std::ios::binary);
  const std::uint64_t n = ranks.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  os.write(reinterpret_cast<const char*>(ranks.data()),
           static_cast<std::streamsize>(n * sizeof(double)));
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

std::vector<double> read_reference(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!is || n > (std::uint64_t{1} << 32)) {
    throw std::runtime_error("bad reference file " + path.string());
  }
  std::vector<double> ranks(n);
  is.read(reinterpret_cast<char*>(ranks.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!is) throw std::runtime_error("short reference file " + path.string());
  return ranks;
}

/// Inputs of one workload: a seeded graph for the rank workloads, the
/// fixed system's graph for the others. The reference ranks are computed
/// once per seed here, so no run pays for them inside its timers.
void prepare(const std::string& workload, std::uint64_t seed,
             const fs::path& dir) {
  fs::create_directories(dir);
  const Digraph g = paper_graph(
      docs_of(workload), is_rank_workload(workload) ? seed : kServingDataSeed);
  save_graph(g, dir / "graph.dpg");
  if (is_rank_workload(workload)) {
    const auto ref = centralized_pagerank(g, 0.85, kReferenceTolerance);
    if (!ref.converged) throw std::runtime_error("reference did not converge");
    write_reference(ref.ranks, dir / "reference.bin");
  }
}

// ---- probes (traced runs only) --------------------------------------------

/// Gather throughput of the fold kernel over every document of `g`:
/// median of kFoldProbeReps timed sweeps after one warm-up. Counts 8
/// computed bytes per gathered edge (the cell read), not measured bytes.
/// Every cell holds 0.5, so each sweep's accumulators must sum to m / 2.
double fold_gbps(simd::Level level, const Digraph& g, Result& r) {
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  AlignedVec<double> cells(m, 0.5);
  AlignedVec<double> acc(n, 0.0);
  std::vector<NodeId> docs(n);
  std::iota(docs.begin(), docs.end(), NodeId{0});
  std::vector<double> secs;
  for (int rep = 0; rep <= kFoldProbeReps; ++rep) {
    const double t = now_s();
    simd::fold_cells(level, cells.data(), g.in_offsets_data(), docs.data(), n,
                     acc.data());
    const double dt = now_s() - t;
    const double sum = std::accumulate(acc.begin(), acc.end(), 0.0);
    r.check(sum == 0.5 * static_cast<double>(m),
            std::string("fold_cells sum wrong at level ") +
                simd::level_name(level));
    if (rep > 0) secs.push_back(dt);
  }
  std::sort(secs.begin(), secs.end());
  return static_cast<double>(m) * 8.0 / secs[secs.size() / 2] / 1e9;
}

void fold_probe(const Digraph& g, Result& r) {
  r.values["common.fold_gbps"] = fold_gbps(simd::active_level(), g, r);
  r.values["common.fold_gbps_scalar"] = fold_gbps(simd::Level::kScalar, g, r);
  const double n = static_cast<double>(g.num_nodes());
  const double m = static_cast<double>(g.num_edges());
  // cells + offsets + doc list + accumulators.
  r.values["common.fold_working_set_bytes"] = m * 8 + (n + 1) * 8 + n * 4 +
                                              n * 8;
}

/// Mean wall time of ChordRing::route over a seeded sample of
/// (sender peer, document) pairs on the overlay workload's ring.
void route_probe(const ChordRing& ring, PeerId peers, std::uint64_t docs,
                 std::uint64_t seed, Result& r) {
  Rng rng(seed ^ 0xD47ULL);
  std::vector<std::pair<PeerId, Guid>> pairs;
  pairs.reserve(kRouteProbeSamples);
  for (std::uint64_t i = 0; i < kRouteProbeSamples; ++i) {
    const auto from = static_cast<PeerId>(rng.bounded(peers));
    pairs.emplace_back(from, document_guid(rng.bounded(docs)));
  }
  std::uint64_t hops = 0;
  const double t = now_s();
  for (const auto& [from, key] : pairs) hops += ring.route(from, key).hop_count();
  const double dt = now_s() - t;
  r.values["dht.route_us"] =
      dt * 1e6 / static_cast<double>(kRouteProbeSamples);
  r.values["dht.route_hops_mean"] =
      static_cast<double>(hops) / static_cast<double>(kRouteProbeSamples);
}

// ---- rank_clean / rank_overlay --------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  fs::path dir;
};

/// Everything one rank run needs, built the way `dprank_cli rank` builds
/// it. Declaration order is dependency order, so the engine is destroyed
/// before what it references.
struct RankSetup {
  std::optional<Digraph> graph;
  std::optional<Placement> placement;
  std::optional<ChordRing> ring;
  std::optional<ChurnSchedule> churn;
  IpCache cache{true};
  obs::MetricsRegistry registry;
  std::unique_ptr<DistributedPagerank> engine;
};

/// Set-up of one rank run: load the graph, place it, construct the engine
/// and attach what the workload runs with.
void rank_setup(const RunArgs& a, RankSetup& s, Result& r, SpanLog& log) {
  const bool overlay = a.workload == "rank_overlay";
  const PeerId peers = overlay ? kOverlayPeers : kCleanPeers;
  PagerankOptions opts;
  opts.epsilon = kRankEpsilon;
  opts.threads = overlay ? kOverlayThreads : 1;
  const double start = now_s();
  r.sample("graph.load_s", timed(log, "graph.load", [&] {
             s.graph.emplace(load_graph(a.dir / "graph.dpg"));
           }));
  r.sample("p2p.place_s", timed(log, "p2p.place", [&] {
             s.placement.emplace(
                 Placement::random(s.graph->num_nodes(), peers, a.seed));
           }));
  r.sample("pagerank.construct_s", timed(log, "pagerank.construct", [&] {
             s.engine = std::make_unique<DistributedPagerank>(
                 *s.graph, *s.placement, opts);
             s.engine->attach_metrics(s.registry);
             if (overlay) {
               s.ring.emplace(peers);
               s.engine->attach_overlay(*s.ring, s.cache);
               s.engine->enable_mass_audit();
               s.churn.emplace(peers, kOverlayAvailability, a.seed);
             }
           }));
  r.sample("setup_s", now_s() - start);
}

void run_rank(const RunArgs& a, Result& r, SpanLog& log) {
  const bool overlay = a.workload == "rank_overlay";
  std::vector<double> reference;
  {
    const ScopedSpan span(log, "harness.inputs");
    reference = read_reference(a.dir / "reference.bin");
  }
  const double deadline = now_s() + a.seconds;
  bool have_digest = false;
  for (int rep = 0; rep < kMinRankReps || now_s() < deadline; ++rep) {
    ++r.attempted;
    // A traced run records every other repetition.
    log.record(rep % 2 == 0);
    const ScopedSpan rep_span(log, "harness.rep");
    try {
      RankSetup s;
      rank_setup(a, s, r, log);
      DistributedPagerank& engine = *s.engine;

      // The untraced run attaches no observer; the traced run timestamps
      // every PassObserver call to split run() into passes.
      std::vector<double> marks;
      DistributedPagerank::PassObserver observer;
      if (log.on()) {
        observer = [&marks](std::uint64_t, const std::vector<double>&) {
          marks.push_back(now_s());
        };
      }
      DistributedRunResult run;
      int run_span = -1;
      double run_start = 0.0;
      double run_end = 0.0;
      {
        const ScopedSpan span(log, "pagerank.run");
        run_span = span.id();
        run_start = now_s();
        run = engine.run(s.churn ? &*s.churn : nullptr, observer);
        run_end = now_s();
      }
      r.sample("converge_s", run_end - run_start);
      if (log.tracing()) r.sample("trace.recorded", log.on() ? 1.0 : 0.0);
      if (log.on() && !marks.empty()) {
        double prev = run_start;
        for (const double m : marks) {
          log.add("pagerank.pass", prev, m, run_span);
          r.sample("pagerank.pass_s", m - prev);
          prev = m;
        }
        r.sample("pagerank.first_pass_s", marks.front() - run_start);
        log.add("obs.flush", marks.back(), run_end, run_span);
        r.sample("obs.flush_s", run_end - marks.back());
      }

      const ScopedSpan check(log, "harness.check");
      std::string problems;
      if (!run.converged) problems += " run() did not converge;";
      if (overlay && std::abs(run.mass_ratio - 1.0) > kMassTolerance) {
        problems += " mass_ratio " + std::to_string(run.mass_ratio) + " != 1;";
      }
      const std::uint64_t digest = fnv1a_rank_digest(engine.ranks());
      if (!have_digest) {
        r.digest = digest;
        have_digest = true;
      } else if (digest != r.digest) {
        problems += " rank digest differs from rep 0 of the same seed;";
      }
      const double l1 = l1_rank_error(engine.ranks(), reference);
      if (!(l1 <= kRankL1Bound)) {
        problems += " l1 error " + std::to_string(l1) + " above bound;";
      }
      if (!problems.empty()) r.fail("rep " + std::to_string(rep) + ":" + problems);

      const auto& history = engine.pass_history();
      const TrafficMeter& traffic = engine.traffic();
      std::uint64_t recomputed = 0;
      std::uint64_t busiest = 0;
      std::uint64_t parked = 0;
      std::uint64_t late = 0;
      for (const PassStats& ps : history) {
        recomputed += ps.docs_recomputed;
        busiest += ps.max_peer_messages;
        parked += ps.messages_deferred;
        late += ps.messages_delivered_late;
      }
      r.sample("rank_messages", static_cast<double>(traffic.messages()));
      r.sample("rank_l1_error", l1);
      r.sample("sim_converge_s",
               estimate_parallel(history, *s.placement, modem_network())
                   .total_seconds());
      r.sample("pagerank.passes", static_cast<double>(run.passes));
      r.sample("pagerank.docs_recomputed", static_cast<double>(recomputed));
      r.sample("pagerank.local_updates",
               static_cast<double>(traffic.local_updates()));
      r.sample("pagerank.busiest_peer_messages", static_cast<double>(busiest));
      r.sample("pagerank.audit_repair_rounds",
               static_cast<double>(run.repair_rounds));
      r.sample("pagerank.mass_ratio", run.mass_ratio);
      r.sample("net.hop_transmissions",
               static_cast<double>(traffic.hop_transmissions()));
      r.sample("net.bytes", static_cast<double>(traffic.bytes()));
      r.sample("net.parked", static_cast<double>(parked));
      r.sample("net.delivered_late", static_cast<double>(late));
      r.sample("net.outbox_peak", static_cast<double>(engine.outbox_peak()));
      r.sample("net.ip_cache_hits", static_cast<double>(s.cache.hits()));
      r.sample("dht.route_lookups", static_cast<double>(s.cache.misses()));
      r.values["docs"] = static_cast<double>(s.graph->num_nodes());
    } catch (const std::exception& e) {
      r.fail("rep " + std::to_string(rep) + ": " + e.what());
      break;
    }
    // The peak of one set-up and run, as one `dprank_cli rank` process
    // sees it; later repetitions only add allocator fragmentation.
    if (rep == 0) r.peak_rss_bytes = obs::peak_rss_bytes();
  }
  log.record(true);
  // Set-up alone, several more times, so set-up time is a median of many
  // samples even when few runs fit in the time.
  for (int i = 0; i < kSetupReps; ++i) {
    ++r.attempted;
    const ScopedSpan rep_span(log, "harness.rep");
    RankSetup s;
    rank_setup(a, s, r, log);
  }

  if (log.on()) {
    const ScopedSpan probe(log, "harness.probe");
    const Digraph g = load_graph(a.dir / "graph.dpg");
    r.values["graph.bytes_per_edge"] = compute_layout_stats(g).bytes_per_edge;
    fold_probe(g, r);
    if (overlay) {
      const ChordRing ring(kOverlayPeers);
      route_probe(ring, kOverlayPeers, g.num_nodes(), a.seed, r);
    }
  }
}

// ---- stream_ingest --------------------------------------------------------

void run_stream(const RunArgs& a, Result& r, SpanLog& log) {
  const auto n_events =
      static_cast<std::uint64_t>(std::llround(a.seconds * kStreamRate));
  StreamSourceConfig sc;
  sc.initial_docs = static_cast<NodeId>(kStreamDocs);
  sc.max_events = n_events;
  sc.seed = a.seed;
  sc.events_per_sec = kStreamRate;
  std::vector<StreamEvent> events;
  std::vector<std::uint64_t> read_draws(n_events * kStreamPointReads);
  {
    const ScopedSpan span(log, "harness.inputs");
    StreamSource source(sc);
    events = source.take(n_events);
    Rng read_rng(a.seed ^ 0x8EADULL);
    for (auto& d : read_draws) d = read_rng();
  }

  IngestConfig ic;
  ic.batch_size = kStreamBatch;
  ic.reconverge_every_events = kStreamReconvergeEvery;
  ic.seed = a.seed;
  ic.options.epsilon = kStreamEpsilon;
  ic.options.threads = 1;
  // The reconvergence campaign template of `dprank_cli stream`.
  ic.reconverge.initial_peers = 16;
  ic.reconverge.events = 8;
  ic.reconverge.min_live = 8;
  ic.reconverge.replicas = 1;

  const fs::path graph_path = a.dir / "graph.dpg";
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<IngestCoordinator> coord;
  std::unique_ptr<LiveRankService> service;
  for (int s = 0; s < kSetupReps; ++s) {
    service.reset();
    coord.reset();
    registry.reset();
    ++r.attempted;
    const double setup_start = now_s();
    std::optional<Digraph> base;
    std::vector<double> ranks;
    r.sample("graph.load_s", timed(log, "graph.load", [&] {
               base.emplace(load_graph(graph_path));
             }));
    r.sample("stream.seed_solve_s", timed(log, "stream.seed_solve", [&] {
               ranks = centralized_pagerank(*base, ic.options.damping, 1e-13)
                           .ranks;
             }));
    r.sample("stream.construct_s", timed(log, "stream.construct", [&] {
               registry = std::make_unique<obs::MetricsRegistry>();
               coord = std::make_unique<IngestCoordinator>(
                   MutableDigraph(*base), std::move(ranks), ic,
                   registry.get());
               service =
                   std::make_unique<LiveRankService>(*coord, registry.get());
             }));
    r.sample("setup_s", now_s() - setup_start);
    if (s == kSetupReps - 1) {
      r.values["graph.bytes_per_edge"] =
          compute_layout_stats(*base).bytes_per_edge;
    }
  }

  // Open loop: event i is due at start + i / rate whatever the system
  // did before; the generator never waits for the service, it only
  // sleeps while it is ahead of the schedule.
  auto& due = r.samples["stream.due_s"];
  auto& offer_start = r.samples["stream.offer_start_s"];
  auto& offer_end = r.samples["stream.offer_end_s"];
  auto& offer_kind = r.samples["stream.offer_kind"];  // 0 queued, 1 batch, 2 reconverge
  auto& reads_s = r.samples["stream.reads_s"];
  auto& topk_s = r.samples["stream.topk_s"];
  auto& recorded = r.samples["trace.recorded"];
  const double start = now_s() + 0.001;
  r.values["stream.start_s"] = start;
  std::uint64_t offered = 0;
  try {
    for (std::uint64_t i = 0; i < n_events; ++i) {
      // A traced run records every other batch's worth of events.
      log.record((i / kStreamBatch) % 2 == 0);
      const double due_i = start + static_cast<double>(i) / kStreamRate;
      if (now_s() < due_i) {
        const ScopedSpan idle(log, "idle.wait");
        std::this_thread::sleep_until(
            origin() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_i)));
      }
      const std::uint64_t applied_before = coord->events_applied();
      const std::uint64_t cycles_before = coord->reconverge_cycles();
      const double t0 = now_s();
      {
        const ScopedSpan span(log, "stream.offer");
        coord->offer(events[i]);
      }
      const double t1 = now_s();
      ++offered;
      ++r.attempted;
      due.push_back(due_i);
      offer_start.push_back(t0);
      offer_end.push_back(t1);
      offer_kind.push_back(coord->reconverge_cycles() != cycles_before ? 2.0
                           : coord->events_applied() != applied_before ? 1.0
                                                                       : 0.0);
      // Reads between events: one top-k and four point ranks.
      const double tk = timed(log, "stream.top_k",
                              [&] { (void)service->top_k(kStreamTopK); });
      topk_s.push_back(tk);
      double reads = tk;
      const auto n_now = coord->graph().num_nodes();
      for (int k = 0; k < kStreamPointReads; ++k) {
        const auto doc = static_cast<NodeId>(
            read_draws[i * kStreamPointReads + static_cast<std::uint64_t>(k)] %
            n_now);
        reads += timed(log, "stream.rank_of",
                       [&] { (void)service->rank_of(doc); });
      }
      reads_s.push_back(reads);
      if (log.tracing()) recorded.push_back(log.on() ? 1.0 : 0.0);
      r.attempted += 1 + kStreamPointReads;
    }
    log.record(true);
    r.values["stream.end_s"] = now_s();
    const ScopedSpan check(log, "harness.check");
    (void)coord->flush();
    const StalenessReport staleness = service->measure_staleness();
    r.values["staleness_mean"] = staleness.mean_abs;
    r.digest = coord->digest();
    coord->validate();
  } catch (const std::exception& e) {
    r.fail("event " + std::to_string(offered) + ": " + e.what());
  }
  r.check(offered == n_events, "stream stopped early");
  const auto& ratios = coord->mass_ratios();
  r.check(coord->reconverge_cycles() == n_events / kStreamReconvergeEvery,
          "reconvergence count " + std::to_string(coord->reconverge_cycles()));
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    r.check(std::abs(ratios[i] - 1.0) <= kMassTolerance,
            "reconvergence " + std::to_string(i) + " mass_ratio " +
                std::to_string(ratios[i]));
  }
  r.values["stream.events"] = static_cast<double>(offered);
  r.values["stream.events_applied"] =
      static_cast<double>(coord->events_applied());
  r.values["stream.cascade_updates"] = static_cast<double>(
      registry->counter("stream.cascade_updates").value());
  r.values["stream.reconverge_cycles"] =
      static_cast<double>(coord->reconverge_cycles());
  r.values["stream.topk_cache_hits"] =
      static_cast<double>(service->topk_cache_hits());
  r.values["stream.topk_recomputes"] =
      static_cast<double>(service->topk_recomputes());
}

// ---- search_mixed ---------------------------------------------------------

struct SearchOp {
  enum class Kind : std::uint8_t { kQuery, kAdd, kRemove };
  Kind kind = Kind::kQuery;
  std::vector<TermId> terms;
  std::uint64_t link_seed = 0;  // kAdd: draws for the three live out-links
};

/// The seeded operation stream, drawn one operation at a time outside
/// the timers: 90% queries (half 2-term, half 3-term, cycled from pools
/// drawn from the top-100 terms), 5% inserts with 3 distinct terms and 3
/// out-links, 5% deletes of the latest surviving insert (an insert when
/// none survives).
class SearchOps {
 public:
  SearchOps(const Corpus& corpus, std::uint64_t seed)
      : q2_(generate_queries(corpus, {.term_pool = 100,
                                      .num_queries = kSearchQueryPool,
                                      .terms_per_query = 2,
                                      .seed = seed})),
        q3_(generate_queries(corpus, {.term_pool = 100,
                                      .num_queries = kSearchQueryPool,
                                      .terms_per_query = 3,
                                      .seed = seed ^ 0x3ULL})),
        vocabulary_(corpus.vocabulary()),
        rng_(seed ^ 0x0B5ULL) {}

  /// Overwrites `op` with the next operation.
  void next(SearchOp& op) {
    op.terms.clear();
    const auto roll = rng_.bounded(100);
    if (roll < 90) {
      op.kind = SearchOp::Kind::kQuery;
      op.terms = rng_.bounded(2) == 0 ? q2_[i2_++ % q2_.size()]
                                      : q3_[i3_++ % q3_.size()];
    } else if (roll < 95 || live_inserts_ == 0) {
      op.kind = SearchOp::Kind::kAdd;
      // A document's terms are a set, as in Corpus::terms_of.
      while (op.terms.size() < 3) {
        const auto t = static_cast<TermId>(rng_.bounded(vocabulary_));
        if (std::find(op.terms.begin(), op.terms.end(), t) == op.terms.end()) {
          op.terms.push_back(t);
        }
      }
      std::sort(op.terms.begin(), op.terms.end());
      op.link_seed = rng_();
      ++live_inserts_;
    } else {
      op.kind = SearchOp::Kind::kRemove;
      --live_inserts_;
    }
  }

 private:
  std::vector<std::vector<TermId>> q2_;
  std::vector<std::vector<TermId>> q3_;
  std::uint64_t vocabulary_;
  Rng rng_;
  std::size_t i2_ = 0;
  std::size_t i3_ = 0;
  std::uint64_t live_inserts_ = 0;
};

void run_search(const RunArgs& a, Result& r, SpanLog& log) {
  CorpusParams cp;
  cp.num_docs = static_cast<std::uint32_t>(kSearchDocs);
  cp.seed = kServingDataSeed;
  std::optional<Corpus> corpus;
  std::optional<SearchOps> ops;
  {
    const ScopedSpan span(log, "harness.inputs");
    corpus.emplace(Corpus::synthesize(cp));
    ops.emplace(*corpus, a.seed);
  }

  P2PSystemConfig cfg;
  cfg.num_peers = kSearchPeers;
  cfg.pagerank.epsilon = kSearchEpsilon;
  cfg.seed = kServingDataSeed;
  const fs::path graph_path = a.dir / "graph.dpg";
  std::unique_ptr<P2PSystem> system;
  for (int s = 0; s < kSetupReps; ++s) {
    system.reset();
    ++r.attempted;
    const double setup_start = now_s();
    std::optional<Digraph> g;
    r.sample("graph.load_s", timed(log, "graph.load", [&] {
               g.emplace(load_graph(graph_path));
             }));
    r.sample("core.build_s", timed(log, "core.build", [&] {
               system = std::make_unique<P2PSystem>(*g, *corpus, cfg);
             }));
    std::uint64_t passes = 0;
    r.sample("core.converge_s", timed(log, "core.converge",
                                      [&] { passes = system->converge(); }));
    r.sample("setup_s", now_s() - setup_start);
    r.check(passes > 0, "converge() ran no passes");
    if (s == kSetupReps - 1) {
      r.values["graph.bytes_per_edge"] = compute_layout_stats(*g).bytes_per_edge;
    }
  }

  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  auto& query_s = r.samples["search.query_s"];
  auto& query_terms = r.samples["search.query_terms"];
  auto& query_after_write = r.samples["search.query_after_write"];
  auto& query_ids = r.samples["search.query_ids"];
  auto& query_guard = r.samples["search.query_in_guard"];
  auto& op_s = r.samples["search.op_s"];  // every operation, in order
  auto& recorded = r.samples["trace.recorded"];
  std::vector<NodeId> inserted;
  bool wrote = false;
  SearchOp op;
  // The end state compared across runs, and the peak memory of set-up plus
  // the guard prefix: neither may depend on how many operations fit in the
  // run, and the process's memory grows with the writes it has done.
  const auto at_guard = [&] {
    r.digest = fnv1a_rank_digest(system->ranks());
    r.peak_rss_bytes = obs::peak_rss_bytes();
  };
  const double deadline = now_s() + a.seconds;
  std::uint64_t done = 0;
  try {
    for (; done < kSearchGuardOps || now_s() < deadline; ++done) {
      if (done == kSearchGuardOps) at_guard();
      log.record((done / kSearchTraceWindow) % 2 == 0);
      if (log.tracing()) recorded.push_back(log.on() ? 1.0 : 0.0);
      ops->next(op);
      const bool in_guard = done < kSearchGuardOps;
      ++r.attempted;
      if (op.kind == SearchOp::Kind::kQuery) {
        QueryOutcome out;
        const double dt = timed(log, "search.query",
                                [&] { out = system->search(op.terms, top10); });
        op_s.push_back(dt);
        query_s.push_back(dt);
        query_terms.push_back(static_cast<double>(op.terms.size()));
        query_after_write.push_back(wrote ? 1.0 : 0.0);
        query_ids.push_back(static_cast<double>(out.ids_transferred));
        query_guard.push_back(in_guard ? 1.0 : 0.0);
        wrote = false;
        continue;
      }
      const std::uint64_t msgs_before = system->traffic().messages();
      if (op.kind == SearchOp::Kind::kAdd) {
        // Three live out-links, drawn outside the timer.
        Rng link_rng(op.link_seed);
        std::vector<NodeId> links;
        while (links.size() < 3) {
          const auto v =
              static_cast<NodeId>(link_rng.bounded(system->num_documents()));
          if (system->is_live(v)) links.push_back(v);
        }
        NodeId id = 0;
        const double dt = timed(log, "core.add_document", [&] {
          id = system->add_document(op.terms, links);
        });
        op_s.push_back(dt);
        inserted.push_back(id);
        r.sample("core.insert_s", dt);
      } else {
        const NodeId victim = inserted.back();
        inserted.pop_back();
        const double dt = timed(log, "core.remove_document",
                                [&] { system->remove_document(victim); });
        op_s.push_back(dt);
        r.sample("core.delete_s", dt);
      }
      wrote = true;
      if (in_guard) {
        r.sample("core.write_messages",
                 static_cast<double>(system->traffic().messages() - msgs_before));
      }
    }
  } catch (const std::exception& e) {
    r.fail("op " + std::to_string(done) + ": " + e.what());
  }
  log.record(true);
  if (done == kSearchGuardOps) at_guard();
  const ScopedSpan check(log, "harness.check");
  r.check(done >= kSearchGuardOps, "fewer ops than the guard prefix");
  for (const std::string& issue : system->validate()) {
    r.fail("validate: " + issue);
  }
}

// ---- command line ---------------------------------------------------------

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got: " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - first) % 2 != 0) {
    throw std::invalid_argument("every flag takes one value");
  }
  return flags;
}

std::string require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

int cmd_stamp() {
  std::cout << "{\"simd_level\": \"" << simd::level_name(simd::active_level())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"contracts\": "
            << (contracts::enabled() ? "true" : "false")
            << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}\n";
  return 0;
}

int cmd_prepare(const std::map<std::string, std::string>& flags) {
  prepare(require(flags, "workload"), std::stoull(require(flags, "seed")),
          require(flags, "dir"));
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  RunArgs a;
  a.workload = require(flags, "workload");
  a.seed = std::stoull(require(flags, "seed"));
  a.seconds = std::stod(require(flags, "seconds"));
  a.trace = require(flags, "trace") == "1";
  a.dir = require(flags, "dir");
  (void)docs_of(a.workload);  // rejects unknown names

  SpanLog log(a.trace);
  Result r;
  {
    const ScopedSpan root(log, "harness.workload");
    try {
      if (is_rank_workload(a.workload)) {
        run_rank(a, r, log);
      } else if (a.workload == "stream_ingest") {
        run_stream(a, r, log);
      } else {
        run_search(a, r, log);
      }
    } catch (const std::exception& e) {
      r.fail(std::string("workload aborted: ") + e.what());
    }
    log.record(true);
  }
  write_result(std::cout, a.workload, a.seed, a.trace, r, log);
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver stamp | prepare ... | run ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "stamp") return cmd_stamp();
  const auto flags = parse_flags(argc, argv, 2);
  if (cmd == "prepare") return cmd_prepare(flags);
  if (cmd == "run") return cmd_run(flags);
  std::cerr << "unknown command: " << cmd << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    (void)perfbench::origin();
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
