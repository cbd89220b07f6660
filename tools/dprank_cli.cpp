// dprank command-line interface.
//
// Subcommands:
//   gen     --nodes N [--seed S] [--dangling F] --out FILE
//           synthesize a web-like link graph and save it
//   stats   --graph FILE
//           degree statistics + Broder bow-tie decomposition
//   rank    --graph FILE [--peers P] [--epsilon E] [--placement MODE]
//           [--availability F] [--threads T] [--seed S] [--ranks-out FILE]
//           [--schedule fifo|residual] [--adaptive-epsilon]
//           [--check-invariants [N]]
//           run the distributed pagerank computation (the paper's
//           chaotic iteration, fifo by default); --availability F in
//           (0, 1] keeps that fraction of the peers present each pass
//           (below 1, per-pass churn); --schedule residual
//           enables residual-prioritized scheduling (fewer update
//           messages, ranks within epsilon of fifo) and
//           --adaptive-epsilon additionally loosens the emission
//           threshold early and tightens it as the run converges;
//           --check-invariants runs the full contract-validator sweep
//           every N passes (default every pass) — needs a build with
//           DPRANK_CHECK_INVARIANTS=ON (the default outside Release)
//   insert  --graph FILE [--epsilon E] [--count K] [--seed S]
//           measure insert-propagation cost (Table 4's experiment)
//   search  [--docs N] [--peers P] [--queries Q] [--terms T] [--top PCT]
//           [--seed S]
//           corpus + distributed index + incremental search (Q >= 1,
//           PCT in (0, 100], N at most ~4.5M: the index's term bitmaps,
//           N x 1880 bits, may take at most 1 GiB)
//   system  [--docs N] [--vocab V] [--peers P] [--ops K] [--epsilon E]
//           [--seed S]
//           full-system lifecycle and consistency doctor (V >= 200, a
//           document's largest term set, and N x V bits of term bitmaps
//           at most 1 GiB)
//   stream  [--docs N] [--events E] [--batch B] [--reconverge-every R]
//           [--peers P] [--rate EPS] [--epsilon E] [--seed S] [--top K]
//           continuous ingest through the live-rank service: a seeded
//           event stream (inserts/deletes/edge mutations) is batched
//           into coalesced rank cascades while top-k and point queries
//           are served between batches; --reconverge-every R runs a
//           full distributed reconvergence (churn + mass audit) every
//           R offered events over P peers (default 16, at least 2),
//           warm-started from the previous mark.
//           Prints per-mark staleness vs the fully-reconverged oracle,
//           each reconvergence's mass_ratio, passes and wall time, and
//           the final top-k.
//           (`dprank_cli --stream ...` is accepted as an alias.)
//
// rank/insert/search also take the telemetry flags (stream takes
// --metrics-out):
//   --metrics-out FILE   dump the run's metrics registry as JSON
//   --trace-out FILE     dump a Chrome trace_event JSON (open in Perfetto)
//
// A flag the subcommand does not take is an error, raised before any
// graph is loaded or generated.
//
// Examples:
//   dprank_cli gen --nodes 100000 --out web.dpg
//   dprank_cli rank --graph web.dpg --peers 500 --epsilon 1e-3
//   dprank_cli search --docs 11000 --terms 2 --top 10
//   dprank_cli system --docs 5000 --ops 20   (lifecycle + doctor)

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "graph/generator.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_stats.hpp"
#include "graph/scc.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p2p/placement.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/incremental.hpp"
#include "pagerank/quality.hpp"
#include "search/corpus.hpp"
#include "search/distributed_index.hpp"
#include "search/incremental_search.hpp"
#include "core/p2p_system.hpp"
#include "search/query_gen.hpp"
#include "sim/experiment.hpp"
#include "sim/time_model.hpp"
#include "stream/ingest_coordinator.hpp"
#include "stream/live_rank_service.hpp"
#include "stream/stream_source.hpp"

namespace dprank::cli {
namespace {

class Args {
 public:
  /// Parses argv[first..] for the subcommand `cmd`, which takes exactly
  /// the flags in `known`; any other flag is refused.
  Args(int argc, char** argv, int first, std::string_view cmd,
       const std::vector<std::string_view>& known) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --flag, got: " + key);
      }
      key = key.substr(2);
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw std::invalid_argument(std::string(cmd) + ": unknown flag --" +
                                    key);
      }
      // Boolean flags: a flag followed by another --flag (or the end of
      // the line) stands alone and reads as "1" (--check-invariants).
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        values_[key] = "1";
      } else {
        values_[key] = argv[++i];
      }
    }
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required --" + key);
    }
    return it->second;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  /// Unsigned flag: the whole token is decimal digits (no sign, no
  /// trailing characters) and the value fits T.
  template <typename T = std::uint64_t>
  [[nodiscard]] T get_uint(const std::string& key,
                           std::type_identity_t<T> fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::uint64_t v = 0;
    if (!parse_whole(it->second, v) || v > std::numeric_limits<T>::max()) {
      throw std::invalid_argument(
          "--" + key + ": expected an integer in [0, " +
          std::to_string(std::numeric_limits<T>::max()) + "], got '" +
          it->second + "'");
    }
    return static_cast<T>(v);
  }
  /// Floating-point flag: the whole token parses to a finite value.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double v = 0.0;
    if (!parse_whole(it->second, v) || !std::isfinite(v)) {
      throw std::invalid_argument("--" + key +
                                  ": expected a finite number, got '" +
                                  it->second + "'");
    }
    return v;
  }
  /// Tolerance flag (--epsilon): finite and above zero. At or below zero
  /// no significance test ever stops a cascade or a pass.
  [[nodiscard]] double get_tolerance(const std::string& key,
                                     double fallback) const {
    const double v = get_double(key, fallback);
    if (v <= 0.0) {
      throw std::invalid_argument("--" + key +
                                  ": expected a number above zero, got '" +
                                  get(key, "") + "'");
    }
    return v;
  }

 private:
  /// std::from_chars over the whole token: no whitespace, no '+', nothing
  /// trailing, and out-of-range values fail.
  template <typename T>
  static bool parse_whole(const std::string& token, T& out) {
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return ec == std::errc{} && ptr == end;
  }

  std::map<std::string, std::string> values_;
};

/// Shared --metrics-out / --trace-out handling. Call after the run;
/// writes only the artifacts the user asked for.
void write_telemetry_outputs(const Args& args,
                             const obs::MetricsRegistry& registry,
                             const obs::Tracer& tracer) {
  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    obs::write_metrics_json_file(registry.snapshot(), metrics_out);
    std::cout << "wrote metrics to " << metrics_out << "\n";
  }
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) {
    obs::write_chrome_trace_file(tracer, trace_out);
    std::cout << "wrote trace to " << trace_out << " ("
              << tracer.events().size() << " events)\n";
  }
}

int cmd_gen(const Args& args) {
  WebGraphParams params;
  params.num_nodes = args.get_uint("nodes", 10'000);
  if (params.num_nodes > kMaxLoadNodes) {
    // The file would be one that stats, rank and insert refuse to load.
    throw std::invalid_argument(
        "--nodes: expected at most " + std::to_string(kMaxLoadNodes) +
        " (the loader's cap), got '" + args.get("nodes", "") + "'");
  }
  params.seed = args.get_uint("seed", 42);
  params.dangling_fraction = args.get_double("dangling", 0.0);
  const std::string out = args.require("out");
  std::cout << "Generating " << params.num_nodes
            << "-node web graph (seed " << params.seed << ")...\n";
  const Digraph g = generate_web_graph(params);
  save_graph(g, out);
  std::cout << "Wrote " << g.num_edges() << " edges to " << out << "\n";
  return 0;
}

int cmd_stats(const Args& args) {
  const Digraph g = load_graph(args.require("graph"));
  const auto deg = compute_degree_stats(g);
  std::cout << "nodes:            " << format_count(g.num_nodes()) << "\n"
            << "edges:            " << format_count(g.num_edges()) << "\n"
            << "avg out-degree:   " << format_fixed(deg.out_degree.mean(), 2)
            << " (max " << format_count(static_cast<std::uint64_t>(
                               deg.out_degree.max()))
            << ")\n"
            << "avg in-degree:    " << format_fixed(deg.in_degree.mean(), 2)
            << " (max " << format_count(static_cast<std::uint64_t>(
                               deg.in_degree.max()))
            << ")\n"
            << "dangling nodes:   " << format_count(deg.dangling_nodes) << "\n"
            << "sourceless nodes: " << format_count(deg.sourceless_nodes)
            << "\n";
  const auto bt = bowtie_decomposition(g);
  std::cout << "bow-tie: core " << format_count(bt.core) << ", in "
            << format_count(bt.in) << ", out " << format_count(bt.out)
            << ", other " << format_count(bt.other) << "\n";
  return 0;
}

int cmd_rank(const Args& args) {
  const auto peers = args.get_uint<PeerId>("peers", 500);
  const double epsilon = args.get_tolerance("epsilon", 1e-3);
  const double availability = args.get_double("availability", 1.0);
  if (!(availability > 0.0 && availability <= 1.0)) {
    // Refused here, not by ChurnSchedule after the graph has loaded: its
    // message would not name the flag, and above 1 it runs without churn.
    throw std::invalid_argument(
        "--availability: expected a fraction in (0, 1], got '" +
        args.get("availability", "") + "'");
  }
  const auto seed = args.get_uint("seed", 42);
  const std::string placement_mode = args.get("placement", "random");
  const Digraph g = load_graph(args.require("graph"));

  const Placement placement =
      placement_mode == "cluster"
          ? Placement::by_link_clustering(g, peers, seed)
          : Placement::random(g.num_nodes(), peers, seed);

  PagerankOptions options;
  options.epsilon = epsilon;
  options.threads =
      args.get_uint<std::uint32_t>("threads", experiment_threads());
  const std::string schedule = args.get("schedule", "fifo");
  if (schedule == "residual") {
    options.schedule = Schedule::kResidual;
  } else if (schedule != "fifo") {
    throw std::invalid_argument("--schedule must be fifo or residual, got: " +
                                schedule);
  }
  options.adaptive_epsilon = args.get_uint("adaptive-epsilon", 0) != 0;
  if (options.adaptive_epsilon && options.schedule != Schedule::kResidual) {
    throw std::invalid_argument(
        "--adaptive-epsilon requires --schedule residual");
  }
  options.validate_every_n_passes = args.get_uint("check-invariants", 0);
  if (options.validate_every_n_passes != 0 && !contracts::enabled()) {
    std::cerr << "warning: --check-invariants requested but contract "
                 "checks are compiled out; rebuild with "
                 "-DDPRANK_CHECK_INVARIANTS=ON\n";
  }

  DistributedPagerank engine(g, placement, options);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  engine.attach_metrics(registry);
  if (!args.get("trace-out", "").empty()) {
    engine.attach_tracer(tracer, make_pass_clock(NetworkParams{}));
  }
  DistributedRunResult run;
  if (availability < 1.0) {
    ChurnSchedule churn(peers, availability, seed);
    run = engine.run(&churn);
  } else {
    run = engine.run();
  }

  std::cout << "converged: " << (run.converged ? "yes" : "NO") << " in "
            << run.passes << " passes\n"
            << "messages:  " << format_count(engine.traffic().messages())
            << " (" << format_count(engine.traffic().bytes()) << " bytes)\n"
            << "local upd: " << format_count(engine.traffic().local_updates())
            << "\n";
  if (options.schedule == Schedule::kResidual) {
    std::uint64_t deferred = 0;
    for (const auto& pass : engine.pass_history()) {
      deferred += pass.docs_deferred;
    }
    std::cout << "deferred:  " << format_count(deferred)
              << " recomputes postponed by the residual schedule\n";
  }

  const std::string ranks_out = args.get("ranks-out", "");
  if (!ranks_out.empty()) {
    std::ofstream os(ranks_out);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      os << v << ' ' << engine.ranks()[v] << '\n';
    }
    std::cout << "wrote ranks to " << ranks_out << "\n";
  }
  write_telemetry_outputs(args, registry, tracer);
  return 0;
}

int cmd_insert(const Args& args) {
  const double epsilon = args.get_tolerance("epsilon", 1e-3);
  const auto count = args.get_uint("count", 100);
  const auto seed = args.get_uint("seed", 42);
  const Digraph g = load_graph(args.require("graph"));

  std::vector<double> ranks = centralized_pagerank(g, 0.85, 1e-10).ranks;
  PagerankOptions options;
  options.epsilon = epsilon;
  IncrementalPagerank engine(g, ranks, options);
  Rng rng(seed);
  // The incremental engine has no attach hooks (each probe is a tiny
  // local computation); record per-probe stats here instead.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  auto& probe_count = registry.counter("insert.probes");
  auto& path_hist = registry.histogram("insert.path_length");
  auto& coverage_hist = registry.histogram("insert.nodes_covered");
  auto& update_hist = registry.histogram("insert.updates_delivered");
  double path = 0;
  double coverage = 0;
  double messages = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto node = static_cast<NodeId>(rng.bounded(g.num_nodes()));
    const auto stats = engine.probe_insert(node);
    path += stats.path_length;
    coverage += static_cast<double>(stats.nodes_covered);
    messages += static_cast<double>(stats.updates_delivered);
    probe_count.add();
    path_hist.record(stats.path_length);
    coverage_hist.record(static_cast<double>(stats.nodes_covered));
    update_hist.record(static_cast<double>(stats.updates_delivered));
    tracer.complete("insert.probe", "insert", 0, stats.path_length,
                    {{"node", static_cast<double>(node)},
                     {"covered", static_cast<double>(stats.nodes_covered)},
                     {"updates", static_cast<double>(stats.updates_delivered)}});
    tracer.advance_time(tracer.now_us() + stats.path_length);
  }
  const auto n = static_cast<double>(count);
  std::cout << "inserts probed:    " << count << "\n"
            << "avg path length:   " << format_fixed(path / n, 1) << "\n"
            << "avg node coverage: " << format_fixed(coverage / n, 0) << "\n"
            << "avg messages:      " << format_fixed(messages / n, 0)
            << "\n";
  write_telemetry_outputs(args, registry, tracer);
  return 0;
}

/// The largest keyword index search and system build: its term bitmaps
/// hold one bit per (term, document).
constexpr std::uint64_t kMaxIndexBytes = std::uint64_t{1} << 30;

/// Refuses, naming `flag`, a corpus whose index bitmaps would exceed
/// kMaxIndexBytes; called before anything is built.
void check_index_size(const CorpusParams& cp, const std::string& flag,
                      const Args& args) {
  const std::uint64_t bytes =
      DistributedIndex::bitmap_bytes(cp.num_docs, cp.vocabulary);
  if (bytes > kMaxIndexBytes) {
    throw std::invalid_argument(
        "--" + flag + ": " + std::to_string(cp.num_docs) +
        " documents over " + std::to_string(cp.vocabulary) + " terms need " +
        std::to_string(bytes >> 20) +
        " MiB of index bitmaps, above the 1 GiB cap, got '" +
        args.get(flag, "") + "'");
  }
}

int cmd_search(const Args& args) {
  CorpusParams cp;
  cp.num_docs = args.get_uint<std::uint32_t>("docs", 11'000);
  check_index_size(cp, "docs", args);
  cp.seed = args.get_uint("seed", 42);
  const auto peers = args.get_uint<PeerId>("peers", 50);
  const auto num_queries = args.get_uint<std::uint32_t>("queries", 20);
  if (num_queries == 0) {
    throw std::invalid_argument("--queries: expected at least 1, got '" +
                                args.get("queries", "") + "'");
  }
  const auto terms = args.get_uint<std::uint32_t>("terms", 2);
  const double top_pct = args.get_double("top", 10.0);
  if (!(top_pct > 0.0 && top_pct <= 100.0)) {
    throw std::invalid_argument(
        "--top: expected a percentage in (0, 100], got '" +
        args.get("top", "") + "'");
  }

  const Corpus corpus = Corpus::synthesize(cp);
  ExperimentConfig cfg;
  cfg.num_docs = cp.num_docs;
  cfg.num_peers = peers;
  cfg.seed = cp.seed;
  const StandardExperiment exp(cfg);
  // One registry/tracer covers both phases: the rank computation that
  // seeds the index and the query fan-out below share the output files.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  const bool want_trace = !args.get("trace-out", "").empty();
  StandardExperiment::Telemetry telemetry;
  telemetry.registry = &registry;
  telemetry.tracer = want_trace ? &tracer : nullptr;
  const auto outcome = exp.run_distributed(nullptr, telemetry);

  ChordRing ring(peers);
  DistributedIndex index(corpus, ring);
  std::vector<PeerId> owner(cp.num_docs);
  for (NodeId d = 0; d < cp.num_docs; ++d) {
    owner[d] = exp.placement().peer_of(d);
  }
  index.publish_ranks(outcome.ranks, owner);

  SearchEngine engine(index);
  engine.bind_metrics(registry);
  if (want_trace) engine.bind_tracer(tracer);
  SearchPolicy policy;
  policy.forward_fraction = top_pct / 100.0;
  const auto queries = generate_queries(
      corpus, {.term_pool = 100, .num_queries = num_queries,
               .terms_per_query = terms, .seed = cp.seed});
  double base_ids = 0;
  double inc_ids = 0;
  double hits = 0;
  for (const auto& q : queries) {
    base_ids += static_cast<double>(
        engine.run_query(q, kForwardEverything).ids_transferred);
    const auto out = engine.run_query(q, policy);
    inc_ids += static_cast<double>(out.ids_transferred);
    hits += static_cast<double>(out.hits.size());
  }
  std::cout << num_queries << " " << terms << "-term queries, top-"
            << top_pct << "% forwarding:\n"
            << "  traffic reduction: "
            << format_fixed(base_ids / std::max(1.0, inc_ids), 1) << "x\n"
            << "  avg hits returned: "
            << format_fixed(hits / num_queries, 1) << "\n";
  write_telemetry_outputs(args, registry, tracer);
  return 0;
}

int cmd_system(const Args& args) {
  // Scripted full-system lifecycle: bootstrap, converge, N random
  // inserts/deletes/searches, then the consistency doctor.
  CorpusParams cp;
  cp.num_docs = args.get_uint<std::uint32_t>("docs", 5'000);
  cp.vocabulary = args.get_uint<TermId>("vocab", 500);
  cp.mean_terms = 40;
  cp.min_terms = 5;
  cp.max_terms = 200;
  if (cp.vocabulary < cp.max_terms) {
    throw std::invalid_argument(
        "--vocab: expected at least " + std::to_string(cp.max_terms) +
        " (a document's largest term set), got '" + args.get("vocab", "") +
        "'");
  }
  // --docs when no vocabulary would fit, else --vocab.
  check_index_size(cp,
                   DistributedIndex::bitmap_bytes(cp.num_docs, cp.max_terms) >
                           kMaxIndexBytes
                       ? "docs"
                       : "vocab",
                   args);
  cp.seed = args.get_uint("seed", 42);
  const auto ops = args.get_uint("ops", 20);
  const double epsilon = args.get_tolerance("epsilon", 1e-4);

  const Corpus corpus = Corpus::synthesize(cp);
  const Digraph graph = paper_graph(cp.num_docs, cp.seed);
  P2PSystemConfig cfg;
  cfg.num_peers = args.get_uint<PeerId>("peers", 50);
  cfg.pagerank.epsilon = epsilon;
  cfg.seed = cp.seed;
  P2PSystem system(graph, corpus, cfg);

  std::cout << "converge: " << system.converge() << " passes, "
            << format_count(system.traffic().messages()) << " messages\n";

  Rng rng(cp.seed ^ 0x0B5ULL);
  SearchPolicy top10;
  top10.forward_fraction = 0.10;
  std::vector<NodeId> inserted;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const auto kind = rng.bounded(3);
    if (kind == 0) {
      // A document's terms are a set; P2PSystem rejects repeats.
      std::vector<TermId> terms;
      while (terms.size() < std::min<std::size_t>(3, cp.vocabulary)) {
        const auto t = static_cast<TermId>(rng.bounded(cp.vocabulary));
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
      std::vector<NodeId> links;
      for (int l = 0; l < 3; ++l) {
        NodeId v = static_cast<NodeId>(rng.bounded(system.num_documents()));
        while (!system.is_live(v)) {
          v = static_cast<NodeId>(rng.bounded(system.num_documents()));
        }
        links.push_back(v);
      }
      inserted.push_back(system.add_document(terms, links));
      std::cout << "  insert doc-" << inserted.back() << "\n";
    } else if (kind == 1 && !inserted.empty()) {
      const NodeId victim = inserted.back();
      inserted.pop_back();
      if (system.is_live(victim)) {
        system.remove_document(victim);
        std::cout << "  delete doc-" << victim << "\n";
      }
    } else {
      const std::vector<TermId> q{
          static_cast<TermId>(rng.bounded(50)),
          static_cast<TermId>(rng.bounded(50))};
      const auto out = system.search(q, top10);
      std::cout << "  search {t" << q[0] << ", t" << q[1] << "}: "
                << out.hits.size() << " hits, " << out.ids_transferred
                << " ids moved\n";
    }
  }

  const auto issues = system.validate();
  std::cout << "doctor: "
            << (issues.empty() ? "all invariants hold"
                               : std::to_string(issues.size()) +
                                     " violations:")
            << "\n";
  for (const auto& issue : issues) std::cout << "  ! " << issue << "\n";
  std::cout << "total traffic: "
            << format_count(system.traffic().messages()) << " messages\n";
  return issues.empty() ? 0 : 1;
}

int cmd_stream(const Args& args) {
  const auto docs = args.get_uint<NodeId>("docs", 2'000);
  const auto events = args.get_uint("events", 240);
  const auto batch = args.get_uint<std::uint32_t>("batch", 16);
  const auto reconverge_every = args.get_uint("reconverge-every", 0);
  const double rate = args.get_double("rate", 1'000.0);
  const auto seed = args.get_uint("seed", 42);
  const auto top_k = args.get_uint("top", 10);
  const double epsilon = args.get_tolerance("epsilon", 1e-6);
  // Only reconvergence reads --peers: its campaign places one replica
  // per document on a second peer.
  const auto peers = args.get_uint<PeerId>("peers", 16);
  if (reconverge_every != 0 && peers < 2) {
    throw std::invalid_argument(
        "--peers: reconvergence needs at least 2 peers, got '" +
        args.get("peers", "") + "'");
  }

  std::cout << "Seeding " << format_count(docs)
            << "-doc graph and converging the baseline ranks...\n";
  const Digraph base = paper_graph(docs, seed);
  IngestConfig ic;
  ic.batch_size = batch;
  ic.reconverge_every_events = reconverge_every;
  ic.seed = seed;
  ic.options.epsilon = epsilon;
  ic.options.threads = 1;
  ic.reconverge.initial_peers = peers;
  ic.reconverge.events = 8;
  ic.reconverge.min_live = 8;
  ic.reconverge.replicas = 1;
  std::vector<double> ranks =
      centralized_pagerank(base, ic.options.damping, 1e-13).ranks;

  obs::MetricsRegistry registry;
  obs::Tracer tracer;  // stream has no tracer hooks; satisfies telemetry API
  IngestCoordinator coord(MutableDigraph(base), std::move(ranks), ic,
                          &registry);
  LiveRankService service(coord, &registry);

  StreamSourceConfig sc;
  sc.initial_docs = docs;
  sc.max_events = events;
  sc.seed = seed;
  sc.events_per_sec = rate;
  StreamSource source(sc);

  // Staleness marks: ~8 per run, clamped so short runs still report.
  const std::uint64_t mark = std::max<std::uint64_t>(1, events / 8);
  std::cout << "Ingesting " << format_count(events) << " events at "
            << format_fixed(rate, 0) << " events/s (batch " << batch
            << (reconverge_every != 0
                    ? ", reconverge every " +
                          std::to_string(reconverge_every)
                    : std::string(", no reconvergence"))
            << ")...\n";
  for (std::uint64_t i = 1; i <= events; ++i) {
    coord.offer(source.next());
    (void)service.top_k(top_k);  // reads land mid-ingest, between batches
    if (i % mark == 0 || i == events) {
      const StalenessReport rep = service.measure_staleness();
      std::cout << "  offered " << format_count(coord.events_offered())
                << "  applied " << format_count(coord.events_applied())
                << "  pending " << rep.pending_events << "  staleness mean "
                << format_sig(rep.mean_abs, 3) << " max "
                << format_sig(rep.max_abs, 3) << "\n";
    }
  }
  coord.flush();
  // Doctor-style final sweep (same contract as `doctor`'s
  // system.validate()): the served graph/rank state must be internally
  // consistent after the full ingest. No-op in contract-free builds.
  coord.validate();

  std::cout << "\nlive docs:     " << format_count(source.live_docs())
            << " (of " << format_count(coord.graph().num_nodes())
            << " ever allocated)\n"
            << "reconverges:   " << format_count(coord.reconverge_cycles())
            << "\n";
  for (const ReconvergeStats& m : coord.reconverge_history()) {
    std::cout << "  at " << format_count(m.events_offered)
              << " events  mass_ratio " << format_fixed(m.mass_ratio, 6)
              << "  " << format_count(m.passes) << " passes  "
              << format_fixed(m.wall_us / 1e3, 1) << " ms\n";
  }
  std::cout << "rank digest:   " << coord.digest() << "\n"
            << "topk cache:    " << format_count(service.topk_cache_hits())
            << " hits / " << format_count(service.topk_recomputes())
            << " recomputes\n\ntop-" << top_k << " documents:\n";
  for (const auto& [doc, rank] : service.top_k(top_k)) {
    std::cout << "  doc-" << doc << "  " << format_sig(rank, 6) << "\n";
  }
  write_telemetry_outputs(args, registry, tracer);
  return 0;
}

int usage() {
  std::cerr << "usage: dprank_cli <gen|stats|rank|insert|search|system"
               "|stream> [--flag value]\n"
               "see the header of tools/dprank_cli.cpp for per-command "
               "flags\n";
  return 2;
}

/// A subcommand and every flag it reads.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string_view cmd = argv[1];
  // `--stream` is accepted as an alias so the quickstart's flag-style
  // invocation works too.
  if (cmd == "--stream") cmd = "stream";
  const Command commands[] = {
      {"gen", cmd_gen, {"nodes", "seed", "dangling", "out"}},
      {"stats", cmd_stats, {"graph"}},
      {"rank",
       cmd_rank,
       {"graph", "peers", "epsilon", "availability", "seed", "placement",
        "threads", "schedule", "adaptive-epsilon", "check-invariants",
        "ranks-out", "metrics-out", "trace-out"}},
      {"insert",
       cmd_insert,
       {"graph", "epsilon", "count", "seed", "metrics-out", "trace-out"}},
      {"search",
       cmd_search,
       {"docs", "seed", "peers", "queries", "terms", "top", "metrics-out",
        "trace-out"}},
      {"system",
       cmd_system,
       {"docs", "vocab", "seed", "ops", "epsilon", "peers"}},
      {"stream",
       cmd_stream,
       {"docs", "events", "batch", "reconverge-every", "rate", "seed", "top",
        "epsilon", "peers", "metrics-out"}},
  };
  for (const Command& c : commands) {
    if (c.name == cmd) return c.run(Args(argc, argv, 2, c.name, c.flags));
  }
  return usage();
}

}  // namespace
}  // namespace dprank::cli

int main(int argc, char** argv) {
  try {
    return dprank::cli::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
