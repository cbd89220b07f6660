// Table 6: network traffic reduction from incremental search with
// pagerank, on the paper's corpus scale (~11k documents, 1880 terms,
// 50 peers, twenty 2-word and twenty 3-word queries over the top-100
// most frequent terms).
//
// Paper's result shape: forwarding the top 10% of hits cuts traffic
// ~12x; top 20% cuts ~6.5x; returned hit counts drop from ~1600/840
// (baseline 2/3-term) to tens.
//
// Extension rows: the Bloom-filter coupling §2.4.3 suggests, standalone
// and composed with top-10% forwarding.

#include "bench_util.hpp"

#include "search/corpus.hpp"
#include "search/distributed_index.hpp"
#include "search/incremental_search.hpp"
#include "search/query_gen.hpp"

#include <string>
#include <vector>

namespace dprank {
namespace {

struct Row {
  double traffic_reduction = 0.0;  // baseline ids / policy ids
  double avg_hits = 0.0;
  double avg_ids_transferred = 0.0;
  double byte_reduction = 0.0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

struct Workbench {
  Corpus corpus;
  ChordRing ring;
  DistributedIndex index;
  std::vector<std::vector<TermId>> queries2;
  std::vector<std::vector<TermId>> queries3;
};

Workbench& workbench() {
  // One corpus + index shared by every search benchmark in the binary;
  // rebuilding per run would dominate the timings.
  // dprank-analyze: allow(mutable-global) -- read-only after construction
  static Workbench wb = [] {
    CorpusParams cp;  // paper scale: 11k docs, 1880 terms
    cp.seed = experiment_seed();
    Corpus corpus = Corpus::synthesize(cp);

    // Pageranks from the distributed engine over an 11k-node link graph
    // on 50 peers (the paper's search testbed).
    ExperimentConfig cfg;
    cfg.num_docs = cp.num_docs;
    cfg.num_peers = 50;
    cfg.epsilon = 1e-3;
    cfg.seed = experiment_seed();
    const StandardExperiment exp(cfg);
    const auto outcome = exp.run_distributed();

    ChordRing ring(50);
    DistributedIndex index(corpus, ring);
    std::vector<PeerId> owner(cp.num_docs);
    for (NodeId d = 0; d < cp.num_docs; ++d) {
      owner[d] = exp.placement().peer_of(d);
    }
    index.publish_ranks(outcome.ranks, owner);

    auto q2 = generate_queries(corpus, {.term_pool = 100,
                                        .num_queries = 20,
                                        .terms_per_query = 2,
                                        .seed = experiment_seed()});
    auto q3 = generate_queries(corpus, {.term_pool = 100,
                                        .num_queries = 20,
                                        .terms_per_query = 3,
                                        .seed = experiment_seed()});
    return Workbench{std::move(corpus), std::move(ring), std::move(index),
                     std::move(q2), std::move(q3)};
  }();
  return wb;
}

SearchPolicy policy_by_name(const std::string& name) {
  SearchPolicy p;
  if (name == "baseline") {
    p = kForwardEverything;
  } else if (name == "top10") {
    p.forward_fraction = 0.10;
  } else if (name == "top20") {
    p.forward_fraction = 0.20;
  } else if (name == "bloom") {
    p = kForwardEverything;
    p.bloom_prefilter = true;
  } else {  // "top10+bloom"
    p.forward_fraction = 0.10;
    p.bloom_prefilter = true;
  }
  return p;
}

const std::vector<std::string> kPolicies{"baseline", "top10", "top20",
                                         "bloom", "top10+bloom"};

void BM_Search(benchmark::State& state) {
  auto& wb = workbench();
  const std::string policy_name = kPolicies[
      static_cast<std::size_t>(state.range(0))];
  const int terms = static_cast<int>(state.range(1));
  const auto& queries = terms == 2 ? wb.queries2 : wb.queries3;
  const SearchPolicy policy = policy_by_name(policy_name);
  const SearchPolicy baseline = kForwardEverything;
  SearchEngine engine(wb.index);

  for (auto _ : state) {
    double base_ids = 0;
    double base_bytes = 0;
    double ids = 0;
    double bytes = 0;
    double hits = 0;
    for (const auto& q : queries) {
      const auto base = engine.run_query(q, baseline);
      const auto out = engine.run_query(q, policy);
      base_ids += static_cast<double>(base.ids_transferred);
      base_bytes += static_cast<double>(base.wire_bytes);
      ids += static_cast<double>(out.ids_transferred);
      bytes += static_cast<double>(out.wire_bytes);
      hits += static_cast<double>(out.hits.size());
    }
    Row row;
    row.traffic_reduction = ids > 0 ? base_ids / ids : 0.0;
    row.avg_hits = hits / static_cast<double>(queries.size());
    row.avg_ids_transferred = ids / static_cast<double>(queries.size());
    row.byte_reduction = bytes > 0 ? base_bytes / bytes : 0.0;
    store().put(policy_name + "/" + std::to_string(terms), row);
    state.counters["traffic_reduction"] = row.traffic_reduction;
    state.counters["avg_hits"] = row.avg_hits;
  }
}

void register_benchmarks() {
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    for (const long terms : {2L, 3L}) {
      benchmark::RegisterBenchmark("table6/search", BM_Search)
          ->Args({static_cast<long>(p), terms})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_table() {
  benchutil::print_banner(
      "Table 6: incremental search traffic (20 queries each)");
  TextTable table({"Policy", "2-term reduction", "3-term reduction",
                   "2-term avg hits", "3-term avg hits",
                   "2-term avg IDs moved", "3-term avg IDs moved"});
  for (const auto& policy : kPolicies) {
    const auto* r2 = store().find(policy + "/2");
    const auto* r3 = store().find(policy + "/3");
    if (r2 == nullptr || r3 == nullptr) continue;
    table.add_row({policy,
                   policy == "baseline" ? "1.0 (ref)"
                                        : format_fixed(r2->traffic_reduction, 1),
                   policy == "baseline" ? "1.0 (ref)"
                                        : format_fixed(r3->traffic_reduction, 1),
                   format_fixed(r2->avg_hits, 1), format_fixed(r3->avg_hits, 1),
                   format_fixed(r2->avg_ids_transferred, 1),
                   format_fixed(r3->avg_ids_transferred, 1)});
  }
  benchutil::emit(table, "table6_1");

  std::cout << "\nByte-level reduction (Bloom filters move bits, not IDs):\n";
  TextTable bytes({"Policy", "2-term byte reduction", "3-term byte reduction"});
  for (const auto& policy : kPolicies) {
    const auto* r2 = store().find(policy + "/2");
    const auto* r3 = store().find(policy + "/3");
    if (r2 == nullptr || r3 == nullptr || policy == "baseline") continue;
    bytes.add_row({policy, format_fixed(r2->byte_reduction, 1),
                   format_fixed(r3->byte_reduction, 1)});
  }
  benchutil::emit(bytes, "table6_2");

  std::cout << "\nPaper (Table 6): top-10% forwarded -> 12.2x / 11.9x "
               "reduction, 55.3 / 41.7 avg hits; top-20% -> 6.5x / 6.9x, "
               "66.8 / 27.7 hits; baseline returned 1603.9 / 835.6 hits.\n";
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  const dprank::benchutil::WallTimer wall;
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  dprank::print_table();
  dprank::benchutil::write_bench_json("table6", wall.seconds(),
                                      dprank::benchutil::standard_config());
  benchmark::Shutdown();
  return 0;
}
