// Microbenchmarks of the substrate layers: graph construction, overlay
// routing, samplers, index operations and the engines' per-document
// costs. These are throughput numbers for the data structures the
// table-level benches are built on, useful when tuning or porting.

#include <benchmark/benchmark.h>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "dht/can.hpp"
#include "dht/pastry.hpp"
#include "dht/ring.hpp"
#include "graph/generator.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "search/bloom.hpp"
#include "search/corpus.hpp"
#include "search/distributed_index.hpp"
#include "sim/experiment.hpp"

#include <algorithm>
#include <vector>

namespace dprank {
namespace {

void BM_GraphGeneration(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Digraph g = paper_graph(nodes, seed++);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_GraphGeneration)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_CsrFromEdges(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const Digraph g = paper_graph(nodes, 7);
  const auto edges = g.edge_list();
  for (auto _ : state) {
    const Digraph rebuilt =
        Digraph::from_edges(g.num_nodes(), edges);
    benchmark::DoNotOptimize(rebuilt.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_CsrFromEdges)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_ChordRoute(benchmark::State& state) {
  const auto peers = static_cast<PeerId>(state.range(0));
  const ChordRing ring(peers);
  Rng rng(3);
  for (auto _ : state) {
    const auto route = ring.route(
        static_cast<PeerId>(rng.bounded(peers)), Guid{rng(), rng()});
    benchmark::DoNotOptimize(route.hop_count());
  }
}
BENCHMARK(BM_ChordRoute)->Arg(50)->Arg(500)->Arg(2'000);

// The ring table is rebuilt by construction, join and leave; this is the
// cost moved out of each lookup.
void BM_ChordRingBuild(benchmark::State& state) {
  const auto peers = static_cast<PeerId>(state.range(0));
  for (auto _ : state) {
    const ChordRing ring(peers);
    benchmark::DoNotOptimize(ring.size());
  }
}
BENCHMARK(BM_ChordRingBuild)->Arg(50)->Arg(500)->Arg(2'000)
    ->Unit(benchmark::kMicrosecond);

void BM_PastryRoute(benchmark::State& state) {
  const auto peers = static_cast<PeerId>(state.range(0));
  const PastryRing ring(peers);
  Rng rng(4);
  for (auto _ : state) {
    const auto route = ring.route(
        static_cast<PeerId>(rng.bounded(peers)), Guid{rng(), rng()});
    benchmark::DoNotOptimize(route.hop_count());
  }
}
BENCHMARK(BM_PastryRoute)->Arg(50)->Arg(500);

void BM_CanRoute(benchmark::State& state) {
  const auto peers = static_cast<PeerId>(state.range(0));
  const CanSpace can(peers);
  Rng rng(5);
  for (auto _ : state) {
    const auto route = can.route(
        static_cast<PeerId>(rng.bounded(peers)), Guid{rng(), rng()});
    benchmark::DoNotOptimize(route.hop_count());
  }
}
BENCHMARK(BM_CanRoute)->Arg(50)->Arg(500);

void BM_PowerLawSample(benchmark::State& state) {
  const PowerLawSampler sampler(2.1, 1, 1000);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_PowerLawSample);

void BM_BloomInsertQuery(benchmark::State& state) {
  BloomFilter filter(100'000, 8.0);
  Rng rng(7);
  for (auto _ : state) {
    const auto x = rng();
    filter.insert(x);
    benchmark::DoNotOptimize(filter.possibly_contains(x ^ 1));
  }
}
BENCHMARK(BM_BloomInsertQuery);

void BM_CentralizedSweep(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const auto graph = cached_paper_graph(nodes, experiment_seed());
  std::vector<double> in(graph->num_nodes(), 1.0);
  std::vector<double> out(graph->num_nodes());
  for (auto _ : state) {
    pagerank_sweep(*graph, 0.85, in, out);
    in.swap(out);
    benchmark::DoNotOptimize(in.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(graph->num_edges()));
}
BENCHMARK(BM_CentralizedSweep)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_DistributedFullRun(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  const auto graph = cached_paper_graph(nodes, experiment_seed());
  const auto placement =
      Placement::random(nodes, 500, experiment_seed());
  PagerankOptions opts;
  opts.epsilon = 1e-3;
  for (auto _ : state) {
    DistributedPagerank engine(*graph, placement, opts);
    const auto run = engine.run();
    benchmark::DoNotOptimize(run.passes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_DistributedFullRun)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_IndexBuild(benchmark::State& state) {
  CorpusParams cp;
  cp.num_docs = 11'000;
  const Corpus corpus = Corpus::synthesize(cp);
  const ChordRing ring(50);
  for (auto _ : state) {
    const DistributedIndex index(corpus, ring);
    benchmark::DoNotOptimize(index.total_postings());
  }
  state.SetLabel("11k docs / 1880 terms");
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

// One write's index refresh at search_mixed scale (11k docs, 1880 terms,
// 50 peers): 24 documents each take a new rank, 1% up or down, under all
// their terms, as P2PSystem::refresh_index does after an insert. Ranks
// come from the paper graph's pagerank. Each update moves one entry of
// the index's one rank order; no list keeps state of its own.
void BM_IndexUpdateRank(benchmark::State& state) {
  const CorpusParams cp;
  const Corpus corpus = Corpus::synthesize(cp);
  const ChordRing ring(50);
  DistributedIndex index(corpus, ring);
  std::vector<double> ranks =
      centralized_pagerank(paper_graph(cp.num_docs, cp.seed), 0.85, 1e-9)
          .ranks;
  Rng rng(5);
  std::vector<PeerId> owner(cp.num_docs);
  for (PeerId& o : owner) o = static_cast<PeerId>(rng.bounded(50));
  index.publish_ranks(ranks, owner);
  std::vector<NodeId> docs;
  while (docs.size() < 24) {
    const auto d = static_cast<NodeId>(rng.bounded(cp.num_docs));
    if (std::find(docs.begin(), docs.end(), d) == docs.end()) docs.push_back(d);
  }
  TrafficMeter meter;
  double factor = 1.01;
  for (auto _ : state) {
    for (const NodeId d : docs) {
      ranks[d] *= factor;
      index.update_rank(d, corpus.terms_of(d), ranks[d], owner[d], &meter);
    }
    factor = 1.0 / factor;
  }
  benchmark::DoNotOptimize(meter.messages());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(docs.size()));
}
BENCHMARK(BM_IndexUpdateRank)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dprank

BENCHMARK_MAIN();
