#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "graph/generator.hpp"
#include "graph/mutable_digraph.hpp"
#include "obs/metrics.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/distributed_engine.hpp"
#include "pagerank/quality.hpp"
#include "stream/ingest_coordinator.hpp"
#include "stream/live_rank_service.hpp"
#include "stream/stream_source.hpp"

namespace dprank {

// Friend of the validated classes (one definition per test binary, same
// pattern as test_validators.cpp): plants exactly one inconsistency so
// the negative tests can prove the contract sweep actually looks.
struct TestCorruptor {
  static void shrink_rank_vector(IngestCoordinator& c) {
    // Rank array out of step with the live graph — the coordinator's
    // own parallel-array invariant.
    c.ranks_.pop_back();
  }
  static void corrupt_adjacency_mirror(IngestCoordinator& c) {
    // An out-entry with no in-mirror, planted in the coordinator's
    // graph: caught one layer down, by MutableDigraph::validate().
    c.graph_.out_[0].push_back(1);
  }
};

namespace {

using contracts::ContractViolation;

// EXPECT_THROW cannot inspect the exception; this asserts both the type
// and that the violation names the expected subsystem.
template <typename Fn>
void expect_violation(const char* subsystem, Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    FAIL() << "expected ContractViolation from subsystem " << subsystem;
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.subsystem(), subsystem) << v.what();
    EXPECT_FALSE(v.expression().empty());
  }
}

#define SKIP_WITHOUT_CONTRACTS()                                          \
  if (!contracts::enabled()) {                                            \
    GTEST_SKIP() << "contracts compiled out (DPRANK_CHECK_INVARIANTS "    \
                    "off)";                                               \
  }

StreamSourceConfig source_config(NodeId initial_docs, std::uint64_t seed) {
  StreamSourceConfig sc;
  sc.initial_docs = initial_docs;
  sc.max_events = 1'000;
  sc.seed = seed;
  sc.min_live_docs = 8;
  return sc;
}

IngestConfig ingest_config(std::uint32_t batch_size) {
  IngestConfig ic;
  ic.batch_size = batch_size;
  ic.seed = 99;
  // Cascade work grows ~1/epsilon (Table 4); 1e-6 keeps the suite fast
  // while leaving truncation far below the tolerances asserted here.
  ic.options.epsilon = 1e-6;
  ic.options.damping = 0.85;
  ic.options.threads = 1;
  // Small reconvergence campaigns keep the tests fast.
  ic.reconverge.initial_peers = 8;
  ic.reconverge.events = 6;
  ic.reconverge.min_live = 4;
  return ic;
}

/// Fresh coordinator over a converged paper graph.
IngestCoordinator make_coordinator(NodeId docs, std::uint64_t graph_seed,
                                   const IngestConfig& ic) {
  const Digraph base = paper_graph(docs, graph_seed);
  std::vector<double> ranks =
      centralized_pagerank(base, ic.options.damping, 1e-13).ranks;
  return IngestCoordinator(MutableDigraph(base), std::move(ranks), ic);
}

TEST(StreamSource, DeterministicDoubleRun) {
  const StreamSourceConfig sc = source_config(100, 7);
  StreamSource a(sc);
  StreamSource b(sc);
  const auto ea = a.take(200);
  const auto eb = b.take(200);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    ASSERT_EQ(ea[i], eb[i]) << "event " << i;
  }
  // A different seed must produce a different stream.
  StreamSourceConfig other = sc;
  other.seed = 8;
  StreamSource c(other);
  EXPECT_NE(c.take(200), ea);
}

TEST(StreamSource, InsertsPredictSequentialIds) {
  const StreamSourceConfig sc = source_config(50, 3);
  StreamSource src(sc);
  NodeId expected = 50;
  for (const StreamEvent& ev : src.take(300)) {
    if (ev.kind == StreamEvent::Kind::kInsert) {
      EXPECT_EQ(ev.node, expected++);
      EXPECT_FALSE(ev.out_links.empty());
      EXPECT_LE(ev.out_links.size(), sc.max_out_links);
    }
    EXPECT_LT(ev.seq, 300u);
  }
  EXPECT_EQ(src.next_id(), expected);
  EXPECT_GE(src.live_docs(), sc.min_live_docs);
}

TEST(StreamSource, TimestampsFollowTheConfiguredRate) {
  StreamSourceConfig sc = source_config(50, 4);
  sc.events_per_sec = 500.0;  // 2000 us apart
  StreamSource src(sc);
  const auto events = src.take(10);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].timestamp_us, i * 2000);
  }
}

TEST(StreamSource, ValidatesConfig) {
  StreamSourceConfig sc = source_config(100, 1);
  sc.insert_weight = sc.delete_weight = 0;
  sc.add_edge_weight = sc.remove_edge_weight = 0;
  EXPECT_THROW(StreamSource{sc}, std::invalid_argument);
  StreamSourceConfig tiny = source_config(1, 1);
  EXPECT_THROW(StreamSource{tiny}, std::invalid_argument);
}

TEST(ApplyStructural, NoOpsAndErrors) {
  MutableDigraph g(NodeId{4});
  g.add_edge(0, 1);
  std::vector<std::uint8_t> dead(4, 0);

  StreamEvent dup;
  dup.kind = StreamEvent::Kind::kAddEdge;
  dup.node = 0;
  dup.target = 1;
  EXPECT_FALSE(apply_structural_event(g, dead, dup));  // duplicate edge

  StreamEvent naked;
  naked.kind = StreamEvent::Kind::kRemoveEdge;
  naked.node = 2;  // no out-links
  EXPECT_FALSE(apply_structural_event(g, dead, naked));

  StreamEvent del;
  del.kind = StreamEvent::Kind::kDelete;
  del.node = 1;
  EXPECT_TRUE(apply_structural_event(g, dead, del));
  EXPECT_FALSE(apply_structural_event(g, dead, del));  // tombstoned

  StreamEvent bad_insert;
  bad_insert.kind = StreamEvent::Kind::kInsert;
  bad_insert.node = 99;  // next id is 4
  EXPECT_THROW(apply_structural_event(g, dead, bad_insert),
               std::invalid_argument);
}

TEST(IngestCoordinator, StructureIdenticalAcrossBatchSizes) {
  const StreamSourceConfig sc = source_config(150, 21);
  NodeId ref_nodes = 0;
  EdgeId ref_edges = 0;
  for (const std::uint32_t batch : {1u, 7u, 32u}) {
    StreamSource src(sc);
    IngestCoordinator coord = make_coordinator(150, 21, ingest_config(batch));
    for (const StreamEvent& ev : src.take(150)) coord.offer(ev);
    coord.flush();
    coord.graph().validate();
    // Pin the structural end state against the batch-1 reference run.
    if (batch == 1) {
      ref_nodes = coord.graph().num_nodes();
      ref_edges = coord.graph().num_edges();
      EXPECT_GT(ref_nodes, 150u);  // inserts happened
    } else {
      EXPECT_EQ(coord.graph().num_nodes(), ref_nodes);
      EXPECT_EQ(coord.graph().num_edges(), ref_edges);
    }
  }
}

TEST(IngestCoordinator, CoalescedBatchMatchesPerEventIngest) {
  // The S3 equivalence contract. The two modes are not bit-identical:
  // per-event diffs see ranks already adjusted by earlier cascades in
  // the window, batched diffs all use the pre-batch snapshot — a
  // second-order difference of order d * delta per interaction, on top
  // of the epsilon truncation. Both must stay within a small relative
  // envelope of each other.
  const StreamSourceConfig sc = source_config(200, 31);
  StreamSource src1(sc);
  StreamSource srcN(sc);
  IngestCoordinator per_event =
      make_coordinator(200, 31, ingest_config(1));
  IngestCoordinator batched = make_coordinator(200, 31, ingest_config(8));
  for (const StreamEvent& ev : src1.take(200)) per_event.offer(ev);
  for (const StreamEvent& ev : srcN.take(200)) batched.offer(ev);
  per_event.flush();
  batched.flush();

  ASSERT_EQ(per_event.ranks().size(), batched.ranks().size());
  // The interaction term grows with the window (measured for this
  // seed with coalesced batch cascades: max 4.6e-4 at batch 2, 9.0e-4
  // at batch 8, 1.0e-3 at batch 24; per-message batch cascades read
  // 9.6e-4, 2.9e-3 and 3.0e-2). Both modes independently satisfy the
  // much looser fidelity bound against the exact solution
  // (TracksTheExactSolutionOfTheEvolvedGraph).
  const QualityReport q = summarize_quality(batched.ranks(), per_event.ranks());
  EXPECT_LT(q.max, 5e-3);
  // The orderings must agree almost everywhere (what search serves).
  EXPECT_GE(top_k_overlap(batched.ranks(), per_event.ranks(), 20), 0.9);
}

TEST(IngestCoordinator, TracksTheExactSolutionOfTheEvolvedGraph) {
  const StreamSourceConfig sc = source_config(200, 5);
  StreamSource src(sc);
  IngestConfig ic = ingest_config(16);
  IngestCoordinator coord = make_coordinator(200, 5, ic);
  for (const StreamEvent& ev : src.take(160)) coord.offer(ev);
  coord.flush();

  auto exact =
      centralized_pagerank(coord.graph().freeze(), ic.options.damping, 1e-13)
          .ranks;
  std::uint64_t live = 0;
  double max_err = 0.0;
  for (std::size_t v = 0; v < exact.size(); ++v) {
    if (coord.is_deleted(static_cast<NodeId>(v))) {
      // A full delete leaves no dangling rank, ever.
      ASSERT_DOUBLE_EQ(coord.ranks()[v], 0.0) << "tombstone " << v;
      ASSERT_TRUE(coord.graph().is_isolated(static_cast<NodeId>(v)));
      continue;
    }
    ++live;
    const double err = std::abs(coord.ranks()[v] - exact[v]) /
                       std::max(1.0, std::abs(exact[v]));
    max_err = std::max(max_err, err);
  }
  EXPECT_GT(live, 0u);
  // Incremental maintenance accumulates truncation + the paper's
  // unmodeled second-order terms; it must stay a faithful approximation.
  // (Measured 1.6e-5 for this seed with the coalesced batch cascade,
  // 2.5e-2 when each message met the epsilon test alone; batched ingest
  // gets MORE accurate as the window grows — the emission diff over the
  // final structure acts like a partial Jacobi sweep — so this bounds
  // the worst mode.)
  EXPECT_LT(max_err, 0.08);
}

TEST(IngestCoordinator, ReconvergenceAdoptsIdenticalRanksAcrossBatchSizes) {
  const StreamSourceConfig sc = source_config(150, 77);
  IngestConfig ic1 = ingest_config(1);
  IngestConfig icN = ingest_config(16);
  ic1.reconverge_every_events = 60;
  icN.reconverge_every_events = 60;
  StreamSource src1(sc);
  StreamSource srcN(sc);
  IngestCoordinator a = make_coordinator(150, 77, ic1);
  IngestCoordinator b = make_coordinator(150, 77, icN);
  for (const StreamEvent& ev : src1.take(60)) a.offer(ev);
  for (const StreamEvent& ev : srcN.take(60)) b.offer(ev);
  // The 60th offer hit the reconvergence mark in both: identical graphs,
  // identical campaign seeds, identical adopted ranks — bit for bit.
  ASSERT_EQ(a.reconverge_cycles(), 1u);
  ASSERT_EQ(b.reconverge_cycles(), 1u);
  EXPECT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.mass_ratios().size(), 1u);
  EXPECT_NEAR(a.mass_ratios()[0], 1.0, 1e-9);
  EXPECT_TRUE(a.last_batch_touched().empty());  // full-refresh signal
}

TEST(IngestCoordinator, DeterministicDoubleRunWithReconvergence) {
  const StreamSourceConfig sc = source_config(120, 13);
  IngestConfig ic = ingest_config(8);
  ic.reconverge_every_events = 50;
  std::uint64_t first = 0;
  for (int run = 0; run < 2; ++run) {
    StreamSource src(sc);
    IngestCoordinator coord = make_coordinator(120, 13, ic);
    for (const StreamEvent& ev : src.take(110)) coord.offer(ev);
    coord.flush();
    if (run == 0) {
      first = coord.digest();
    } else {
      EXPECT_EQ(coord.digest(), first);
    }
  }
}

TEST(IngestCoordinator, WarmStartedMarksAgreeAcrossBatchSizes) {
  // Three reconvergence marks, each warm-started from the previous mark's
  // campaign output: identical at every batch size after every mark,
  // fully accounted, and within the engine's quality bound of the exact
  // solution of the graph at the mark.
  constexpr std::uint64_t kEvery = 40;
  const StreamSourceConfig sc = source_config(150, 31);
  const auto config = [&](std::uint32_t batch) {
    IngestConfig ic = ingest_config(batch);
    ic.reconverge_every_events = kEvery;
    return ic;
  };
  // Built in place: a coordinator's engine is bound to its own graph, so
  // coordinators do not move.
  std::array<IngestCoordinator, 3> coords{
      make_coordinator(150, 31, config(1)),
      make_coordinator(150, 31, config(8)),
      make_coordinator(150, 31, config(32))};
  std::vector<StreamSource> sources;
  for (std::size_t c = 0; c < coords.size(); ++c) sources.emplace_back(sc);
  for (std::uint64_t mark = 1; mark <= 3; ++mark) {
    for (std::size_t c = 0; c < coords.size(); ++c) {
      for (const StreamEvent& ev : sources[c].take(kEvery)) {
        coords[c].offer(ev);
      }
      ASSERT_EQ(coords[c].reconverge_cycles(), mark);
      EXPECT_NEAR(coords[c].mass_ratios().back(), 1.0, 1e-9);
      EXPECT_EQ(coords[c].digest(), coords[0].digest())
          << "batch index " << c << ", mark " << mark;
    }
    const IngestCoordinator& coord = coords[0];
    const Digraph frozen = coord.graph().freeze();
    const std::vector<double> exact =
        centralized_pagerank(frozen, coord.options().damping, 1e-13).ranks;
    std::vector<double> served;
    std::vector<double> reference;
    for (NodeId v = 0; v < frozen.num_nodes(); ++v) {
      if (coord.is_deleted(v)) continue;
      served.push_back(coord.ranks()[v]);
      reference.push_back(exact[v]);
    }
    EXPECT_LE(summarize_quality(served, reference).avg,
              DistributedPagerank::kQualityBound)
        << "mark " << mark;
  }
}

TEST(IngestCoordinator, ReconvergenceRecordsEachMark) {
  const StreamSourceConfig sc = source_config(120, 13);
  IngestConfig ic = ingest_config(8);
  ic.reconverge_every_events = 50;
  const Digraph base = paper_graph(120, 13);
  std::vector<double> ranks =
      centralized_pagerank(base, ic.options.damping, 1e-13).ranks;
  obs::MetricsRegistry metrics;
  IngestCoordinator coord(MutableDigraph(base), std::move(ranks), ic,
                          &metrics);
  StreamSource src(sc);
  for (const StreamEvent& ev : src.take(110)) coord.offer(ev);

  const auto& history = coord.reconverge_history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(coord.mass_ratios(), (std::vector<double>{history[0].mass_ratio,
                                                      history[1].mass_ratio}));
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("stream.reconverge_us").count, 2u);
  // Each series point is (events offered at the mark, the mark's count).
  const auto point = [&](const char* series, std::size_t i) {
    const auto [x, y] = snap.series.at(series)[i];
    EXPECT_EQ(x, static_cast<double>(history[i].events_offered)) << series;
    return static_cast<std::uint64_t>(y);
  };
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].events_offered, 50u * (i + 1));
    EXPECT_GT(history[i].passes, 0u);
    EXPECT_GT(history[i].docs_recomputed, 0u);
    EXPECT_GT(history[i].messages, 0u);
    EXPECT_GT(history[i].wall_us, 0.0);
    EXPECT_EQ(point("stream.reconverge_passes", i), history[i].passes);
    EXPECT_EQ(point("stream.reconverge_recomputes", i),
              history[i].docs_recomputed);
    EXPECT_EQ(point("stream.reconverge_messages", i), history[i].messages);
  }
}

TEST(IngestCoordinator, LastBatchTouchedIsEveryChangedRankOnce) {
  // Each batch's touched list holds no duplicate, and as a set it is
  // exactly the documents whose served rank changed plus the batch's
  // inserts and deletes (an insert deleted in its own batch included).
  const StreamSourceConfig sc = source_config(300, 23);
  StreamSource src(sc);
  IngestCoordinator coord = make_coordinator(300, 23, ingest_config(8));
  std::uint64_t batches = 0;
  std::uint64_t touched_total = 0;
  for (const StreamEvent& ev : src.take(400)) {
    const std::vector<double> before = coord.ranks();
    const std::vector<std::uint8_t> dead_before = coord.deleted();
    coord.offer(ev);
    if (!coord.pending().empty()) continue;  // no batch applied yet
    ++batches;
    std::vector<NodeId> expected;
    for (NodeId v = 0; v < coord.ranks().size(); ++v) {
      const bool existed = v < before.size();
      const bool changed = !existed || coord.ranks()[v] != before[v];
      const bool deleted_now =
          coord.is_deleted(v) && (!existed || dead_before[v] == 0);
      if (changed || deleted_now) expected.push_back(v);
    }
    std::vector<NodeId> touched = coord.last_batch_touched();
    touched_total += touched.size();
    std::sort(touched.begin(), touched.end());
    EXPECT_EQ(std::adjacent_find(touched.begin(), touched.end()),
              touched.end())
        << "duplicate in batch " << batches;
    EXPECT_EQ(touched, expected) << "batch " << batches;
  }
  EXPECT_EQ(batches, 50u);
  EXPECT_GT(touched_total, 50u * 8u);

  // One batch where the inserts overlap the cascade and the deletes: an
  // insert that gains an in-link, and an insert deleted again.
  const NodeId x = coord.graph().num_nodes();
  std::vector<StreamEvent> batch(4);
  batch[0].kind = StreamEvent::Kind::kInsert;
  batch[0].node = x;
  batch[0].out_links = {1, 2};
  batch[1].kind = StreamEvent::Kind::kAddEdge;
  batch[1].node = 5;
  batch[1].target = x;
  batch[2].kind = StreamEvent::Kind::kInsert;
  batch[2].node = x + 1;
  batch[2].out_links = {3};
  batch[3].kind = StreamEvent::Kind::kDelete;
  batch[3].node = x + 1;
  for (const StreamEvent& ev : batch) coord.offer(ev);
  (void)coord.flush();
  std::vector<NodeId> touched = coord.last_batch_touched();
  EXPECT_EQ(std::count(touched.begin(), touched.end(), x), 1);
  EXPECT_EQ(std::count(touched.begin(), touched.end(), x + 1), 1);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(std::adjacent_find(touched.begin(), touched.end()),
            touched.end());
}

TEST(LiveRankService, TopKMatchesNaiveSortAndCaches) {
  const StreamSourceConfig sc = source_config(150, 9);
  StreamSource src(sc);
  IngestCoordinator coord = make_coordinator(150, 9, ingest_config(10));
  LiveRankService service(coord);
  for (const StreamEvent& ev : src.take(100)) coord.offer(ev);
  coord.flush();

  const auto top = service.top_k(10);
  ASSERT_EQ(top.size(), 10u);
  // Against a naive full sort of the live documents.
  std::vector<std::pair<NodeId, double>> all;
  for (NodeId v = 0; v < coord.ranks().size(); ++v) {
    if (!coord.is_deleted(v)) all.emplace_back(v, coord.ranks()[v]);
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, all[i].first) << "slot " << i;
    EXPECT_DOUBLE_EQ(top[i].second, all[i].second);
  }
  EXPECT_GE(top.front().second, top.back().second);  // descending

  const auto hits_before = service.topk_cache_hits();
  (void)service.top_k(10);  // same version: served from cache
  EXPECT_EQ(service.topk_cache_hits(), hits_before + 1);
}

TEST(LiveRankService, RankOfTombstoneAndUnknownIsZero) {
  IngestCoordinator coord = make_coordinator(100, 2, ingest_config(4));
  LiveRankService service(coord);
  StreamEvent del;
  del.kind = StreamEvent::Kind::kDelete;
  del.node = 17;
  coord.offer(del);
  coord.flush();
  EXPECT_DOUBLE_EQ(service.rank_of(17), 0.0);
  EXPECT_DOUBLE_EQ(service.rank_of(10'000), 0.0);
  EXPECT_GT(service.rank_of(3), 0.0);
  EXPECT_EQ(service.queries(), 3u);
}

TEST(LiveRankService, StalenessShrinksWhenPendingEventsAreApplied) {
  const StreamSourceConfig sc = source_config(200, 17);
  StreamSource src(sc);
  // Batch larger than the offered count: everything stays pending.
  IngestCoordinator coord = make_coordinator(200, 17, ingest_config(64));
  LiveRankService service(coord);
  for (const StreamEvent& ev : src.take(40)) coord.offer(ev);
  ASSERT_EQ(coord.pending().size(), 40u);

  const StalenessReport lagging = service.measure_staleness();
  EXPECT_EQ(lagging.pending_events, 40u);
  EXPECT_GT(lagging.mean_abs, 0.0);  // pending inserts alone guarantee it

  coord.flush();
  const StalenessReport applied = service.measure_staleness();
  EXPECT_EQ(applied.pending_events, 0u);
  // Applying the pending window must strictly reduce staleness: the
  // oracle is identical, and the served view has caught up to it.
  EXPECT_LT(applied.mean_abs, lagging.mean_abs);
  EXPECT_LT(applied.mean_abs, 0.05);
}

// ---------------------------------------------------------------------------
// Contract-sweep regression (the dprank_analyze contract-coverage
// finding): IngestCoordinator::validate() now walks MutableDigraph's
// invariants from src during ingest. Positive: the sweep runs and is
// observation-only (bit-identical digests with it on or off). Negative:
// a planted inconsistency surfaces as a ContractViolation naming the
// owning subsystem.
// ---------------------------------------------------------------------------

TEST(IngestCoordinator, ContractSweepIsObservationOnly) {
  SKIP_WITHOUT_CONTRACTS();
  const StreamSourceConfig sc = source_config(120, 13);
  IngestConfig ic = ingest_config(8);
  ic.reconverge_every_events = 50;

  auto run = [&](std::uint32_t sweep_every, obs::MetricsRegistry* metrics) {
    StreamSource src(sc);
    IngestConfig cfg = ic;
    cfg.sweep_every_batches = sweep_every;
    const Digraph base = paper_graph(120, 13);
    std::vector<double> ranks =
        centralized_pagerank(base, cfg.options.damping, 1e-13).ranks;
    IngestCoordinator coord(MutableDigraph(base), std::move(ranks), cfg,
                            metrics);
    for (const StreamEvent& ev : src.take(110)) coord.offer(ev);
    coord.flush();
    return coord.digest();
  };

  obs::MetricsRegistry swept;
  obs::MetricsRegistry lazy;
  const std::uint64_t digest_on = run(1, &swept);    // sweep every batch
  const std::uint64_t digest_off = run(0, &lazy);    // reconvergence only
  // The sweep must never perturb the maintained ranks.
  EXPECT_EQ(digest_on, digest_off);
  const std::uint64_t sweeps_on =
      swept.counter("stream.contract_sweeps").value();
  const std::uint64_t sweeps_off =
      lazy.counter("stream.contract_sweeps").value();
  // Every applied batch swept, plus the reconvergence sweeps...
  EXPECT_GT(sweeps_on, sweeps_off);
  EXPECT_GT(sweeps_on, 10u);
  // ...while sweep_every_batches = 0 keeps only the reconvergence ones.
  EXPECT_EQ(sweeps_off, lazy.counter("stream.reconverges").value());
}

TEST(ValidatorNegative, IngestSweepCatchesRankArrayDrift) {
  SKIP_WITHOUT_CONTRACTS();
  const StreamSourceConfig sc = source_config(100, 7);
  StreamSource src(sc);
  IngestCoordinator coord = make_coordinator(100, 7, ingest_config(8));
  for (const StreamEvent& ev : src.take(60)) coord.offer(ev);
  coord.flush();
  coord.validate();  // sanity: clean before the corruption
  TestCorruptor::shrink_rank_vector(coord);
  expect_violation("stream", [&] { coord.validate(); });
}

TEST(ValidatorNegative, IngestSweepCatchesGraphCorruption) {
  SKIP_WITHOUT_CONTRACTS();
  const StreamSourceConfig sc = source_config(100, 7);
  StreamSource src(sc);
  IngestCoordinator coord = make_coordinator(100, 7, ingest_config(8));
  for (const StreamEvent& ev : src.take(60)) coord.offer(ev);
  coord.flush();
  TestCorruptor::corrupt_adjacency_mirror(coord);
  // The coordinator's sweep cascades into the graph's own invariants.
  expect_violation("graph", [&] { coord.validate(); });
}

}  // namespace
}  // namespace dprank
