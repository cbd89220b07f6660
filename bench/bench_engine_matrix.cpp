// Cross-engine bench matrix (extension; ROADMAP item 2).
//
// Runs every registered engine through the shared
// PagerankEngineInterface over graph size × seed × availability and
// reports the trade-off triangle head to head:
//
//   * traffic — cross-peer messages and bytes (the §4.6.1 cost);
//   * rounds  — passes to convergence;
//   * quality — L1 error, top-100 overlap and sampled Kendall tau
//     against the centralized oracle.
//
// The matrix doubles as an acceptance gate (CI runs it in the
// engine-matrix job): every case must converge, same-seed double runs
// must be bit-identical, and every clean run must sit within the
// engine's declared quality bound (traits().quality_bound). A violation
// exits non-zero so the job goes red. Results land in
// BENCH_engine_matrix.json (committed baseline under bench/baselines/,
// compared by scripts/bench_compare.py).

#include "bench_util.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engines/registry.hpp"
#include "graph/generator.hpp"
#include "p2p/churn.hpp"
#include "p2p/placement.hpp"
#include "pagerank/centralized.hpp"
#include "pagerank/quality.hpp"

namespace dprank {
namespace {

struct MatrixCase {
  std::string engine;
  std::uint64_t docs = 2'000;
  PeerId peers = 40;
  std::uint64_t seed = 42;
  double availability = 1.0;
  bool determinism_check = false;  // run twice, compare digests
};

struct Row {
  bool converged = false;
  std::uint64_t passes = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t local_updates = 0;
  double l1 = 0.0;
  double top100 = 0.0;
  double tau = 0.0;
  double mass_ratio = 1.0;
  double quality_bound = 0.0;
  bool digest_stable = true;
  double wall_seconds = 0.0;
};

benchutil::ResultStore<Row>& store() {
  static benchutil::ResultStore<Row> s;
  return s;
}

const std::vector<MatrixCase>& cases() {
  static const std::vector<MatrixCase> cs = [] {
    std::vector<MatrixCase> v;
    std::vector<std::pair<std::uint64_t, PeerId>> sizes{{2'000, 40}};
    if (full_scale_requested()) sizes.push_back({10'000, 500});
    for (const std::string& engine : registered_engines()) {
      for (const auto& [docs, peers] : sizes) {
        for (const std::uint64_t seed : {42ULL, 7ULL}) {
          // Clean run; the seed-42 one doubles as the determinism gate.
          v.push_back(MatrixCase{engine, docs, peers, seed, 1.0,
                                 seed == 42});
        }
        if (engine_traits(engine).supports_churn) {
          v.push_back(MatrixCase{engine, docs, peers, 42, 0.85, false});
        }
      }
    }
    return v;
  }();
  return cs;
}

std::string case_key(const MatrixCase& c) {
  return c.engine + "/n" + std::to_string(c.docs) + "/s" +
         std::to_string(c.seed) + "/a" +
         std::to_string(static_cast<int>(c.availability * 100));
}

struct GraphBundle {
  Digraph g;
  Placement placement;
  std::vector<double> oracle;
};

/// One graph + placement + centralized solve per (docs, seed), shared by
/// every engine so the comparison is apples to apples.
const GraphBundle& bundle_for(std::uint64_t docs, PeerId peers,
                              std::uint64_t seed) {
  // Graph + oracle cache shared across benchmark bodies.
  // dprank-analyze: allow(mutable-global) -- process-lifetime, like results
  static std::map<std::string, std::unique_ptr<GraphBundle>> cache;
  const std::string key =
      std::to_string(docs) + "/" + std::to_string(seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto b = std::make_unique<GraphBundle>(GraphBundle{
        paper_graph(static_cast<NodeId>(docs), seed),
        Placement::random(docs, peers, seed),
        {}});
    b->oracle = centralized_pagerank(b->g).ranks;
    it = cache.emplace(key, std::move(b)).first;
  }
  return *it->second;
}

struct RunOutput {
  DistributedRunResult result;
  std::uint64_t rank_digest = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t local_updates = 0;
  std::vector<double> ranks;
};

RunOutput run_engine(const MatrixCase& c, const GraphBundle& b,
                     bool with_metrics) {
  EngineOptions opt;
  opt.pagerank.epsilon = 1e-3;
  opt.pagerank.threads = 1;  // the determinism gate is asserted at 1
  opt.seed = c.seed;
  const auto engine = make_engine(c.engine, b.g, b.placement, opt);
  engine->enable_mass_audit(1e-9);
  if (with_metrics) engine->attach_metrics(obs::default_registry());
  RunOutput out;
  if (c.availability < 1.0) {
    ChurnSchedule churn(c.peers, c.availability, c.seed);
    out.result = engine->run(&churn);
  } else {
    out.result = engine->run();
  }
  out.rank_digest = fnv1a_rank_digest(engine->ranks());
  out.messages = engine->traffic().messages();
  out.bytes = engine->traffic().bytes();
  out.local_updates = engine->traffic().local_updates();
  out.ranks = engine->ranks();
  return out;
}

void BM_EngineMatrix(benchmark::State& state) {
  const MatrixCase& c = cases()[static_cast<std::size_t>(state.range(0))];
  const GraphBundle& b = bundle_for(c.docs, c.peers, c.seed);

  for (auto _ : state) {
    benchutil::WallTimer timer;
    const RunOutput first = run_engine(c, b, /*with_metrics=*/true);
    Row row;
    row.wall_seconds = timer.seconds();
    row.converged = first.result.converged;
    row.passes = first.result.passes;
    row.messages = first.messages;
    row.bytes = first.bytes;
    row.local_updates = first.local_updates;
    row.mass_ratio = first.result.mass_ratio;
    row.l1 = l1_rank_error(first.ranks, b.oracle);
    row.top100 = top_k_overlap(first.ranks, b.oracle, 100);
    row.tau = kendall_tau_sampled(first.ranks, b.oracle);
    row.quality_bound = engine_traits(c.engine).quality_bound;
    if (c.determinism_check) {
      const RunOutput again = run_engine(c, b, /*with_metrics=*/false);
      row.digest_stable = again.rank_digest == first.rank_digest &&
                          again.result.passes == first.result.passes &&
                          again.messages == first.messages;
    }
    store().put(case_key(c), row);
    state.counters["passes"] = static_cast<double>(row.passes);
    state.counters["messages"] = static_cast<double>(row.messages);
    state.counters["l1_error"] = row.l1;
  }
}

void register_benchmarks() {
  for (std::size_t i = 0; i < cases().size(); ++i) {
    benchmark::RegisterBenchmark(
        ("engine_matrix/" + case_key(cases()[i])).c_str(), BM_EngineMatrix)
        ->Args({static_cast<long>(i)})
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

void print_table() {
  benchutil::print_banner(
      "Engine matrix: messages / passes / quality per engine");
  TextTable table({"Case", "conv", "passes", "messages", "local", "L1 err",
                   "top-100", "tau", "mass", "stable"});
  for (const MatrixCase& c : cases()) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;
    table.add_row({case_key(c), r->converged ? "yes" : "NO",
                   std::to_string(r->passes), format_count(r->messages),
                   format_count(r->local_updates), format_fixed(r->l1, 5),
                   format_fixed(r->top100, 2), format_fixed(r->tau, 3),
                   format_fixed(r->mass_ratio, 6),
                   r->digest_stable ? "yes" : "NO"});
  }
  benchutil::emit(table, "engine_matrix");
  std::cout << "\nThree algorithms, one substrate: fifo chaotic iteration "
               "(reference), randomized gossip (fewer messages, more "
               "rounds, same ε fixed point) and random-walk estimation "
               "(message-heavy at this scale, statistical error bounded "
               "by 1/sqrt(walks per node) — but each message is an "
               "independent token, so precision is tunable per query "
               "without global synchronization).\n";
}

void write_json() {
  double wall = 0.0;
  std::map<std::string, double> extra;
  std::size_t converged = 0;
  std::size_t rows = 0;
  bool all_stable = true;
  for (const MatrixCase& c : cases()) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;
    ++rows;
    wall += r->wall_seconds;
    if (r->converged) ++converged;
    all_stable = all_stable && r->digest_stable;
    const std::string k = case_key(c);
    extra[k + "/messages"] = static_cast<double>(r->messages);
    extra[k + "/passes"] = static_cast<double>(r->passes);
    extra[k + "/l1_error"] = r->l1;
    extra[k + "/top100_overlap"] = r->top100;
    extra[k + "/kendall_tau"] = r->tau;
  }
  extra["cases"] = static_cast<double>(rows);
  extra["converged_cases"] = static_cast<double>(converged);
  extra["digest_stable"] = all_stable ? 1.0 : 0.0;
  auto config = benchutil::standard_config();
  config["engines"] =
      std::to_string(registered_engines().size());
  benchutil::write_bench_json("engine_matrix", wall, config, extra);
}

// Acceptance gate for the CI engine-matrix job: convergence,
// determinism and declared quality on every case that ran.
int check_acceptance() {
  int failures = 0;
  for (const MatrixCase& c : cases()) {
    const auto* r = store().find(case_key(c));
    if (r == nullptr) continue;  // filtered out on the command line
    if (!r->converged) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: did not converge\n";
      ++failures;
    }
    if (!r->digest_stable) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: same-seed rerun diverged\n";
      ++failures;
    }
    if (std::abs(r->mass_ratio - 1.0) > 1e-9) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: mass_ratio = " << r->mass_ratio << "\n";
      ++failures;
    }
    // The declared bound covers mean relative error on clean runs; L1
    // error is mass-weighted and strictly tighter for these engines.
    if (c.availability == 1.0 && r->l1 > r->quality_bound) {
      std::cout << "ACCEPTANCE FAIL [" << case_key(c)
                << "]: L1 error " << r->l1 << " exceeds declared bound "
                << r->quality_bound << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dprank

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  dprank::register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dprank::print_table();
  dprank::write_json();
  return dprank::check_acceptance();
}
