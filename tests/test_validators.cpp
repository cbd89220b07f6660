// Negative tests for the invariant-contract layer (contracts.hpp).
//
// Each validated subsystem gets a deliberate corruption of its private
// state through TestCorruptor (a friend of every validated class), and
// the test asserts that the *right* validator catches it — the thrown
// ContractViolation must name the owning subsystem. A validator that
// only passes on healthy structures proves nothing; these tests prove
// each one can actually fail.
//
// The keyword index and the assembled system report their findings as
// strings instead of throwing, so their negative cases assert on the
// returned list; they check something in every build.
//
// The positive half runs the distributed engine with
// validate_every_n_passes=1 across clean / churn / crash-fault
// configurations at 1 and 4 threads: the full invariant walk at every
// pass boundary must never fire on a correct run.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "core/p2p_system.hpp"
#include "dht/ring.hpp"
#include "fault/fault_plan.hpp"
#include "graph/digraph.hpp"
#include "graph/generator.hpp"
#include "graph/mutable_digraph.hpp"
#include "net/reliable_channel.hpp"
#include "p2p/churn.hpp"
#include "p2p/membership.hpp"
#include "p2p/placement.hpp"
#include "pagerank/distributed_engine.hpp"
#include "search/corpus.hpp"
#include "search/distributed_index.hpp"

namespace dprank {

// Friend of every validated class; reaches into private state to plant
// exactly one inconsistency per test.
struct TestCorruptor {
  static void corrupt_csr_target(Digraph& g) {
    // Redirect edge 0 in the out-CSR only: the in-CSR mirror and the
    // in_to_out_ cross index now disagree with it.
    g.out_targets_[0] = (g.out_targets_[0] + 1) % g.num_nodes();
  }
  static void corrupt_adjacency_mirror(MutableDigraph& g) {
    // An out-entry with no in-mirror (a half-written edge).
    g.out_[0].push_back(1);
  }
  static void corrupt_edge_count(MutableDigraph& g) { ++g.num_edges_; }
  static void unsort_out_list(MutableDigraph& g) {
    // Swap the first two entries of the first out-list that has two: the
    // mirror and the edge count still hold, only the order is broken.
    for (auto& outs : g.out_) {
      if (outs.size() >= 2) {
        std::swap(outs[0], outs[1]);
        return;
      }
    }
  }
  static void corrupt_ring_index(ChordRing& ring) {
    // Swap two peers' entries in the peer -> position index only: the
    // index stops being inverse to the peer column, and every lookup
    // started from either peer would begin at the other's place.
    std::swap(ring.pos_of_[ring.peers_[0]], ring.pos_of_[ring.peers_[1]]);
  }
  static void corrupt_finger(ChordRing& ring) {
    // Point the first position's farthest finger one position further
    // on: the table still reads as a ring, only that row is stale.
    ChordRing::Pos& f = ring.fingers_[ring.row_begin_[0]];
    f = f + 1 < ring.size() ? f + 1 : f - 1;
  }
  static void corrupt_channel_seq(ReliableChannel& ch) {
    // Receiver claims to have applied a fresher value than the sender
    // ever issued on the slot.
    for (ReliableChannel::EdgeRecord& record : ch.edges_) {
      if (record.issued == 0) continue;
      record.applied = record.issued + 1;
      return;
    }
  }
  static void corrupt_dirty_set(DistributedPagerank& engine) {
    // Queue slot 0 without flagging it: the dedup flag array and the
    // queue no longer agree (the parallel-merge precondition).
    engine.dirty_.push_back(0);
  }
  static void leak_rank_mass(DistributedPagerank& engine) {
    // Inflate one stored contribution cell: the MassAuditor ledger no
    // longer balances against the applied + parked values.
    engine.contrib_[0] += 0.25;
  }
  static NodeId stale_owner_mirror(DistributedPagerank& engine) {
    // Slot 0's owner mirror names another peer than the placement does;
    // returns the document slot 0 holds.
    PeerId& owner = engine.slot_owner_[0];
    owner = (owner + 1) % engine.placement_.num_peers();
    return engine.slot_doc_[0];
  }
  static void misroute_out_link(DistributedPagerank& engine) {
    // The first out-link lands in the second one's cell: every slot and
    // offset still holds, one update would overwrite another edge.
    engine.out_cell_[0] = engine.out_cell_[1];
  }
  static void break_slot_map(DistributedPagerank& engine) {
    // Two documents trade slots in the document -> slot map only: the
    // two maps stop being inverses.
    std::swap(engine.doc_slot_[0], engine.doc_slot_[1]);
  }
  static void swap_postings(DistributedIndex& index, TermId term) {
    // Swap a list's first two entries: every document keeps its rank,
    // only the list's order is broken.
    std::swap(index.postings_[term][0], index.postings_[term][1]);
  }
  static void set_doc_rank(DistributedIndex& index, NodeId doc,
                           double rank) {
    // Change a posted document's one stored rank without moving any
    // entry: the lists that hold it in rank order no longer are.
    index.doc_rank_[doc] = rank;
  }
  static void post_unknown_doc(DistributedIndex& index, TermId term) {
    // Overwrite a list's last entry with an id far beyond doc_bound():
    // the posting count holds, but the id has no rank to read.
    index.postings_[term].back() =
        static_cast<NodeId>(index.doc_rank_.size() + (1U << 24));
  }
  static DistributedIndex& index_of(P2PSystem& system) {
    return system.index_;
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
    EXPECT_NE(v.line(), 0);
  }
}

#define SKIP_WITHOUT_CONTRACTS()                                          \
  if (!contracts::enabled()) {                                            \
    GTEST_SKIP() << "contracts compiled out (DPRANK_CHECK_INVARIANTS "    \
                    "off)";                                               \
  }

TEST(ValidatorNegative, DigraphCatchesCorruptCsrMirror) {
  SKIP_WITHOUT_CONTRACTS();
  Digraph g = paper_graph(100, 3);
  g.validate();  // healthy before the corruption
  TestCorruptor::corrupt_csr_target(g);
  expect_violation("graph", [&] { g.validate(); });
}

TEST(ValidatorNegative, MutableDigraphCatchesBrokenMirror) {
  SKIP_WITHOUT_CONTRACTS();
  MutableDigraph g(paper_graph(100, 5));
  g.validate();
  TestCorruptor::corrupt_adjacency_mirror(g);
  expect_violation("graph", [&] { g.validate(); });
}

TEST(ValidatorNegative, MutableDigraphCatchesWrongEdgeCount) {
  SKIP_WITHOUT_CONTRACTS();
  MutableDigraph g(paper_graph(100, 5));
  TestCorruptor::corrupt_edge_count(g);
  expect_violation("graph", [&] { g.validate(); });
}

TEST(ValidatorNegative, MutableDigraphCatchesOutOfOrderList) {
  SKIP_WITHOUT_CONTRACTS();
  MutableDigraph g(paper_graph(100, 5));
  g.validate();
  TestCorruptor::unsort_out_list(g);
  expect_violation("graph", [&] { g.validate(); });
}

TEST(ValidatorNegative, RingCatchesBrokenFingerIndex) {
  SKIP_WITHOUT_CONTRACTS();
  ChordRing ring(32);
  ring.validate();
  TestCorruptor::corrupt_ring_index(ring);
  expect_violation("dht", [&] { ring.validate(); });
}

TEST(ValidatorNegative, RingCatchesStaleFinger) {
  SKIP_WITHOUT_CONTRACTS();
  ChordRing ring(32);
  ring.validate();
  TestCorruptor::corrupt_finger(ring);
  expect_violation("dht", [&] { ring.validate(/*route_samples=*/0); });
}

TEST(ValidatorNegative, ChannelCatchesSeqRegression) {
  SKIP_WITHOUT_CONTRACTS();
  ReliableChannel ch;
  const auto seq = ch.next_seq(/*slot=*/42);
  EXPECT_TRUE(ch.accept(42, seq));
  ch.validate();
  TestCorruptor::corrupt_channel_seq(ch);
  expect_violation("net", [&] { ch.validate(); });
}

TEST(ValidatorNegative, MembershipCatchesMisplacedDocument) {
  SKIP_WITHOUT_CONTRACTS();
  const PeerId peers = 8;
  const ChordRing seed_ring(peers);
  Placement placement = Placement::by_dht(300, seed_ring);
  MembershipCoordinator membership(placement, peers, {});
  membership.validate();  // healthy: every document on its ring successor
  // Move one live, non-frozen document to a wrong live peer.
  const NodeId doc = 17;
  placement.reassign(doc, (placement.peer_of(doc) + 1) % peers);
  expect_violation("p2p", [&] { membership.validate(); });
}

TEST(ValidatorNegative, EngineCatchesCorruptDirtySet) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(300, 7);
  const auto p = Placement::random(300, 10, 7);
  PagerankOptions opts;
  opts.validate_every_n_passes = 1;
  DistributedPagerank engine(g, p, opts);
  ASSERT_TRUE(engine.run().converged);
  engine.validate_state();  // healthy after the run
  TestCorruptor::corrupt_dirty_set(engine);
  expect_violation("pagerank", [&] { engine.validate_state(); });
}

/// Validation every pass. It also feeds the mass ledger, so the run
/// keeps its document -> slot map.
PagerankOptions validated_opts() {
  PagerankOptions opts;
  opts.validate_every_n_passes = 1;
  return opts;
}

TEST(ValidatorNegative, EngineCatchesStaleOwnerMirror) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(300, 11);
  const auto p = Placement::random(300, 10, 11);
  DistributedPagerank engine(g, p, validated_opts());
  ASSERT_TRUE(engine.run().converged);
  engine.validate_state();
  const NodeId doc = TestCorruptor::stale_owner_mirror(engine);
  try {
    engine.validate_state();
    FAIL() << "expected a stale owner mirror to be caught";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.subsystem(), "pagerank");
    // Findings name the document, not its slot.
    EXPECT_NE(std::string(v.what()).find("document " + std::to_string(doc)),
              std::string::npos)
        << v.what();
  }
}

TEST(ValidatorNegative, EngineCatchesOutLinkIntoAnotherEdgesCell) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(300, 13);
  const auto p = Placement::random(300, 10, 13);
  DistributedPagerank engine(g, p, validated_opts());
  ASSERT_TRUE(engine.run().converged);
  engine.validate_state();
  TestCorruptor::misroute_out_link(engine);
  expect_violation("pagerank", [&] { engine.validate_state(); });
}

TEST(ValidatorNegative, EngineCatchesBrokenSlotMap) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(300, 17);
  const auto p = Placement::random(300, 10, 17);
  DistributedPagerank engine(g, p, validated_opts());
  ASSERT_TRUE(engine.run().converged);
  engine.validate_state();
  TestCorruptor::break_slot_map(engine);
  expect_violation("pagerank", [&] { engine.validate_state(); });
}

TEST(ValidatorNegative, EngineCatchesLeakedRankMass) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(300, 9);
  const auto p = Placement::random(300, 10, 9);
  PagerankOptions opts;
  opts.validate_every_n_passes = 1;  // creates the audit ledger
  DistributedPagerank engine(g, p, opts);
  ASSERT_TRUE(engine.run().converged);
  engine.validate_state();
  TestCorruptor::leak_rank_mass(engine);
  expect_violation("pagerank", [&] { engine.validate_state(); });
}

CorpusParams small_corpus() {
  CorpusParams p;
  p.num_docs = 300;
  p.vocabulary = 40;
  p.mean_terms = 10;
  p.min_terms = 3;
  p.max_terms = 30;
  p.seed = 21;
  return p;
}

// An index with distinct published ranks and term 0's list read, so
// term 0 is in rank order and term 1 still in document order.
DistributedIndex published_index(const Corpus& corpus,
                                 const ChordRing& ring) {
  DistributedIndex index(corpus, ring);
  std::vector<double> ranks(corpus.num_docs());
  for (NodeId d = 0; d < corpus.num_docs(); ++d) {
    ranks[d] = 0.15 + 0.01 * static_cast<double>((d * 37) % 300);
  }
  index.publish_ranks(ranks, std::vector<PeerId>(corpus.num_docs(), 0));
  (void)index.postings(0);
  return index;
}

bool mentions(const std::vector<std::string>& issues, const char* what) {
  for (const std::string& issue : issues) {
    if (issue.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(ValidatorNegative, IndexCatchesSwappedPairInRankOrder) {
  const Corpus corpus = Corpus::synthesize(small_corpus());
  const ChordRing ring(8);
  DistributedIndex index = published_index(corpus, ring);
  ASSERT_TRUE(index.validate().empty());
  TestCorruptor::swap_postings(index, 0);
  const auto issues = index.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("break rank order"), std::string::npos)
      << issues[0];
}

TEST(ValidatorNegative, IndexCatchesSwappedPairInDocumentOrder) {
  const Corpus corpus = Corpus::synthesize(small_corpus());
  const ChordRing ring(8);
  DistributedIndex index = published_index(corpus, ring);
  TestCorruptor::swap_postings(index, 1);
  const auto issues = index.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("break document order"), std::string::npos)
      << issues[0];
}

TEST(ValidatorNegative, IndexCatchesRankOutOfOrder) {
  const Corpus corpus = Corpus::synthesize(small_corpus());
  const ChordRing ring(8);
  DistributedIndex index = published_index(corpus, ring);
  // Term 0's last document jumps to the top rank behind the index's back.
  const NodeId last = index.stored_postings(0).back();
  TestCorruptor::set_doc_rank(index, last, 1e9);
  const auto issues = index.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("break rank order"), std::string::npos)
      << issues[0];
}

TEST(ValidatorNegative, IndexCatchesUnknownDoc) {
  const Corpus corpus = Corpus::synthesize(small_corpus());
  const ChordRing ring(8);
  DistributedIndex index = published_index(corpus, ring);
  // In the rank-ordered list, where checking the order reads ranks.
  TestCorruptor::post_unknown_doc(index, 0);
  const auto issues = index.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("beyond doc_bound()"), std::string::npos)
      << issues[0];
}

TEST(ValidatorNegative, SystemAppendsIndexFindings) {
  const Corpus corpus = Corpus::synthesize(small_corpus());
  const Digraph g = paper_graph(300, 21);
  P2PSystemConfig cfg;
  cfg.num_peers = 8;
  P2PSystem system(g, corpus, cfg);
  (void)system.converge();
  (void)system.search({0, 1}, kForwardEverything);
  ASSERT_TRUE(system.validate().empty());
  TestCorruptor::swap_postings(TestCorruptor::index_of(system), 0);
  EXPECT_TRUE(mentions(system.validate(), "index: term 0"));
}

// ---- positive: the full walk never fires on correct runs ----

class ValidatorPositive : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ValidatorPositive, CleanRunPassesEveryPass) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(1000, 11);
  const auto p = Placement::random(1000, 20, 11);
  PagerankOptions opts;
  opts.threads = GetParam();
  opts.validate_every_n_passes = 1;
  DistributedPagerank engine(g, p, opts);
  EXPECT_TRUE(engine.run().converged);
}

TEST_P(ValidatorPositive, ChurnRunPassesEveryPass) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(1000, 13);
  const auto p = Placement::random(1000, 20, 13);
  PagerankOptions opts;
  opts.threads = GetParam();
  opts.validate_every_n_passes = 1;
  ChurnSchedule churn(20, 0.75, 13);
  DistributedPagerank engine(g, p, opts);
  EXPECT_TRUE(engine.run(&churn).converged);
}

TEST_P(ValidatorPositive, CrashFaultRunPassesEveryPass) {
  SKIP_WITHOUT_CONTRACTS();
  const Digraph g = paper_graph(1000, 17);
  const auto p = Placement::random(1000, 20, 17);
  PagerankOptions opts;
  opts.threads = GetParam();
  opts.validate_every_n_passes = 1;
  FaultPlan plan({.drop_probability = 0.05,
                  .crashes = {{.pass = 2, .peer = 3}, {.pass = 4, .peer = 7}},
                  .ack_timeout_passes = 1,
                  .seed = 17});
  DistributedPagerank engine(g, p, opts);
  engine.attach_fault_plan(plan);
  engine.enable_mass_audit();
  const auto run = engine.run();
  EXPECT_TRUE(run.converged);
  EXPECT_NEAR(run.mass_ratio, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Threads, ValidatorPositive,
                         ::testing::Values(1u, 4u));

}  // namespace
}  // namespace dprank
