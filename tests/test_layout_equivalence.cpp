// Graph layout and fold-kernel checks.
//
// These tests pin the vectorized fold kernel's equivalence to the scalar
// one (the kernel now backs only the benches' gather probes; the engine
// folds in one scalar loop), the 2^32 - 1 edge cap behind the 32-bit
// cross index, and (negatively) that the graph validator actually
// catches a corrupted cross index.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "graph/digraph.hpp"
#include "graph/generator.hpp"

namespace dprank {

// Friend of Digraph; plants exactly one inconsistency per negative test.
struct TestCorruptor {
  static void corrupt_narrow_cross_entry(Digraph& g) {
    // One cross-index slot stops being the inverse of in_to_out_.
    g.out_to_in32_[0] ^= 1u;
  }
};

namespace {

// ---- fold kernel ------------------------------------------------------

// Direct kernel equivalence on a degree-skewed CSR: exercises the
// refill path (lanes retiring at different times), the scalar drain of
// in-flight lanes, empty documents, and a sub-lane-count tail.
TEST(FoldKernel, VectorMatchesScalarBitwise) {
  if (simd::active_level() == simd::Level::kScalar) {
    GTEST_SKIP() << "no vector level available on this host";
  }
  // Degrees cycle through 0..16 — poor man's power law with empties.
  constexpr NodeId kNodes = 257;
  std::vector<std::uint64_t> offsets(kNodes + 1, 0);
  for (NodeId v = 0; v < kNodes; ++v) {
    offsets[v + 1] = offsets[v] + (v * 7) % 17;
  }
  const std::uint64_t m = offsets[kNodes];
  std::vector<double> cells(m);
  for (std::uint64_t c = 0; c < m; ++c) {
    cells[c] = 1.0 / (1.0 + static_cast<double>(c % 97));
  }
  std::vector<NodeId> docs(kNodes);
  std::iota(docs.begin(), docs.end(), NodeId{0});
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{kNodes}}) {
    std::vector<double> ref(count + 1, -1.0);
    std::vector<double> vec(count + 1, -1.0);
    simd::fold_cells(simd::Level::kScalar, cells.data(), offsets.data(),
                     docs.data(), count, ref.data());
    simd::fold_cells(simd::active_level(), cells.data(), offsets.data(),
                     docs.data(), count, vec.data());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(ref[i], vec[i]) << "doc " << i << " of " << count;
    }
    EXPECT_EQ(vec[count], -1.0) << "kernel wrote past count=" << count;
  }
}

// ---- the edge cap behind the 32-bit cross index -----------------------

// from_edges and Builder::finalize refuse a graph this predicate refuses;
// a graph at the cap would need 2^32 edges in memory, so the predicate is
// what the test can reach.
TEST(NarrowCrossIndex, SelectionBoundaryAtTwoToThe32) {
  static_assert(Digraph::kMaxEdges == (EdgeId{1} << 32) - 1);
  static_assert(Digraph::edge_count_allowed(0));
  static_assert(Digraph::edge_count_allowed((EdgeId{1} << 32) - 1));
  static_assert(!Digraph::edge_count_allowed(EdgeId{1} << 32));
  static_assert(!Digraph::edge_count_allowed((EdgeId{1} << 32) + 1));
  // Runtime spot checks of the same predicate (static_assert already
  // proved them; these keep the test visible in the runner output).
  EXPECT_TRUE(Digraph::edge_count_allowed((EdgeId{1} << 32) - 1));
  EXPECT_FALSE(Digraph::edge_count_allowed(EdgeId{1} << 32));
}

// ---- negative contract tests ------------------------------------------

#define SKIP_WITHOUT_CONTRACTS()                                          \
  if (!contracts::enabled()) {                                            \
    GTEST_SKIP() << "contracts compiled out (DPRANK_CHECK_INVARIANTS "    \
                    "off)";                                               \
  }

template <typename Fn>
void expect_violation(const char* subsystem, Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    FAIL() << "expected ContractViolation from subsystem " << subsystem;
  } catch (const contracts::ContractViolation& v) {
    EXPECT_EQ(v.subsystem(), subsystem) << v.what();
    EXPECT_FALSE(v.expression().empty());
    EXPECT_NE(v.line(), 0);
  }
}

TEST(LayoutNegative, ValidatorCatchesCorruptNarrowCrossEntry) {
  SKIP_WITHOUT_CONTRACTS();
  Digraph g = paper_graph(200, 3);
  g.validate();  // healthy before the corruption
  TestCorruptor::corrupt_narrow_cross_entry(g);
  expect_violation("graph", [&] { g.validate(); });
}

}  // namespace
}  // namespace dprank
