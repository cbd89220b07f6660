// dprank_analyze fixture: test code. nondet-source and the line rules
// sweep tests/ too (a test that draws from std::rand() or keeps state in
// a static is as irreproducible as the engine would be), but the
// thread-capture and contract-coverage rules read src/ and tools/ only:
// a test drives the pool unsharded on purpose, and a test calling
// validate() is not a contract sweep.

#include <cstdlib>

namespace fx {

class OrphanBuffer;  // src/dht/contract_cases.cxx

struct Pool {
  template <typename Fn>
  void run(unsigned shards, Fn&& fn);
};

struct Fixture {
  OrphanBuffer* orphan_;
};

// FINDING nondet-source: platform RNG in a test.
inline int random_case() {
  return std::rand();
}

// FINDING mutable-global: state shared between test cases.
static int cases_run = 0;

// ok: an unsharded by-reference region lambda, as a race test writes it.
inline int race_the_pool(Pool& pool) {
  int hits = 0;
  pool.run(4, [&](unsigned shard) { hits += 1; });
  return hits;
}

// ok: test code needs no contract sweep of its own.
class Harness {
 public:
  void validate() const;
};

// ok: not a contract sweep, so OrphanBuffer keeps its finding.
inline void check_orphan(Fixture& f) {
  OrphanBuffer* orphan = f.orphan_;
  orphan->validate();
}

}  // namespace fx
