// dprank_analyze fixture: waiver hygiene. A waiver that suppresses
// nothing is itself an error, and a waiver without a reason is
// malformed even when it does suppress a finding.

#include <cstdlib>

namespace fx {

// FINDING unused-waiver: nothing below trips nondet-source.
// dprank-analyze: allow(nondet-source) -- stale fixture waiver
inline int pure_add(int a, int b) {
  return a + b;
}

// FINDING malformed-waiver: used, so the rand() stays suppressed.
inline int lazy_waiver() {
  // dprank-analyze: allow(nondet-source)
  return std::rand();
}

}  // namespace fx
