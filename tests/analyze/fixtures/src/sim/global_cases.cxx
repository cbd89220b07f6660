// dprank_analyze fixture: mutable-global. Mutable static state outlives
// one run: the next run (or test) in the same process starts from
// whatever the last one left behind.

#include <cstdint>

namespace fx {

class MetricsRegistry {
 public:
  void add(std::uint64_t n);
};

// FINDING mutable-global: a namespace-scope counter leaks across runs.
static std::uint64_t runs_started = 0;

// ok: an immutable static carries no state between runs.
static constexpr std::uint64_t kMaxRuns = 64;

// ok: a Meyers singleton of a sanctioned registry is the pattern.
inline MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

// ok (waivered): the fixture's story calls this a deliberate memo.
inline std::uint64_t memo_size() {
  // dprank-analyze: allow(mutable-global) -- fixture waiver case
  static std::uint64_t size = 0;
  return size;
}

}  // namespace fx
