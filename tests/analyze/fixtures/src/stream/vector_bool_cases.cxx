// dprank_analyze fixture: vector-bool. This file includes <atomic>, so
// it counts as threaded: a mutable std::vector<bool> packs flags into
// shared words, and two workers writing "distinct" flags race.

#include <atomic>
#include <cstdint>
#include <vector>

namespace fx {

// FINDING vector-bool: workers set distinct flags concurrently.
struct SharedFlags {
  std::vector<bool> done_;
  std::atomic<std::uint32_t> remaining_{0};
};

// ok: a const reference only reads the packed bits.
inline bool any_set(const std::vector<bool>& flags) {
  for (const bool f : flags) {
    if (f) return true;
  }
  return false;
}

// ok: one byte per flag, so distinct elements never share a word.
struct ByteFlags {
  std::vector<std::uint8_t> done_;
};

// ok (waivered): the fixture's story says only the coordinator writes.
struct CoordinatorFlags {
  // dprank-analyze: allow(vector-bool) -- fixture waiver case
  std::vector<bool> present_;
};

}  // namespace fx
