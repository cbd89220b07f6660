// dprank_analyze fixture: hot-path-map. src/net/ is on the per-message
// hot path, where a node-based map pays an allocation and pointer chases
// per message; flat maps and vectors are the idiom.

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace fx {

// FINDING hot-path-map: per-destination queues in a node-based map.
struct QueuesByDest {
  std::unordered_map<std::uint32_t, std::vector<double>> queues_;
};

// ok: a flat array indexed by peer id.
struct QueuesByPeer {
  std::vector<std::vector<double>> queues_;
};

// ok (waivered): the fixture's story calls this a cold start-up table.
struct DelayTable {
  // dprank-analyze: allow(hot-path-map) -- fixture waiver case
  std::map<std::uint32_t, std::uint32_t> delay_by_link_;
};

}  // namespace fx
