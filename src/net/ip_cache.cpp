#include "net/ip_cache.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace dprank {

std::uint64_t IpCache::send_hops(PeerId src, Guid key, const ChordRing& ring) {
  const auto route = ring.lookup(src, key);
  if (route.hop_count == 0) return 0;  // key is local to src
  if (!enabled_) {
    note_hops(route.hop_count);
    return route.hop_count;
  }

  if (knows(src, route.destination)) {
    note_hit();
    note_hops(1);
    return 1;
  }
  note_miss();
  note_hops(route.hop_count);
  learn(src, route.destination);
  return route.hop_count;
}

std::uint64_t IpCache::send_hops_to_peer(PeerId src, PeerId holder, Guid key,
                                         const ChordRing& ring) {
  if (src == holder) return 0;
  if (enabled_) {
    if (knows(src, holder)) {
      note_hit();
      note_hops(1);
      return 1;
    }
    note_miss();
    learn(src, holder);
  }
  const auto route = ring.lookup(src, key);
  // Route to the directory entry, then one hop to the holder (free when
  // the directory owner already is the holder).
  const auto to_directory = route.hop_count;
  const std::uint64_t hops =
      to_directory + (route.destination == holder ? 0 : 1);
  note_hops(hops);
  return hops;
}

void IpCache::invalidate_peer(PeerId peer) {
  // Addresses the departed peer had learned...
  if (peer < rows_.size()) rows_[peer].clear();
  // ...and everyone else's cached address for it.
  const std::size_t word = peer / 64;
  const std::uint64_t mask = ~(std::uint64_t{1} << (peer % 64));
  for (auto& row : rows_) {
    if (word < row.size()) row[word] &= mask;
  }
}

void IpCache::bind_metrics(obs::MetricsRegistry& registry,
                           std::string_view overlay_name) {
  const std::string prefix = "dht." + std::string(overlay_name);
  hops_hist_ = &registry.histogram(prefix + ".send_hops");
  hits_ctr_ = &registry.counter(prefix + ".cache_hits");
  misses_ctr_ = &registry.counter(prefix + ".cache_misses");
}

std::uint64_t IpCache::entries() const {
  std::uint64_t total = 0;
  for (const auto& row : rows_) {
    for (const std::uint64_t word : row) {
      total += static_cast<std::uint64_t>(std::popcount(word));
    }
  }
  return total;
}

}  // namespace dprank
