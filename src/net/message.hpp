#pragma once

// Wire format of the distributed pagerank system's updates.
//
// §4.6.1 fixes the wire size of a pagerank update at 24 bytes: a 128-bit
// GUID naming the destination document plus a 64-bit rank value. The
// index update of §2.4.2 has the same shape. Traffic meters bill these
// sizes (kWireBytes).

#include <cstdint>

#include "common/guid.hpp"

namespace dprank {

/// Pagerank update for one document (Fig. 1 step 2/4). In static mode
/// `value` is the sender's new contribution R(j)/N(j); in incremental mode
/// it is a signed increment (negative for deletions, §3.1).
struct PagerankUpdate {
  Guid doc;
  double value = 0.0;
  /// Wire size per §4.6.1: 128-bit GUID + 64-bit rank.
  static constexpr std::uint32_t kWireBytes = 24;
};

/// Index update: a document's converged rank is recorded next to its
/// posting entries (§2.4.2).
struct IndexRankUpdate {
  Guid doc;
  double rank = 0.0;
  static constexpr std::uint32_t kWireBytes = 24;
};

}  // namespace dprank
