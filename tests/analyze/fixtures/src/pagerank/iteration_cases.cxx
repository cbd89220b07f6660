// dprank_analyze fixture: R1 unordered-iteration and R3 float-order.
// Placed under src/pagerank/ (relative to the fixture root) so both the
// simulation-dir scope and the float-order scope apply. Each struct is
// one golden case; names are unique so the sorted-materialization
// escape cannot leak across cases.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fx {

struct Channel {
  void send(std::uint32_t peer, double value);
};

struct Rng {
  std::uint64_t next();
};

// FINDING unordered-iteration: message emission in hash order.
struct EmitsInHashOrder {
  std::unordered_map<std::uint32_t, double> outstanding_;
  Channel channel_;
  void drain() {
    for (const auto& [peer, value] : outstanding_) {
      channel_.send(peer, value);
    }
  }
};

// FINDING unordered-iteration: history append without a sort.
struct AppendsUnsorted {
  std::unordered_set<std::uint32_t> dirty_;
  std::vector<std::uint32_t> history_;
  void snapshot() {
    for (const auto v : dirty_) {
      history_.push_back(v);
    }
  }
};

// FINDING unordered-iteration: RNG stream consumed in hash order (the
// draw sequence reorders every later draw).
struct DrawsInHashOrder {
  std::unordered_set<std::uint32_t> pending_;
  Rng rng;
  std::vector<double> noise_;
  void jitter() {
    for (const auto v : pending_) {
      noise_.push_back(static_cast<double>(rng.next() ^ v));
    }
  }
};

// ok: the materialized vector is sorted before anyone observes it.
struct SortedMaterialization {
  std::unordered_set<std::uint32_t> touched_;
  std::vector<std::uint32_t> order_;
  void snapshot() {
    for (const auto v : touched_) {
      order_.push_back(v);
    }
    std::sort(order_.begin(), order_.end());
  }
};

// ok: vectors iterate in index order.
struct VectorIsFine {
  std::vector<std::uint32_t> items_;
  Channel channel_;
  void drain() {
    for (const auto v : items_) channel_.send(v, 1.0);
  }
};

// ok (waivered): the fixture's story says order is immaterial here.
struct WaivedEmit {
  std::unordered_map<std::uint32_t, double> queued_;
  Channel channel_;
  void drain() {
    // dprank-analyze: allow(unordered-iteration) -- fixture waiver case
    for (const auto& [peer, value] : queued_) {
      channel_.send(peer, value);
    }
  }
};

// FINDING float-order: double fold in hash order.
struct FloatFoldInHashOrder {
  std::unordered_map<std::uint32_t, double> contrib_;
  double total_ = 0.0;
  void fold() {
    double sum = 0.0;
    for (const auto& [v, c] : contrib_) {
      sum += c;
    }
    total_ = sum;
  }
};

// ok: integer accumulation commutes exactly.
struct IntCountIsFine {
  std::unordered_set<std::uint32_t> seen_;
  std::uint64_t count_ = 0;
  void tally() {
    std::uint64_t n = 0;
    for (const auto v : seen_) {
      n += v % 2;
    }
    count_ = n;
  }
};

}  // namespace fx
