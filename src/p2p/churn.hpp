#pragma once

// Peer churn schedules (§4.2, §4.3).
//
// "In between such passes, sets of peers randomly leave and join the
// network" and the dynamic-effects experiment keeps a fixed fraction of
// peers available at any given time (columns "75" and "50" of Table 1).
// ChurnSchedule produces, per pass, the set of available peers. Two
// models:
//   * kResample (the paper's): exactly floor(f * P) peers present,
//     re-chosen uniformly at random every pass;
//   * kSessions (extension): each peer follows a two-state Markov chain
//     with geometric online/offline session lengths and stationary
//     availability f — peers that leave stay away for whole sessions,
//     which stresses the outbox far harder than per-pass resampling.
// availability 1.0 -> all peers present every pass in either model.
// Deterministic from the seed.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dht/ring.hpp"

namespace dprank {

enum class ChurnModel : std::uint8_t {
  kResample,  // the paper's per-pass uniform re-draw
  kSessions,  // geometric on/off sessions (extension)
};

class ChurnSchedule {
 public:
  /// `mean_online_passes` only applies to kSessions: the expected length
  /// of an online session; offline sessions are scaled to make the
  /// stationary availability equal `availability`.
  ChurnSchedule(PeerId num_peers, double availability, std::uint64_t seed,
                ChurnModel model = ChurnModel::kResample,
                double mean_online_passes = 10.0);

  /// Presence mask for the given pass: mask[p] is true when peer p is
  /// online during that pass. Passes must be requested in nondecreasing
  /// order (the schedule streams its RNG).
  [[nodiscard]] const std::vector<bool>& presence_for_pass(
      std::uint64_t pass);

  [[nodiscard]] PeerId num_peers() const { return num_peers_; }
  /// kResample: peers present each pass (exact). kSessions: the
  /// stationary expectation, floor(f * P).
  [[nodiscard]] PeerId present_per_pass() const { return present_count_; }

 private:
  void advance_to(std::uint64_t pass);
  void advance_sessions();

  PeerId num_peers_;
  double availability_;
  ChurnModel model_;
  PeerId present_count_;
  double leave_prob_ = 0.0;   // kSessions: online -> offline per pass
  double return_prob_ = 0.0;  // kSessions: offline -> online per pass
  Rng rng_;
  std::uint64_t current_pass_ = 0;
  std::vector<bool> mask_;
};

}  // namespace dprank
