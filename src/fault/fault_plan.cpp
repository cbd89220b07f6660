#include "fault/fault_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace dprank {

FaultPlan::FaultPlan(FaultPlanConfig config)
    : config_(std::move(config)),
      fate_rng_(config_.seed ^ 0xFA017ULL),
      crash_rng_(mix64(config_.seed ^ 0xC4A54ULL)) {
  if (config_.drop_probability < 0.0 || config_.drop_probability >= 1.0 ||
      config_.duplicate_probability < 0.0 ||
      config_.duplicate_probability > 1.0 ||
      config_.reorder_probability < 0.0 ||
      config_.reorder_probability > 1.0 || config_.crash_probability < 0.0 ||
      config_.crash_probability > 1.0) {
    throw std::invalid_argument("FaultPlan: probability out of range");
  }
  for (const auto& part : config_.partitions) {
    if (part.fraction <= 0.0 || part.fraction >= 1.0) {
      throw std::invalid_argument("FaultPlan: partition fraction must split");
    }
    if (part.duration_passes == 0) {
      throw std::invalid_argument("FaultPlan: empty partition");
    }
  }
  if (config_.ack_timeout_passes == 0) {
    throw std::invalid_argument("FaultPlan: ack timeout must be >= 1 pass");
  }
  message_faults_ = config_.drop_probability > 0.0 ||
                    config_.duplicate_probability > 0.0;
  delay_enabled_ = config_.base_delay_passes > 0 ||
                   (config_.reorder_probability > 0.0 &&
                    config_.reorder_window > 0);
  // Deterministic schedules regardless of the order the caller listed them.
  std::sort(config_.crashes.begin(), config_.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.pass != b.pass ? a.pass < b.pass : a.peer < b.peer;
            });
  std::sort(config_.partitions.begin(), config_.partitions.end(),
            [](const PartitionEvent& a, const PartitionEvent& b) {
              return a.start_pass < b.start_pass;
            });
}

std::vector<PeerId> FaultPlan::begin_pass(std::uint64_t pass,
                                          PeerId num_peers) {
  if (pass < next_pass_) {
    throw std::logic_error("FaultPlan::begin_pass: passes must increase");
  }
  next_pass_ = pass + 1;

  if (partition_active_ && pass >= partition_end_) partition_active_ = false;
  for (const auto& part : config_.partitions) {
    if (part.start_pass == pass) {
      partition_active_ = true;
      partition_end_ = pass + part.duration_passes;
      partition_salt_ = mix64(config_.seed ^ (part.start_pass + 0x9A27ULL));
      partition_fraction_ = part.fraction;
      ++partitions_activated_;
    }
  }

  std::vector<PeerId> crashing;
  for (const auto& ev : config_.crashes) {
    if (ev.pass == pass && ev.peer < num_peers) crashing.push_back(ev.peer);
  }
  if (config_.crash_probability > 0.0) {
    for (PeerId p = 0; p < num_peers; ++p) {
      if (crash_rng_.chance(config_.crash_probability)) crashing.push_back(p);
    }
  }
  std::sort(crashing.begin(), crashing.end());
  crashing.erase(std::unique(crashing.begin(), crashing.end()),
                 crashing.end());
  crashes_injected_ += crashing.size();
  return crashing;
}

bool FaultPlan::side_of(PeerId p) const {
  // Deterministic pseudo-random side assignment: peer p is on side A with
  // probability partition_fraction_, independent of the peer count.
  const double u =
      static_cast<double>(mix64(partition_salt_ ^ p) >> 11) * 0x1.0p-53;
  return u < partition_fraction_;
}

bool FaultPlan::reachable(PeerId a, PeerId b) const {
  if (!partition_active_) return true;
  return side_of(a) == side_of(b);
}

SendFate FaultPlan::fate_for_send() {
  SendFate fate;
  if (message_faults_) {
    // Draw order, pinned by the fault goldens: drop first, duplicate only
    // for delivered messages.
    if (fate_rng_.chance(config_.drop_probability)) {
      fate.dropped = true;
      return fate;
    }
    fate.duplicated = fate_rng_.chance(config_.duplicate_probability);
  }
  if (delay_enabled_) {
    fate.delay_passes = config_.base_delay_passes;
    if (config_.reorder_window > 0 &&
        fate_rng_.chance(config_.reorder_probability)) {
      fate.delay_passes += static_cast<std::uint32_t>(
          1 + fate_rng_.bounded(config_.reorder_window));
    }
  }
  return fate;
}

}  // namespace dprank
