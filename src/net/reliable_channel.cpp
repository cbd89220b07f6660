#include "net/reliable_channel.hpp"

#include <algorithm>
#include <string>

#include "common/contracts.hpp"

namespace dprank {

std::uint64_t ReliableChannel::retry_interval(std::uint32_t attempt) const {
  std::uint64_t interval = std::max<std::uint32_t>(1, config_.ack_timeout_passes);
  const std::uint64_t cap =
      std::max<std::uint32_t>(1, config_.retry_backoff_cap);
  for (std::uint32_t i = 0; i < attempt && interval < cap; ++i) interval *= 2;
  return std::min(interval, cap);
}

void ReliableChannel::track(const Pending& send, std::uint64_t pass) {
  if (config_.max_attempts != 0 && send.attempt >= config_.max_attempts) {
    // Retry budget exhausted: terminal outcome instead of another backoff
    // round. The record never re-enters the in-flight table, so the
    // ledger sees neither an insertion nor an exit.
    ++gave_up_;
    gave_up_queue_.push_back(send);
    return;
  }
  auto [entry, inserted] = inflight_.try_emplace(send.slot);
  if (inserted) ++tracked_;
  if (entry->second.send.seq <= send.seq) entry->second.send = send;
  entry->second.retry_at = pass + retry_interval(send.attempt);
  peak_in_flight_ = std::max<std::uint64_t>(peak_in_flight_, inflight_.size());
}

void ReliableChannel::ack(std::uint64_t slot, std::uint32_t seq) {
  const Inflight* entry = inflight_.find(slot);
  if (entry != nullptr && entry->send.seq <= seq) {
    inflight_.erase(slot);
    ++acked_clears_;
  }
}

std::vector<ReliableChannel::Pending> ReliableChannel::take_due(
    std::uint64_t pass) {
  std::vector<Pending> due;
  inflight_.erase_if([&](std::uint64_t, Inflight& entry) {
    if (entry.retry_at > pass) return false;
    due.push_back(entry.send);
    return true;
  });
  // The flat map iterates in slot-array order; callers observe the
  // retransmission order, so restore the slot order the std::map gave.
  std::sort(due.begin(), due.end(),
            [](const Pending& a, const Pending& b) { return a.slot < b.slot; });
  retransmissions_ += due.size();
  taken_ += due.size();
  return due;
}

std::vector<ReliableChannel::Pending> ReliableChannel::forget_sender(
    std::uint32_t src) {
  std::vector<Pending> lost;
  inflight_.erase_if([&](std::uint64_t, Inflight& entry) {
    if (entry.send.src != src) return false;
    lost.push_back(entry.send);
    return true;
  });
  std::sort(lost.begin(), lost.end(),
            [](const Pending& a, const Pending& b) { return a.slot < b.slot; });
  forgotten_ += lost.size();
  return lost;
}

std::vector<ReliableChannel::Pending> ReliableChannel::give_up_on_dest(
    std::uint32_t dest) {
  std::vector<Pending> abandoned;
  inflight_.erase_if([&](std::uint64_t, Inflight& entry) {
    if (entry.send.dest != dest) return false;
    abandoned.push_back(entry.send);
    return true;
  });
  std::sort(abandoned.begin(), abandoned.end(),
            [](const Pending& a, const Pending& b) { return a.slot < b.slot; });
  gave_up_removed_ += abandoned.size();
  gave_up_ += abandoned.size();
  gave_up_queue_.insert(gave_up_queue_.end(), abandoned.begin(),
                        abandoned.end());
  return abandoned;
}

std::vector<ReliableChannel::Pending> ReliableChannel::take_gave_up() {
  std::vector<Pending> drained;
  drained.swap(gave_up_queue_);
  return drained;
}

std::uint64_t ReliableChannel::reassign_sender(std::uint32_t src,
                                               std::uint32_t heir) {
  std::uint64_t moved = 0;
  inflight_.for_each([&](std::uint64_t, Inflight& entry) {
    if (entry.send.src == src) {
      entry.send.src = heir;
      ++moved;
    }
  });
  return moved;
}

bool ReliableChannel::accept(std::uint64_t slot, std::uint32_t seq) {
  EdgeRecord& rec = record(slot);
  if (seq > rec.applied) {
    rec.applied = seq;
    return true;
  }
  if (seq == rec.applied) {
    ++duplicates_suppressed_;
  } else {
    ++stale_rejected_;
  }
  return false;
}

void ReliableChannel::validate() const {
  if (!contracts::enabled()) return;
  [[maybe_unused]] const char* kSub = "net";
  for (std::uint64_t slot = 0; slot < edges_.size(); ++slot) {
    // A slot applied without local issues only happens when sender and
    // receiver roles live in different channel instances; the simulator
    // shares one, where every applied value was issued here.
    const EdgeRecord& rec = edges_[slot];
    if (rec.issued != 0) {
      DPRANK_INVARIANT(rec.applied <= rec.issued, kSub,
                       "slot " + std::to_string(slot) + " applied seq " +
                           std::to_string(rec.applied) +
                           " ahead of the newest issued seq " +
                           std::to_string(rec.issued));
    }
  }
  inflight_.for_each([&](std::uint64_t slot, const Inflight& entry) {
    DPRANK_INVARIANT(entry.send.slot == slot, kSub,
                     "in-flight record filed under slot " +
                         std::to_string(slot) + " but carries slot " +
                         std::to_string(entry.send.slot));
    DPRANK_INVARIANT(entry.send.seq >= 1, kSub,
                     "in-flight record on slot " + std::to_string(slot) +
                         " carries an unissued sequence number 0");
    DPRANK_INVARIANT(slot < edges_.size() && edges_[slot].issued >= 1, kSub,
                     "in-flight record on slot " + std::to_string(slot) +
                         " has no issued sequence counter");
    DPRANK_INVARIANT(entry.send.seq <= edges_[slot].issued, kSub,
                     "in-flight record on slot " + std::to_string(slot) +
                         " carries seq " + std::to_string(entry.send.seq) +
                         " ahead of the newest issued seq " +
                         std::to_string(edges_[slot].issued));
  });
  DPRANK_INVARIANT(peak_in_flight_ >= inflight_.size(), kSub,
                   "peak_in_flight() understates the live in-flight count");
  // Conservation ledger: every insertion into the in-flight table left
  // through exactly one exit or is still live. (Budget-exhausted give-ups
  // never re-entered the table, so they appear in gave_up_ but not here.)
  DPRANK_INVARIANT(
      tracked_ ==
          acked_clears_ + forgotten_ + taken_ + gave_up_removed_ +
              inflight_.size(),
      kSub,
      "in-flight conservation ledger out of balance: tracked " +
          std::to_string(tracked_) + " != acked " +
          std::to_string(acked_clears_) + " + forgotten " +
          std::to_string(forgotten_) + " + taken " + std::to_string(taken_) +
          " + gave_up " + std::to_string(gave_up_removed_) + " + in_flight " +
          std::to_string(inflight_.size()));
  DPRANK_INVARIANT(gave_up_queue_.size() <= gave_up_, kSub,
                   "undrained give-up queue exceeds the total give-up count");
}

}  // namespace dprank
