#pragma once

// Open-addressing hash map keyed by 64-bit ids.
//
// The messaging path keys sparse state by small packed integers, such
// as the sender's out-edge id (ReliableChannel's in-flight records).
// `std::map` and `std::unordered_map` pay a node allocation plus a
// pointer chase per operation, which dominates the per-message cost once
// the rest of the pass is array-backed. FlatMap64 stores key/value pairs
// inline in one power-of-two slot array with linear probing: no
// per-entry allocations, one cache line per lookup in the common case,
// and memory that is recycled across passes instead of churned through
// the allocator.
//
// Determinism contract: iteration (for_each / begin..end) walks the slot
// array, so its order depends on the insertion/erase history and the table
// capacity — never on pointer values or a per-process hash seed, so it IS
// reproducible run to run. Callers that expose ordering to the simulation
// (retransmission order, drain order) must still sort extracted entries by
// key, exactly as they did with the node-based maps.
//
// Erase uses tombstones; the table rehashes when live + dead slots exceed
// ~3/4 of capacity, which bounds probe lengths without moving entries on
// every erase.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dprank {

template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Drops every entry but keeps the slot array for reuse (the
  /// allocation-free steady state the message path depends on).
  void clear() {
    std::fill(state_.begin(), state_.end(), kEmpty);
    size_ = 0;
    used_ = 0;
  }

  void reserve(std::size_t n) {
    const std::size_t needed = capacity_for(n);
    if (needed > slots_.size()) rehash(needed);
  }

  [[nodiscard]] Value* find(std::uint64_t key) {
    const std::size_t i = locate(key);
    return i != kNpos && state_[i] == kFull ? &slots_[i].second : nullptr;
  }
  [[nodiscard]] const Value* find(std::uint64_t key) const {
    const std::size_t i = locate(key);
    return i != kNpos && state_[i] == kFull ? &slots_[i].second : nullptr;
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  /// Default-constructs the value on first access, like std::map.
  Value& operator[](std::uint64_t key) {
    return try_emplace(key).first->second;
  }

  /// Returns ({key, value}*, inserted). The pointer stays valid until the
  /// next insertion (rehash may move entries) — same caveat as
  /// unordered_map iterators under rehash.
  std::pair<std::pair<std::uint64_t, Value>*, bool> try_emplace(
      std::uint64_t key) {
    grow_if_needed();
    std::size_t insert_at = kNpos;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (true) {
      if (state_[i] == kEmpty) {
        if (insert_at == kNpos) insert_at = i;
        break;
      }
      if (state_[i] == kDead) {
        if (insert_at == kNpos) insert_at = i;
      } else if (slots_[i].first == key) {
        return {&slots_[i], false};
      }
      i = (i + 1) & mask;
    }
    if (state_[insert_at] == kEmpty) ++used_;
    state_[insert_at] = kFull;
    slots_[insert_at].first = key;
    slots_[insert_at].second = Value{};
    ++size_;
    return {&slots_[insert_at], true};
  }

  bool erase(std::uint64_t key) {
    const std::size_t i = locate(key);
    if (i == kNpos || state_[i] != kFull) return false;
    state_[i] = kDead;
    slots_[i].second = Value{};
    --size_;
    return true;
  }

  /// fn(key, value&) for every live entry, in slot-array order (see the
  /// determinism contract above).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (state_[i] == kFull) fn(slots_[i].first, slots_[i].second);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (state_[i] == kFull) fn(slots_[i].first, slots_[i].second);
    }
  }

  /// Erase every entry fn(key, value&) returns true for; surviving and
  /// erased entries are visited exactly once.
  template <typename Fn>
  void erase_if(Fn&& fn) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (state_[i] == kFull && fn(slots_[i].first, slots_[i].second)) {
        state_[i] = kDead;
        slots_[i].second = Value{};
        --size_;
      }
    }
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kDead = 2;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  /// splitmix64 finalizer: fixed, platform-independent mixing (keys are
  /// sequential ids; identity hashing would cluster whole probe runs).
  [[nodiscard]] static std::uint64_t hash(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Rehash threshold is 3/4 full; size for it with headroom.
    while (cap * 3 < n * 4 + 4) cap *= 2;
    return cap;
  }

  /// Slot holding `key`, or the first empty slot of its probe run; kNpos
  /// only when the table is unallocated.
  [[nodiscard]] std::size_t locate(std::uint64_t key) const {
    if (slots_.empty()) return kNpos;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (state_[i] != kEmpty) {
      if (state_[i] == kFull && slots_[i].first == key) return i;
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if ((used_ + 1) * 4 > slots_.size() * 3) {
      // Dead-slot-heavy tables rehash in place (same capacity) — live
      // entries alone may be far below the threshold.
      rehash(size_ * 4 >= slots_.size() * 3 ? slots_.size() * 2
                                            : slots_.size());
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::pair<std::uint64_t, Value>> old_slots;
    std::vector<std::uint8_t> old_state;
    old_slots.swap(slots_);
    old_state.swap(state_);
    slots_.resize(new_cap);
    state_.assign(new_cap, kEmpty);
    size_ = 0;
    used_ = 0;
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (old_state[i] != kFull) continue;
      std::size_t j = hash(old_slots[i].first) & mask;
      while (state_[j] == kFull) j = (j + 1) & mask;
      state_[j] = kFull;
      slots_[j] = std::move(old_slots[i]);
      ++size_;
      ++used_;
    }
  }

  std::vector<std::pair<std::uint64_t, Value>> slots_;
  std::vector<std::uint8_t> state_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live + tombstoned slots (probe-run bound)
};

}  // namespace dprank
