// The survey prober's table of outstanding probes.
//
// One entry per target address awaiting its answer: when the probe went
// out and in which round. Matching by source address looks the table up
// on every reply, and a probe leaves it on a match, an error, an expiry or
// an eviction, so a survey makes about one put, one find and one erase
// per probe. A std::unordered_map allocates and frees a node for each.
//
// This is open addressing over one power-of-two array of 16-byte entries.
// Fibonacci hashing spreads the survey's clustered addresses (the octets
// of contiguous /24s); linear probing keeps a lookup on a cache line or
// two; backward-shift erase pulls later entries of a probe run into the
// hole, so there are no tombstones and a long survey never slows down.
// The capacity follows the live probes: it doubles when an insert would
// pass half full and halves when an erase leaves it under an eighth.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/sim_time.h"

namespace turtle::probe {

class PendingTable {
 public:
  /// An outstanding probe of `address`.
  struct Entry {
    std::uint32_t address;
    std::uint32_t round;
    SimTime send_time;
  };

  /// The send time that marks a free slot. Every address can be a target,
  /// but no probe goes out before the simulated clock's zero.
  static constexpr SimTime kFree = SimTime::micros(-1);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots allocated: zero or a power of two, at least twice size().
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Records a probe of `address`, replacing the one it had, if any.
  void put(std::uint32_t address, SimTime send_time, std::uint32_t round) {
    TURTLE_CHECK(!send_time.is_negative()) << "probe sent at " << send_time;
    if (2 * (size_ + 1) > slots_.size()) rehash(std::max(kMinCapacity, 2 * slots_.size()));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(address);; i = (i + 1) & mask) {
      Entry& slot = slots_[i];
      const bool free = slot.send_time == kFree;
      if (free || slot.address == address) {
        if (free) ++size_;
        slot = Entry{address, round, send_time};
        return;
      }
    }
  }

  /// The entry for `address`, or nullptr. Valid until the next put, erase
  /// or clear.
  [[nodiscard]] const Entry* find(std::uint32_t address) const {
    if (size_ == 0) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(address);; i = (i + 1) & mask) {
      const Entry& slot = slots_[i];
      if (slot.send_time == kFree) return nullptr;
      if (slot.address == address) return &slot;
    }
  }

  /// Removes `entry`, a pointer find() returned.
  void erase(const Entry* entry) {
    const std::size_t mask = slots_.size() - 1;
    auto hole = static_cast<std::size_t>(entry - slots_.data());
    TURTLE_DCHECK_LT(hole, slots_.size()) << "erase of an entry from another table";
    // Backward shift: an entry further along the run may move into the
    // hole unless its home lies after the hole, between it and the entry.
    for (std::size_t i = (hole + 1) & mask; slots_[i].send_time != kFree; i = (i + 1) & mask) {
      if (((i - home(slots_[i].address)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].send_time = kFree;
    --size_;
    if (slots_.size() > kMinCapacity && 8 * size_ < slots_.size()) rehash(slots_.size() / 2);
  }

  /// Removes every entry and releases the array.
  void clear() {
    slots_ = {};
    size_ = 0;
  }

  /// Calls fn(entry) for each entry, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& slot : slots_) {
      if (slot.send_time != kFree) fn(slot);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// The slot a probe run for `address` starts at: the top log2(capacity)
  /// bits of a Fibonacci hash. Precondition: the array is allocated.
  [[nodiscard]] std::size_t home(std::uint32_t address) const {
    return static_cast<std::size_t>((std::uint64_t{address} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Entry> old =
        std::exchange(slots_, std::vector<Entry>(capacity, Entry{0, 0, kFree}));
    shift_ = 64 - std::countr_zero(capacity);
    const std::size_t mask = capacity - 1;
    for (const Entry& entry : old) {
      if (entry.send_time == kFree) continue;
      std::size_t i = home(entry.address);
      while (slots_[i].send_time != kFree) i = (i + 1) & mask;
      slots_[i] = entry;
    }
  }

  std::vector<Entry> slots_;  ///< capacity zero or a power of two
  std::size_t size_ = 0;
  int shift_ = 0;             ///< 64 - log2(capacity)
};

}  // namespace turtle::probe
