// Stable discrete-event priority queue.
//
// Events fire in timestamp order; events with equal timestamps fire in
// insertion order (FIFO). Stability matters: a host that flushes a buffer
// of delayed responses schedules many events at the same instant, and the
// resulting record log must be reproducible byte-for-byte across runs.
//
// Implemented as an owned 4-ary min-heap over a std::vector rather than
// std::priority_queue: the wider node halves the tree depth (fewer sifts
// per operation), and owning the storage gives pop() proper non-const
// access to move the callback out — std::priority_queue exposes only a
// const top(), which used to force a `mutable` member and a documented
// const-cast workaround. The heap nodes hold only the 24-byte ordering key
// plus a slot index; callbacks live in a side slab with a free list, so a
// sift moves small keys (a 4-child compare touches two cache lines, not
// five) and a callback is never moved between push and pop. Callbacks are
// util::InlineFunction so the dominant small lambda captures (a `this`
// pointer plus a few words of probe state) never touch the allocator.
//
// Beside the heap sit FIFO lanes, one per fixed delay its owner declares
// (add_lane). A survey schedules most of its events at one of two fixed
// delays after the clock — the next probe of a block, and a probe's match
// timeout — and events pushed at a fixed delay by a clock that never goes
// back arrive in time order, so a lane is a plain ring over a vector:
// push appends, pop takes the front, no sift either way. Lane entries draw
// on the heap's one seq counter and callback slab, and pop() returns the
// earliest (time, seq) among the heap top and the lane fronts, so the
// firing order, equal-time ties included, is exactly what one heap would
// give. size() and high_water() count lane entries too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/inline_function.h"
#include "util/sim_time.h"

namespace turtle::sim {

/// Priority queue of (time, callback) pairs with FIFO tie-breaking.
class EventQueue {
 public:
  /// 48 inline bytes cover every capture the probers, hosts and fabric
  /// schedule; packets in flight are parked in sim::Network's slab and
  /// captured by index.
  using Callback = util::InlineFunction<void(), 48>;

  /// No lane: lane_for()'s answer for an undeclared delay, and push()'s
  /// default, which puts the event on the heap.
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

  /// Declares a FIFO lane for events pushed exactly `delay` after their
  /// pusher's clock, and returns its index. Declaring a delay again
  /// returns the existing lane.
  std::size_t add_lane(SimTime delay);

  /// The lane declared for `delay`, or kNoLane.
  [[nodiscard]] std::size_t lane_for(SimTime delay) const {
    for (const Lane& lane : lanes_) {
      if (lane.delay == delay) return static_cast<std::size_t>(&lane - lanes_.data());
    }
    return kNoLane;
  }

  /// Enqueues `cb` to fire at absolute time `t`: on the heap, or, given
  /// a lane, at the back of that lane. A lane push must not be earlier
  /// than the lane's back (DCHECK), which holds whenever `t` is the
  /// pusher's clock plus the lane's delay.
  void push(SimTime t, Callback&& cb, std::size_t lane = kNoLane);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Most events ever pending at once — the queue-depth high-water mark.
  /// The Simulator exports it as the "sim.queue_high_water" gauge.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// Timestamp of the next event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const {
    TURTLE_DCHECK(!empty()) << "next_time() on an empty EventQueue";
    return next_lane_ == kNoLane ? heap_.front().time : lanes_[next_lane_].front().time;
  }

  /// Removes and returns the next event's callback. Precondition: !empty().
  [[nodiscard]] Callback pop();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;   // insertion order, for stable ties
    std::uint32_t slot;  // index into callbacks_
  };

  /// A ring over a vector whose size is zero or a power of two.
  struct Lane {
    SimTime delay;
    std::vector<Entry> ring;
    std::size_t head = 0;   ///< ring index of the front entry
    std::size_t count = 0;  ///< entries queued

    [[nodiscard]] const Entry& front() const { return ring[head]; }
    [[nodiscard]] const Entry& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
  };

  static constexpr std::size_t kArity = 4;

  /// Min-heap order: earliest time first, then lowest seq (FIFO).
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// The lane whose front precedes the heap top and every other lane's
  /// front, or kNoLane when the heap holds the next event (or none does).
  [[nodiscard]] std::size_t earliest_lane() const {
    std::size_t best = kNoLane;
    const Entry* first = heap_.empty() ? nullptr : &heap_.front();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& lane = lanes_[i];
      if (lane.count == 0) continue;
      if (first == nullptr || earlier(lane.front(), *first)) {
        first = &lane.front();
        best = i;
      }
    }
    return best;
  }

  void push_lane(std::size_t lane, const Entry& entry);
  static void grow(Lane& lane);

  /// Lane whose front is the next event; kNoLane when the heap top is
  /// (or the queue is empty). push updates it, pop recomputes it.
  std::size_t next_lane_ = kNoLane;

  std::vector<Entry> heap_;
  std::vector<Lane> lanes_;
  std::vector<Callback> callbacks_;        ///< slab indexed by Entry::slot
  std::vector<std::uint32_t> free_slots_;  ///< slab indices ready for reuse
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;                   ///< heap plus lane entries
  std::size_t high_water_ = 0;
};

}  // namespace turtle::sim
