#include "sim/event_queue.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace turtle::sim {

std::size_t EventQueue::add_lane(SimTime delay) {
  TURTLE_CHECK(!delay.is_negative()) << "lane for a negative delay " << delay;
  const std::size_t existing = lane_for(delay);
  if (existing != kNoLane) return existing;
  lanes_.push_back(Lane{delay, {}, 0, 0});
  return lanes_.size() - 1;
}

void EventQueue::push(SimTime t, Callback&& cb, std::size_t lane_index) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    TURTLE_CHECK_LT(callbacks_.size(),
                    static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()))
        << "event queue slab exceeds 2^32 pending events";
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  if (++size_ > high_water_) high_water_ = size_;
  const Entry entry{t, next_seq_++, slot};

  if (lane_index != kNoLane) {
    push_lane(lane_index, entry);
    return;
  }
  // Sift-up with a hole: keep the new key aside, slide later parents
  // down, and place it once — one key move per level instead of a swap.
  std::size_t i = heap_.size();
  heap_.emplace_back();  // hole at the end
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  if (i == 0 && next_lane_ != kNoLane && earlier(entry, lanes_[next_lane_].front())) {
    next_lane_ = kNoLane;
  }
}

void EventQueue::push_lane(std::size_t lane_index, const Entry& entry) {
  TURTLE_DCHECK_LT(lane_index, lanes_.size()) << "push to an undeclared lane";
  Lane& lane = lanes_[lane_index];
  TURTLE_DCHECK(lane.count == 0 || entry.time >= lane.back().time)
      << "lane push at " << entry.time << " behind the lane's back at " << lane.back().time;
  if (lane.count == lane.ring.size()) grow(lane);
  lane.ring[(lane.head + lane.count) & (lane.ring.size() - 1)] = entry;
  // Only an entry that lands at the front of an empty lane can be next.
  if (++lane.count == 1) {
    const Entry* next = next_lane_ != kNoLane ? &lanes_[next_lane_].front()
                        : heap_.empty()       ? nullptr
                                              : &heap_.front();
    if (next == nullptr || earlier(entry, *next)) next_lane_ = lane_index;
  }
}

void EventQueue::grow(Lane& lane) {
  // Unroll the ring into a vector twice its size, front first.
  std::vector<Entry> ring(std::max<std::size_t>(16, 2 * lane.ring.size()));
  for (std::size_t i = 0; i < lane.count; ++i) {
    ring[i] = lane.ring[(lane.head + i) & (lane.ring.size() - 1)];
  }
  lane.ring = std::move(ring);
  lane.head = 0;
}

EventQueue::Callback EventQueue::pop() {
  TURTLE_DCHECK(!empty()) << "pop() on an empty EventQueue";
  const std::uint32_t slot =
      next_lane_ == kNoLane ? heap_.front().slot : lanes_[next_lane_].front().slot;
  Callback cb = std::move(callbacks_[slot]);
  free_slots_.push_back(slot);
  --size_;
  if (next_lane_ == kNoLane) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Sift-down with a hole at the root, re-inserting `last`.
      const std::size_t n = heap_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = kArity * i + 1;
        if (first_child >= n) break;
        const std::size_t end_child = std::min(first_child + kArity, n);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < end_child; ++c) {
          if (earlier(heap_[c], heap_[best])) best = c;
        }
        if (!earlier(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
  } else {
    Lane& lane = lanes_[next_lane_];
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    --lane.count;
  }
  if (!lanes_.empty()) next_lane_ = earliest_lane();
  return cb;
}

}  // namespace turtle::sim
