#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/prng.h"

namespace turtle::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime::seconds(2), [&] { fired.push_back(2); });
  q.push(SimTime::seconds(1), [&] { fired.push_back(1); });
  q.push(SimTime::seconds(3), [&] { fired.push_back(3); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime::seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeAndSize) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(SimTime::seconds(5), [] {});
  q.push(SimTime::seconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
}

// Interleaved push/pop exercises the callback slab's free list: popped
// slots are recycled while FIFO stability at equal times must still hold
// (seq numbers keep ordering even when slots are reused out of order).
TEST(EventQueue, FifoSurvivesSlotRecycling) {
  EventQueue q;
  std::vector<int> fired;
  int next = 0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 7; ++i) {
      const int id = next++;
      q.push(SimTime::seconds(100), [&fired, id] { fired.push_back(id); });
    }
    // Drain a prefix so free slots interleave with live ones.
    for (int i = 0; i < 3; ++i) q.pop()();
  }
  while (!q.empty()) q.pop()();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, MoveOnlyCallback) {
  EventQueue q;
  auto value = std::make_unique<int>(41);
  int seen = 0;
  q.push(SimTime::seconds(1), [v = std::move(value), &seen] { seen = *v + 1; });
  q.pop()();
  EXPECT_EQ(seen, 42);
}

// Lane entries and heap entries share one seq counter, so a tie at one
// timestamp fires in push order whichever structure holds each entry.
TEST(EventQueue, LanesAndHeapShareOneOrder) {
  EventQueue q;
  const std::size_t lane = q.add_lane(SimTime::seconds(3));
  EXPECT_EQ(q.add_lane(SimTime::seconds(3)), lane);  // one lane per delay
  EXPECT_EQ(q.lane_for(SimTime::seconds(3)), lane);
  EXPECT_EQ(q.lane_for(SimTime::seconds(4)), EventQueue::kNoLane);
  std::vector<int> fired;
  q.push(SimTime::seconds(5), [&] { fired.push_back(0); });
  q.push(SimTime::seconds(5), [&] { fired.push_back(1); }, lane);
  q.push(SimTime::seconds(5), [&] { fired.push_back(2); });
  q.push(SimTime::seconds(6), [&] { fired.push_back(3); }, lane);
  q.push(SimTime::seconds(4), [&] { fired.push_back(4); });
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.next_time(), SimTime::seconds(4));
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{4, 0, 1, 2, 3}));
  EXPECT_EQ(q.high_water(), 5u);
}

// A lane's ring wraps and grows while it holds entries: FIFO order holds
// across both.
TEST(EventQueue, LaneRingWrapsAndGrows) {
  EventQueue q;
  const std::size_t lane = q.add_lane(SimTime::micros(1));
  std::vector<int> fired;
  int next_push = 0;
  for (int wave = 0; wave < 30; ++wave) {
    for (int i = 0; i < 5 + wave; ++i) {
      const int id = next_push++;
      q.push(SimTime::micros(id), [&fired, id] { fired.push_back(id); }, lane);
    }
    for (int i = 0; i < 4; ++i) q.pop()();
  }
  while (!q.empty()) q.pop()();
  std::vector<int> expected(static_cast<std::size_t>(next_push));
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
}

#if TURTLE_DCHECK_ENABLED
TEST(EventQueueDeathTest, LanePushBehindItsBackTripsDcheck) {
  EXPECT_DEATH(
      {
        EventQueue q;
        const std::size_t lane = q.add_lane(SimTime::seconds(3));
        q.push(SimTime::seconds(10), [] {}, lane);
        q.push(SimTime::seconds(9), [] {}, lane);
      },
      "behind the lane's back");
}

TEST(EventQueueDeathTest, PopOnEmptyTripsDcheck) {
  EXPECT_DEATH(
      {
        EventQueue q;
        (void)q.pop();
      },
      "pop\\(\\) on an empty EventQueue");
}

TEST(EventQueueDeathTest, NextTimeOnEmptyTripsDcheck) {
  EXPECT_DEATH(
      {
        EventQueue q;
        (void)q.next_time();
      },
      "next_time\\(\\) on an empty EventQueue");
}
#endif

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.schedule_at(SimTime::seconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(7));
  EXPECT_EQ(sim.now(), SimTime::seconds(7));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> at;
  sim.schedule_at(SimTime::seconds(10), [&] {
    sim.schedule_after(SimTime::seconds(5), [&] { at.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], SimTime::seconds(15));
}

// Scheduling in the simulated past is a DCHECK when DCHECKs are armed
// (debug and sanitizer builds) and clamps to now() otherwise.
#if TURTLE_DCHECK_ENABLED
TEST(SimulatorDeathTest, PastSchedulingTripsDcheck) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_at(SimTime::seconds(10), [&] {
          sim.schedule_at(SimTime::seconds(1), [] {});
        });
        sim.run();
      },
      "schedule_at in the simulated past");
}

TEST(SimulatorDeathTest, NegativeDelayTripsDcheck) {
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule_after(SimTime::seconds(-5), [] {});
      },
      "negative delay");
}
#else
TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(SimTime::seconds(10), [&] {
    sim.schedule_at(SimTime::seconds(1), [&] {
      fired = true;
      EXPECT_EQ(sim.now(), SimTime::seconds(10));
    });
  });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(SimTime::seconds(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime{});
}
#endif

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(3), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(sim.now(), SimTime::minutes(5));
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule_at(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, RegistryBackedCountersMatchShims) {
  obs::Registry registry;
  {
    Simulator sim{&registry};
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at(SimTime::seconds(i), [] {});
    }
    sim.schedule_at(SimTime::seconds(0), [] {});  // same timestamp as event 0
    sim.run();
    // The member shim and the registry counter are the same cell.
    EXPECT_EQ(sim.events_processed(), 6u);
    EXPECT_EQ(registry.counter("sim.events_processed").value(), 6u);
    EXPECT_EQ(registry.counter("sim.event_times").value(), 5u);  // distinct timestamps
  }
  // Destruction flushed the queue high-water gauge: all 6 events were
  // enqueued before any ran.
  EXPECT_EQ(registry.gauge("sim.queue_high_water").value(), 6);
}

TEST(Simulator, WithoutRegistryFallbackCountersStillWork) {
  Simulator sim;
  sim.schedule_at(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, EventChainTerminates) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1000) sim.schedule_after(SimTime::millis(1), chain);
  };
  sim.schedule_at(SimTime{}, chain);
  sim.run();
  EXPECT_EQ(count, 1000);
  EXPECT_EQ(sim.now(), SimTime::millis(999));
}

TEST(Simulator, InterleavedSourcesStayOrdered) {
  Simulator sim;
  std::vector<SimTime> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(SimTime::millis(i * 7 % 97), [&] { order.push_back(sim.now()); });
  }
  sim.run();
  for (std::size_t i = 1; i < order.size(); ++i) ASSERT_GE(order[i], order[i - 1]);
}

// Two declared fixed delays plus heap delays drawn from a small range,
// so timestamps tie across the heap and both lanes, with events pushed
// both between runs and from inside callbacks. The firing order must be
// exactly a stable sort of the pushes by time — what one heap gives —
// and the queue depth must count lane entries.
class LaneOrderModel {
 public:
  static constexpr std::int64_t kSlotUs = 5;
  static constexpr std::int64_t kTimeoutUs = 7;

  LaneOrderModel(Simulator& sim, int budget) : sim_{sim}, budget_{budget} {
    sim_.declare_fixed_delay(SimTime::micros(kSlotUs));
    sim_.declare_fixed_delay(SimTime::micros(kTimeoutUs));
  }

  /// Schedules one event at a random delay from now.
  void push() {
    const auto id = static_cast<int>(push_times_.size());
    const SimTime at = sim_.now() + random_delay();
    push_times_.push_back(at);
    if (++pending_ > peak_) peak_ = pending_;
    --budget_;
    sim_.schedule_at(at, [this, id] { fire(id); });
  }

  [[nodiscard]] bool has_budget() const { return budget_ > 0; }
  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] const std::vector<int>& fired() const { return fired_; }

  /// Push ids in a stable sort by push time.
  [[nodiscard]] std::vector<int> expected_order() const {
    std::vector<int> ids(push_times_.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(), [this](int a, int b) {
      return push_times_[static_cast<std::size_t>(a)] < push_times_[static_cast<std::size_t>(b)];
    });
    return ids;
  }

 private:
  SimTime random_delay() {
    switch (rng_.uniform_int(4)) {
      case 0:
        return SimTime::micros(kSlotUs);
      case 1:
        return SimTime::micros(kTimeoutUs);
      default: {
        // Heap delays: 0..12 µs minus the two lane delays.
        static constexpr std::int64_t kHeapUs[] = {0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12};
        return SimTime::micros(kHeapUs[rng_.uniform_int(std::size(kHeapUs))]);
      }
    }
  }

  void fire(int id) {
    EXPECT_EQ(sim_.now(), push_times_[static_cast<std::size_t>(id)]);
    fired_.push_back(id);
    --pending_;
    EXPECT_EQ(sim_.pending_events(), pending_);
    const std::uint64_t children = rng_.uniform_int(4);
    for (std::uint64_t i = 0; i < children && has_budget(); ++i) push();
  }

  Simulator& sim_;
  util::Prng rng_{0x1A4E};
  int budget_;
  std::vector<SimTime> push_times_;
  std::vector<int> fired_;
  std::size_t pending_ = 0;
  std::size_t peak_ = 0;
};

TEST(Simulator, FixedDelayLanesFireInStableTimeOrder) {
  obs::Registry registry;
  Simulator sim{&registry};
  LaneOrderModel model{sim, 20'000};
  // Batches pushed from outside callbacks at advancing clocks, each run
  // partly drained so later batches meet queued entries of every kind.
  for (int batch = 0; batch < 50 && model.has_budget(); ++batch) {
    for (int i = 0; i < 40 && model.has_budget(); ++i) model.push();
    sim.run_until(sim.now() + SimTime::micros(3));
  }
  sim.run();
  ASSERT_FALSE(model.has_budget());
  EXPECT_EQ(model.fired(), model.expected_order());
  EXPECT_EQ(registry.gauge("sim.queue_high_water").value(),
            static_cast<std::int64_t>(model.peak()));
}

}  // namespace
}  // namespace turtle::sim
