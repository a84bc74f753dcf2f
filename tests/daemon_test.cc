// turtle::daemon — event-loop timer and deferred semantics under fake
// time.
//
// Everything here runs on a fabricated clock: the event loop's ClockFn is
// swapped for a controllable static. No sockets, no wall time, no sleeps.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/event_loop.h"

namespace turtle::daemon {
namespace {

std::uint64_t g_fake_now_us = 0;
std::uint64_t fake_clock() { return g_fake_now_us; }

TEST(EventLoop, DeferredRunFifoAndDrainToEmpty) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  std::vector<std::string> order;
  loop.defer([&] {
    order.push_back("a");
    // Deferred-from-deferred runs in the same drain, after everything
    // queued earlier.
    loop.defer([&] { order.push_back("c"); });
  });
  loop.defer([&] { order.push_back("b"); });
  loop.run_ready(0);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
  // The queue drained: a second cycle runs nothing.
  order.clear();
  loop.run_ready(0);
  EXPECT_TRUE(order.empty());
}

TEST(EventLoop, TimersFireInDeadlineThenInsertionOrder) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  std::vector<int> fired;
  // Same deadline: insertion order breaks the tie. Earlier deadline fires
  // first even when scheduled later.
  loop.schedule_at(2'000, [&] { fired.push_back(1); });
  loop.schedule_at(2'000, [&] { fired.push_back(2); });
  loop.schedule_at(1'000, [&] { fired.push_back(0); });
  EXPECT_EQ(loop.pending_timers(), 3u);

  loop.run_ready(500);
  EXPECT_TRUE(fired.empty());
  loop.run_ready(2'500);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, TimersFireInOrderAtFakeInstants) {
  g_fake_now_us = 100;
  EventLoop loop{&fake_clock};
  std::vector<int> fired;
  loop.schedule_after(50, [&] { fired.push_back(1); });  // due at 150
  loop.schedule_at(120, [&] { fired.push_back(0); });

  loop.run_ready(119);
  EXPECT_TRUE(fired.empty());
  loop.run_ready(150);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, DeadlinesHonoredExactlyNotByTick) {
  // Deadlines are microseconds even though the poll timeout is whole
  // milliseconds: two deadlines 1 us apart fire in separate iterations,
  // each at its own microsecond.
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  std::vector<int> fired;
  loop.schedule_at(101, [&] { fired.push_back(1); });
  loop.schedule_at(100, [&] { fired.push_back(0); });

  loop.run_ready(99);
  EXPECT_TRUE(fired.empty());
  loop.run_ready(100);
  EXPECT_EQ(fired, (std::vector<int>{0}));
  loop.run_ready(101);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoop, CallbackRescheduleRunsNextIterationNotRecursively) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  int fired = 0;
  loop.schedule_at(1'000, [&] {
    ++fired;
    // Already due: must wait for the *next* iteration.
    loop.schedule_at(500, [&] { ++fired; });
  });
  loop.run_ready(1'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_timers(), 1u);
  loop.run_ready(1'000);
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, DeferredRunBeforeTimersThenPostDispatch) {
  g_fake_now_us = 0;
  EventLoop loop{&fake_clock};
  std::vector<std::string> order;
  loop.set_post_dispatch([&] { order.push_back("pump"); });
  loop.schedule_at(10, [&] { order.push_back("timer"); });
  loop.defer([&] { order.push_back("deferred"); });
  loop.run_ready(10);
  EXPECT_EQ(order, (std::vector<std::string>{"deferred", "timer", "pump"}));
}

}  // namespace
}  // namespace turtle::daemon
