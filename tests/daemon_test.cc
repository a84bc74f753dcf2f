// turtle::daemon — timer wheel ordering and cancellation, event-loop
// deferred/timer semantics under fake time, and the idle reaper.
//
// Everything here runs on fabricated clocks: the wheel takes absolute
// microseconds from the caller, and the event loop's ClockFn is swapped
// for a controllable static. No sockets, no wall time, no sleeps.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "daemon/event_loop.h"
#include "daemon/idle.h"
#include "daemon/timer_wheel.h"
#include "obs/metrics.h"

namespace turtle::daemon {
namespace {

std::uint64_t g_fake_now_us = 0;
std::uint64_t fake_clock() { return g_fake_now_us; }

TEST(TimerWheel, FiresInDeadlineThenInsertionOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  // Same deadline: insertion order breaks the tie. Earlier deadline fires
  // first even when scheduled later.
  wheel.schedule(2'000, [&] { fired.push_back(1); });
  wheel.schedule(2'000, [&] { fired.push_back(2); });
  wheel.schedule(1'000, [&] { fired.push_back(0); });
  EXPECT_EQ(wheel.size(), 3u);
  ASSERT_TRUE(wheel.next_deadline_us().has_value());
  EXPECT_EQ(*wheel.next_deadline_us(), 1'000u);

  EXPECT_EQ(wheel.advance(500), 0u);
  EXPECT_EQ(wheel.advance(2'500), 3u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_FALSE(wheel.next_deadline_us().has_value());
}

TEST(TimerWheel, DeadlinesHonoredExactlyNotByTick) {
  // Deadlines 1us apart land in the same hash slot; advance must still
  // separate them by microsecond, not by slot granularity.
  TimerWheel wheel{TimerWheel::Config{.tick_us = 10'000, .slots = 4}};
  std::vector<int> fired;
  wheel.schedule(101, [&] { fired.push_back(1); });
  wheel.schedule(100, [&] { fired.push_back(0); });
  EXPECT_EQ(wheel.advance(100), 1u);
  EXPECT_EQ(fired, (std::vector<int>{0}));
  EXPECT_EQ(wheel.advance(101), 1u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(TimerWheel, CancelPreventsFiringAndReportsLiveness) {
  TimerWheel wheel;
  int fired = 0;
  const auto id = wheel.schedule(1'000, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already cancelled
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_EQ(wheel.advance(10'000), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(wheel.cancel(9999));  // never existed
}

TEST(TimerWheel, CallbackCanCancelSiblingDueInSameBatch) {
  TimerWheel wheel;
  int sibling_fired = 0;
  TimerWheel::TimerId sibling = 0;
  // Timer A (earlier deadline) cancels timer B, due in the same advance.
  wheel.schedule(1'000, [&] { EXPECT_TRUE(wheel.cancel(sibling)); });
  sibling = wheel.schedule(2'000, [&] { ++sibling_fired; });
  EXPECT_EQ(wheel.advance(5'000), 1u);
  EXPECT_EQ(sibling_fired, 0);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CallbackRescheduleRunsNextAdvanceNotRecursively) {
  TimerWheel wheel;
  int fired = 0;
  wheel.schedule(1'000, [&] {
    ++fired;
    // Already-due deadline: must wait for the *next* advance.
    wheel.schedule(500, [&] { ++fired; });
  });
  EXPECT_EQ(wheel.advance(1'000), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.advance(1'000), 1u);
  EXPECT_EQ(fired, 2);
}

EventLoop::Config fake_time_config() {
  EventLoop::Config config;
  config.clock = &fake_clock;
  return config;
}

TEST(EventLoop, DeferredRunFifoAndDrainToEmpty) {
  g_fake_now_us = 0;
  EventLoop loop{fake_time_config()};
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

TEST(EventLoop, TimersFireInOrderAtFakeInstants) {
  g_fake_now_us = 100;
  EventLoop loop{fake_time_config()};
  std::vector<int> fired;
  loop.schedule_after(50, [&] { fired.push_back(1); });   // due at 150
  loop.schedule_at(120, [&] { fired.push_back(0); });
  const auto late = loop.schedule_at(200, [&] { fired.push_back(9); });

  loop.run_ready(119);
  EXPECT_TRUE(fired.empty());
  loop.run_ready(150);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
  EXPECT_TRUE(loop.cancel_timer(late));
  loop.run_ready(1'000);
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(EventLoop, DeferredRunBeforeTimersThenPostDispatch) {
  g_fake_now_us = 0;
  EventLoop loop{fake_time_config()};
  std::vector<std::string> order;
  loop.set_post_dispatch([&] { order.push_back("pump"); });
  loop.schedule_at(10, [&] { order.push_back("timer"); });
  loop.defer([&] { order.push_back("deferred"); });
  loop.run_ready(10);
  EXPECT_EQ(order, (std::vector<std::string>{"deferred", "timer", "pump"}));
}

TEST(IdleGovernor, StalledSessionReapedActiveOneSurvives) {
  TimerWheel wheel;
  obs::Registry registry;
  IdleConfig config;
  config.registry = &registry;
  config.idle_us = 5'000'000;
  IdleGovernor governor{wheel, config};
  EXPECT_EQ(governor.idle_allowance_us(), config.idle_us);

  std::vector<std::uint64_t> reaped;
  std::uint64_t now = 0;
  governor.add(1, now, [&] { reaped.push_back(1); });
  governor.add(2, now, [&] { reaped.push_back(2); });
  EXPECT_EQ(governor.tracked(), 2u);

  // Session 1 chats every 200ms; session 2 stalls after t=0. Chatty
  // traffic does not move the allowance.
  for (int i = 0; i < 20; ++i) {
    now += 200'000;
    governor.touch(1, now);
    wheel.advance(now);
  }
  EXPECT_EQ(governor.idle_allowance_us(), config.idle_us);
  EXPECT_TRUE(reaped.empty()) << "active traffic must not reap anyone";

  // Let the stalled session's deadline lapse; session 1 keeps talking.
  const std::uint64_t horizon = now + config.idle_us + 1;
  while (now < horizon) {
    now += 200'000;
    governor.touch(1, now);
    wheel.advance(now);
  }
  EXPECT_EQ(reaped, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(governor.reaped(), 1u);
  EXPECT_EQ(registry.counter("daemon.conn.reaped_idle").value(), 1u);
  EXPECT_EQ(governor.tracked(), 1u);  // reap untracked session 2

  // Normal close stops tracking without counting a reap.
  governor.remove(1);
  EXPECT_EQ(governor.tracked(), 0u);
  wheel.advance(now + 2 * config.idle_us);
  EXPECT_EQ(governor.reaped(), 1u);
}

}  // namespace
}  // namespace turtle::daemon
