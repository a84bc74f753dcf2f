// Single-threaded epoll event loop — the daemon's heartbeat.
//
// Modeled on MPD's event layer (SocketEvent / deferred / injected events):
// one thread owns the loop; sockets register a SocketEvent with the fd and
// a handler; the loop multiplexes readiness, runs due timers, and runs
// deferred work between poll cycles. Three ways in:
//
//   * SocketEvent::schedule(kRead|kWrite) — fd readiness, epoll-driven.
//   * defer(fn) — run before the next poll, FIFO. Loop-thread only; this
//     is how handlers safely reshape the world ("close this connection
//     after the current dispatch finishes").
//   * inject(fn) — the one thread-safe entry point: enqueues under a
//     mutex and wakes the loop through its self-pipe. Signal handlers use
//     the narrower request_stop_from_signal(), which is async-signal-safe.
//
// Timers live on the simulator's own scheduler, a sim::EventQueue keyed
// by loop microseconds: (deadline, insertion) order, and an O(1) look at
// the earliest deadline for the poll timeout. There is no cancel; a timer
// that may become moot checks its own state when it fires.
//
// Time: the loop never reads a clock directly. It calls an injected
// ClockFn (production: daemon::wall_now_us, the D2-allowlisted site; tests:
// a fake), and every timer deadline is an absolute microsecond value on
// that clock. run_ready(now_us) exposes one synchronous iteration at a
// fabricated instant, which is how daemon_test drives timer ordering and
// deferred semantics with no sockets and no real time.
#pragma once

#include <csignal>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "daemon/wall_clock.h"
#include "sim/event_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace turtle::daemon {

class SocketEvent;

class EventLoop {
 public:
  /// Timer callback: inline storage for small captures, move-only.
  using Callback = sim::EventQueue::Callback;

  /// `clock` is the time source every now_us() and poll-timeout
  /// computation reads.
  explicit EventLoop(ClockFn clock = &wall_now_us);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Polls and dispatches until stop(). Loop thread only.
  void run();

  /// Makes run() return after the current iteration. Loop thread only
  /// (from elsewhere, use inject or request_stop_from_signal).
  void stop() { stopping_ = true; }

  /// Runs `fn` before the next poll, after all fns deferred earlier this
  /// iteration (FIFO). Deferrals from inside a deferred fn run in the same
  /// drain — the queue is drained to empty, not snapshotted.
  void defer(std::function<void()> fn);

  /// Thread-safe defer: enqueues from any thread and wakes the loop.
  void inject(std::function<void()> fn) TURTLE_EXCLUDES(inject_mu_);

  /// Async-signal-safe stop request: sets a flag and pokes the self-pipe.
  /// The loop observes it at the top of the next iteration and invokes the
  /// stop hook (set_stop_hook) instead of dying mid-write.
  void request_stop_from_signal() noexcept;

  /// Runs once when a request_stop_from_signal() is observed; the daemon
  /// installs its graceful-shutdown sequence here. Without a hook the loop
  /// just stops.
  void set_stop_hook(std::function<void()> hook) { stop_hook_ = std::move(hook); }

  /// Runs after each iteration's socket dispatch and deferred drain — the
  /// daemon writes each connection with new replies once here, so a poll
  /// cycle's worth of pipelined answers leaves in one write().
  void set_post_dispatch(std::function<void()> hook) { post_dispatch_ = std::move(hook); }

  /// Runs `fn` in the first iteration whose time is >= `deadline_us`
  /// (loop clock). Timers due together fire in (deadline, insertion)
  /// order; one that a firing callback schedules at or before now runs in
  /// the next iteration, never recursively in this one.
  void schedule_at(std::uint64_t deadline_us, Callback fn);
  void schedule_after(std::uint64_t delay_us, Callback fn) {
    schedule_at(now_us() + delay_us, std::move(fn));
  }

  /// Timers scheduled and not yet fired. Loop thread only.
  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }

  [[nodiscard]] std::uint64_t now_us() const { return clock_(); }

  /// Test seam: one synchronous iteration at fabricated time `now_us` —
  /// injected work, then the deferred drain, then due timers, then the
  /// post-dispatch hook. No polling, no fds required.
  void run_ready(std::uint64_t now_us);

 private:
  friend class SocketEvent;

  void register_event(SocketEvent& event);
  void update_event(SocketEvent& event);
  void unregister_event(SocketEvent& event);

  void poll_once();
  /// Drains injected (under the lock) then deferred (loop-local) work.
  void drain_pending() TURTLE_EXCLUDES(inject_mu_);
  /// Pops every timer due at `now_us` into one batch, then runs it.
  void run_timers(std::uint64_t now_us);
  void wake();

  ClockFn clock_;
  sim::EventQueue timers_;
  int epoll_fd_ = -1;
  /// Self-pipe: [0] registered with epoll, [1] written by inject/signal.
  int wake_fds_[2] = {-1, -1};
  bool stopping_ = false;
  std::function<void()> stop_hook_;
  std::function<void()> post_dispatch_;

  /// Registered events; dispatch consults this so a handler destroying a
  /// sibling SocketEvent mid-iteration cannot leave a dangling dispatch.
  std::unordered_set<SocketEvent*> registered_;

  std::deque<std::function<void()>> deferred_;

  util::Mutex inject_mu_;
  std::vector<std::function<void()>> injected_ TURTLE_GUARDED_BY(inject_mu_);
  /// Set by request_stop_from_signal (possibly from a signal handler).
  volatile sig_atomic_t signal_stop_ = 0;
};

/// One fd's registration with the loop: readiness interest plus handler.
/// Construction registers, destruction unregisters; close() also closes
/// the fd. Loop thread only.
class SocketEvent {
 public:
  static constexpr unsigned kRead = 1u << 0;
  static constexpr unsigned kWrite = 1u << 1;
  /// Always delivered when the kernel reports them; no need to schedule.
  static constexpr unsigned kError = 1u << 2;
  static constexpr unsigned kHangup = 1u << 3;

  using Handler = std::function<void(unsigned ready)>;

  /// Takes ownership of `fd` (nonblocking, close-on-exec already set by
  /// the caller). Starts with no interest; call schedule().
  SocketEvent(EventLoop& loop, int fd, Handler handler);
  ~SocketEvent();

  SocketEvent(const SocketEvent&) = delete;
  SocketEvent& operator=(const SocketEvent&) = delete;

  /// Replaces the interest set (kRead|kWrite; 0 = registered but idle).
  void schedule(unsigned interest);
  [[nodiscard]] unsigned scheduled() const { return interest_; }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }

  /// Unregisters and closes the fd; the event is dead afterwards.
  void close();

 private:
  friend class EventLoop;

  EventLoop& loop_;
  int fd_;
  unsigned interest_ = 0;
  Handler handler_;
};

}  // namespace turtle::daemon
