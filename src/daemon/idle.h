// Idle / slow-client deadlines: the paper's "keep listening" window
// applied to client connections.
//
// A connection that sends nothing for `idle_us` is reaped: its deadline
// re-arms on every read, and a stall that outlasts it counts
// daemon.conn.reaped_idle. A connection is never retried, only given up
// on, and the dual-timer policies keep their give-up bound at the paper's
// full 60 s window whatever latencies they observe — so the window is a
// constant, not something learned from inter-arrival gaps.
//
// Sessions are plain ids here, not sockets, and time is caller-supplied
// microseconds — so the unit test drives a stalled client and an active
// one under fake time and asserts exactly who gets reaped.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "daemon/timer_wheel.h"
#include "obs/metrics.h"

namespace turtle::daemon {

struct IdleConfig {
  /// How long a silent peer may hold its connection (turtled --idle-ms).
  std::uint64_t idle_us = 60'000'000;
  obs::Registry* registry = nullptr;
};

/// Tracks per-session activity and arms one wheel timer per session; the
/// wheel owner advances the clock. Reaping calls the session's `on_reap`.
class IdleGovernor {
 public:
  IdleGovernor(TimerWheel& wheel, IdleConfig config);

  IdleGovernor(const IdleGovernor&) = delete;
  IdleGovernor& operator=(const IdleGovernor&) = delete;

  /// Starts tracking `session`; the deadline arms from `now_us`.
  void add(std::uint64_t session, std::uint64_t now_us, std::function<void()> on_reap);

  /// Records activity: re-arms the session's deadline from `now_us`.
  void touch(std::uint64_t session, std::uint64_t now_us);

  /// Stops tracking (connection closed normally).
  void remove(std::uint64_t session);

  /// Idle allowance every session gets.
  [[nodiscard]] std::uint64_t idle_allowance_us() const { return config_.idle_us; }

  [[nodiscard]] std::size_t tracked() const { return sessions_.size(); }
  [[nodiscard]] std::uint64_t reaped() const { return reaped_->value(); }

 private:
  struct Session {
    TimerWheel::TimerId timer = 0;
    std::function<void()> on_reap;
  };

  void arm(std::uint64_t session, Session& state, std::uint64_t now_us);
  void reap(std::uint64_t session);

  TimerWheel& wheel_;
  IdleConfig config_;
  std::unordered_map<std::uint64_t, Session> sessions_;

  obs::Counter fallback_reaped_;
  obs::Counter* reaped_;  ///< "daemon.conn.reaped_idle"
};

}  // namespace turtle::daemon
