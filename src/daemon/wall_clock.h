// The daemon's single wall-clock site.
//
// Everything else in the tree is forbidden to read a real clock (turtlint
// rule D2): simulated time is the only time, which is what makes runs
// byte-identical across --jobs. A network daemon cannot live by that rule —
// epoll timeouts, idle deadlines, and request latencies are wall-clock
// facts — so the daemon funnels every clock read through this one audited
// function. The quarantine discipline:
//
//   * wall_clock.cc is the only src/ file (besides the thread pool) on the
//     D2 allowlist; any other clock read in src/daemon/ is a lint failure.
//   * EventLoop takes the clock as an injectable function pointer, so unit
//     tests drive its timers and deferred work under fake time and stay
//     deterministic.
//   * Durations measured with this clock are recorded only under wall.*
//     metric names, which obs::Registry::write_json excludes from the
//     deterministic dump — the daemon.* ledger counts events, never time.
#pragma once

#include <cstdint>

namespace turtle::daemon {

/// Monotonic wall clock in microseconds since an arbitrary epoch. Never
/// goes backwards; unaffected by NTP steps (CLOCK_MONOTONIC).
[[nodiscard]] std::uint64_t wall_now_us();

/// Signature of an injectable clock; EventLoop defaults to &wall_now_us.
using ClockFn = std::uint64_t (*)();

}  // namespace turtle::daemon
