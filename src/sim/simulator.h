// The discrete-event simulation engine.
//
// A single-threaded clock + event queue. Everything in the reproduction —
// probers firing on schedules, packets traversing the network, hosts waking
// their radios, buffered bursts flushing — is an event here. Time advances
// only between events, so a two-week survey runs in seconds of wall time.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/sim_time.h"

namespace turtle::sim {

/// Single-threaded discrete-event simulator.
///
/// Not thread-safe. Callbacks may schedule further events freely, including
/// at the current time (they run after all currently queued events at that
/// time, preserving FIFO order).
///
/// While a Simulator exists it is registered as a check context, so any
/// TURTLE_CHECK failure inside an event callback reports the simulated
/// clock and event counters alongside the failing condition.
class Simulator : public util::CheckContext {
 public:
  /// Move-only small-buffer callable; see EventQueue::Callback. Anything
  /// invocable as void() converts, including std::function for callers
  /// that need a copyable handle (e.g. self-rescheduling chains).
  using Callback = EventQueue::Callback;

  /// `registry` (usually the owning World's) receives the engine metrics:
  /// "sim.events_processed", "sim.event_times" (distinct timestamps, so
  /// callbacks-per-event-time is derivable), and the "sim.queue_high_water"
  /// gauge. Without a registry the same counters are kept privately so the
  /// accessors below still work. `trace`, when set, receives periodic
  /// event-queue depth samples on the "sim.queue_depth" counter track.
  explicit Simulator(obs::Registry* registry = nullptr, obs::TraceSink* trace = nullptr);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t`. Scheduling in the past is a
  /// logic error: it fails a TURTLE_DCHECK in debug builds, and is
  /// clamped to now() in release builds so a long run degrades rather
  /// than corrupts the clock.
  void schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after a relative delay. Negative delays are a logic
  /// error (DCHECK), clamped to zero in release.
  void schedule_after(SimTime delay, Callback cb);

  /// Declares a delay that many events are scheduled at: from now on an
  /// event scheduled exactly `delay` after now() queues in a FIFO lane
  /// (see EventQueue) instead of the heap. Firing order is unchanged;
  /// only the cost of keeping it falls.
  void declare_fixed_delay(SimTime delay) { queue_.add_lane(delay); }

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events with timestamp <= `t`, then sets the clock to `t`.
  void run_until(SimTime t);

  /// Processes a single event; returns false when the queue is empty.
  bool step();

  /// Total events processed so far. Thin shim over the registry counter
  /// (the metric is the source of truth since the obs layer landed).
  [[nodiscard]] std::uint64_t events_processed() const { return events_->value(); }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// CheckContext: "sim_now=<t> events=<n> pending=<m>".
  void describe_check_context(std::ostream& os) const override;

 private:
  /// Copies the queue's high-water mark into the registry gauge. Called
  /// from run()/run_until() and the destructor rather than per push, so
  /// the scheduling hot path pays only the queue's own size compare.
  void sync_queue_metrics();

  EventQueue queue_;
  SimTime now_;
  obs::Counter fallback_events_;
  obs::Counter fallback_event_times_;
  obs::Counter* events_;            ///< "sim.events_processed"
  obs::Counter* event_times_;       ///< "sim.event_times"
  obs::Gauge* queue_high_water_;    ///< "sim.queue_high_water" (null w/o registry)
  obs::TraceSink* trace_;
  util::ScopedCheckContext check_context_{this};
};

}  // namespace turtle::sim
