#include "sim/simulator.h"

#include <ostream>
#include <utility>

namespace turtle::sim {

Simulator::Simulator(obs::Registry* registry, obs::TraceSink* trace)
    : events_{registry ? &registry->counter("sim.events_processed") : &fallback_events_},
      event_times_{registry ? &registry->counter("sim.event_times")
                            : &fallback_event_times_},
      queue_high_water_{registry ? &registry->gauge("sim.queue_high_water") : nullptr},
      trace_{trace} {}

Simulator::~Simulator() { sync_queue_metrics(); }

void Simulator::sync_queue_metrics() {
  if (queue_high_water_ != nullptr) {
    queue_high_water_->set_max(static_cast<std::int64_t>(queue_.high_water()));
  }
}

void Simulator::schedule_at(SimTime t, Callback cb) {
  TURTLE_DCHECK_GE(t, now_) << "schedule_at in the simulated past";
  if (t < now_) t = now_;
  // The clock never goes back, so events at one fixed delay from it are
  // pushed in time order: the lane for that delay stays sorted.
  queue_.push(t, std::move(cb), queue_.lane_for(t - now_));
}

void Simulator::schedule_after(SimTime delay, Callback cb) {
  TURTLE_DCHECK(!delay.is_negative()) << "schedule_after with negative delay " << delay;
  schedule_at(delay.is_negative() ? now_ : now_ + delay, std::move(cb));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const SimTime t = queue_.next_time();
  // The queue only ever holds events at or after the clock (push clamps),
  // so a violation here means heap corruption, not a scheduling mistake.
  TURTLE_DCHECK_GE(t, now_) << "event queue returned a timestamp behind the clock";
  if (events_->value() == 0 || t != now_) event_times_->inc();
  now_ = t;
  auto cb = queue_.pop();
  events_->inc();
  // Queue-depth samples: one per 1024 events keeps the trace small while
  // still resolving the burst shapes (buffer flushes, round starts). The
  // gating lives in the sink expression so a disabled build removes the
  // whole statement, modulo check included.
  TURTLE_TRACE((events_->value() & 1023u) == 0 ? trace_ : nullptr,
               counter("sim.queue_depth", now_,
                       static_cast<std::int64_t>(queue_.size())));
  cb();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
  sync_queue_metrics();
}

void Simulator::run_until(SimTime t) {
  while (!queue_.empty() && queue_.next_time() <= t) {
    step();
  }
  if (now_ < t) now_ = t;
  sync_queue_metrics();
}

void Simulator::describe_check_context(std::ostream& os) const {
  os << "sim_now=" << now_ << " events=" << events_->value()
     << " pending=" << queue_.size();
}

}  // namespace turtle::sim
