#include "daemon/idle.h"

#include <utility>

#include "util/check.h"

namespace turtle::daemon {

IdleGovernor::IdleGovernor(TimerWheel& wheel, IdleConfig config)
    : wheel_{wheel}, config_{config} {
  TURTLE_CHECK_GT(config_.idle_us, 0u);
  if (config_.registry != nullptr) {
    reaped_ = &config_.registry->counter("daemon.conn.reaped_idle");
  } else {
    reaped_ = &fallback_reaped_;
  }
}

void IdleGovernor::add(std::uint64_t session, std::uint64_t now_us,
                       std::function<void()> on_reap) {
  TURTLE_CHECK(on_reap != nullptr);
  auto [it, inserted] = sessions_.try_emplace(session);
  TURTLE_CHECK(inserted) << "session " << session << " already tracked";
  it->second.on_reap = std::move(on_reap);
  arm(session, it->second, now_us);
}

void IdleGovernor::touch(std::uint64_t session, std::uint64_t now_us) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;  // already reaped or removed
  wheel_.cancel(it->second.timer);
  arm(session, it->second, now_us);
}

void IdleGovernor::remove(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  wheel_.cancel(it->second.timer);
  sessions_.erase(it);
}

void IdleGovernor::arm(std::uint64_t session, Session& state, std::uint64_t now_us) {
  state.timer = wheel_.schedule(now_us + config_.idle_us, [this, session] {
    reap(session);
  });
}

void IdleGovernor::reap(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  reaped_->inc();
  std::function<void()> on_reap = std::move(it->second.on_reap);
  sessions_.erase(it);
  on_reap();
}

}  // namespace turtle::daemon
