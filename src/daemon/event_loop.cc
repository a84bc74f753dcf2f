#include "daemon/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "util/check.h"

namespace turtle::daemon {
namespace {

/// Poll timeout when no timer is due sooner: also how long a UDP reply
/// left on EAGAIN waits for the next iteration to retry it.
constexpr std::uint64_t kMaxPollUs = 1'000'000;

unsigned to_epoll(unsigned interest) {
  unsigned events = 0;
  if ((interest & SocketEvent::kRead) != 0) events |= EPOLLIN;
  if ((interest & SocketEvent::kWrite) != 0) events |= EPOLLOUT;
  return events;
}

unsigned from_epoll(unsigned events) {
  unsigned ready = 0;
  if ((events & EPOLLIN) != 0) ready |= SocketEvent::kRead;
  if ((events & EPOLLOUT) != 0) ready |= SocketEvent::kWrite;
  if ((events & EPOLLERR) != 0) ready |= SocketEvent::kError;
  if ((events & (EPOLLHUP | EPOLLRDHUP)) != 0) ready |= SocketEvent::kHangup;
  return ready;
}

}  // namespace

EventLoop::EventLoop(ClockFn clock) : clock_{clock} {
  TURTLE_CHECK(clock_ != nullptr);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  TURTLE_CHECK_GE(epoll_fd_, 0) << "epoll_create1: errno=" << errno;
  TURTLE_CHECK_EQ(pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC), 0)
      << "pipe2: errno=" << errno;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wake pipe
  TURTLE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev), 0)
      << "epoll_ctl(wake): errno=" << errno;
}

EventLoop::~EventLoop() {
  // Registered SocketEvents must not outlive the loop; by this point the
  // daemon has closed them all.
  TURTLE_CHECK(registered_.empty()) << registered_.size() << " socket events leaked";
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  ::close(epoll_fd_);
}

void EventLoop::run() {
  stopping_ = false;
  while (!stopping_) poll_once();
}

void EventLoop::defer(std::function<void()> fn) { deferred_.push_back(std::move(fn)); }

void EventLoop::schedule_at(std::uint64_t deadline_us, Callback fn) {
  TURTLE_CHECK(fn);
  const auto deadline = static_cast<std::int64_t>(deadline_us);
  TURTLE_CHECK_GE(deadline, 0) << "timer deadline " << deadline_us << " us is out of range";
  timers_.push(SimTime::micros(deadline), std::move(fn));
}

void EventLoop::run_timers(std::uint64_t now_us) {
  // Pop the whole due set before running any of it: a callback that
  // schedules at or before now lands in the queue, not in this batch.
  const SimTime now = SimTime::micros(static_cast<std::int64_t>(now_us));
  std::vector<Callback> due;
  while (!timers_.empty() && timers_.next_time() <= now) due.push_back(timers_.pop());
  for (Callback& fn : due) fn();
}

void EventLoop::inject(std::function<void()> fn) {
  {
    const util::MutexLock lock{inject_mu_};
    injected_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::request_stop_from_signal() noexcept {
  signal_stop_ = 1;
  // write(2) is async-signal-safe; a full pipe just means a wake is
  // already pending.
  const char byte = 0;
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &byte, 1);
}

void EventLoop::wake() {
  const char byte = 0;
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &byte, 1);
}

void EventLoop::drain_pending() {
  std::vector<std::function<void()>> injected;
  {
    const util::MutexLock lock{inject_mu_};
    injected.swap(injected_);
  }
  for (std::function<void()>& fn : injected) fn();
  // Drain to empty: a deferred fn may defer again and runs this cycle.
  while (!deferred_.empty()) {
    std::function<void()> fn = std::move(deferred_.front());
    deferred_.pop_front();
    fn();
  }
}

void EventLoop::poll_once() {
  if (signal_stop_ != 0) {
    signal_stop_ = 0;
    if (stop_hook_) {
      stop_hook_();
    } else {
      stopping_ = true;
    }
    if (stopping_) return;
  }

  std::uint64_t wait_us = kMaxPollUs;
  if (!timers_.empty()) {
    const auto deadline = static_cast<std::uint64_t>(timers_.next_time().as_micros());
    const std::uint64_t now = now_us();
    wait_us = std::min(wait_us, deadline > now ? deadline - now : 0);
  }
  // Round up: waking a hair early would only poll again.
  int timeout_ms = static_cast<int>((wait_us + 999) / 1000);
  if (!deferred_.empty()) timeout_ms = 0;

  epoll_event events[64];
  const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) {
    TURTLE_CHECK_EQ(errno, EINTR) << "epoll_wait: errno=" << errno;
    return;
  }
  for (int i = 0; i < n; ++i) {
    auto* event = static_cast<SocketEvent*>(events[i].data.ptr);
    if (event == nullptr) {
      // Wake pipe: drain it; the payload (injected fns / stop flag) is
      // handled below and at the top of the next iteration.
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
      }
      continue;
    }
    // A handler may have closed this event earlier in the same batch.
    if (registered_.find(event) == registered_.end()) continue;
    const unsigned ready = from_epoll(events[i].events);
    if (ready != 0) event->handler_(ready);
  }
  drain_pending();
  if (!timers_.empty()) run_timers(now_us());
  if (post_dispatch_) post_dispatch_();
}

void EventLoop::run_ready(std::uint64_t now_us) {
  drain_pending();
  run_timers(now_us);
  if (post_dispatch_) post_dispatch_();
}

void EventLoop::register_event(SocketEvent& event) {
  epoll_event ev{};
  ev.events = to_epoll(event.interest_);
  ev.data.ptr = &event;
  TURTLE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event.fd_, &ev), 0)
      << "epoll_ctl(add fd=" << event.fd_ << "): errno=" << errno;
  registered_.insert(&event);
}

void EventLoop::update_event(SocketEvent& event) {
  epoll_event ev{};
  ev.events = to_epoll(event.interest_);
  ev.data.ptr = &event;
  TURTLE_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, event.fd_, &ev), 0)
      << "epoll_ctl(mod fd=" << event.fd_ << "): errno=" << errno;
}

void EventLoop::unregister_event(SocketEvent& event) {
  if (registered_.erase(&event) == 0) return;
  // The fd may already be closed (EBADF) when close() raced a peer reset;
  // removal is best-effort by design.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, event.fd_, nullptr);
}

SocketEvent::SocketEvent(EventLoop& loop, int fd, Handler handler)
    : loop_{loop}, fd_{fd}, handler_{std::move(handler)} {
  TURTLE_CHECK_GE(fd_, 0);
  TURTLE_CHECK(handler_ != nullptr);
  loop_.register_event(*this);
}

SocketEvent::~SocketEvent() {
  if (fd_ >= 0) close();
}

void SocketEvent::schedule(unsigned interest) {
  TURTLE_CHECK_GE(fd_, 0) << "schedule on a closed SocketEvent";
  if (interest == interest_) return;
  interest_ = interest;
  loop_.update_event(*this);
}

void SocketEvent::close() {
  if (fd_ < 0) return;
  loop_.unregister_event(*this);
  ::close(fd_);
  fd_ = -1;
}

}  // namespace turtle::daemon
