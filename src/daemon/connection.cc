#include "daemon/connection.h"

#include <unistd.h>

#include <cerrno>

#include "daemon/daemon.h"

namespace turtle::daemon {
namespace {

/// Bytes taken from the socket per read() call.
constexpr std::size_t kReadChunk = 4096;

}  // namespace

Connection::Connection(Daemon& daemon, std::uint64_t id, int fd)
    : daemon_{daemon},
      id_{id},
      event_{daemon.loop(), fd, [this](unsigned ready) { on_ready(ready); }} {
  event_.schedule(SocketEvent::kRead);
}

void Connection::on_ready(unsigned ready) {
  if (dead_) return;
  if ((ready & (SocketEvent::kError | SocketEvent::kHangup)) != 0) {
    daemon_.close_connection(id_, Daemon::CloseReason::kPeer);
    return;
  }
  if ((ready & SocketEvent::kWrite) != 0) {
    try_write();
    if (dead_) return;
  }
  if ((ready & SocketEvent::kRead) != 0) handle_read();
}

void Connection::handle_read() {
  char buf[kReadChunk];
  while (!dead_) {
    const ssize_t n = ::read(event_.fd(), buf, sizeof buf);
    if (n > 0) {
      daemon_.touch_idle(id_);
      splitter_.feed(std::string_view{buf, static_cast<std::size_t>(n)},
                     [this](std::string_view line) { on_line(line); },
                     [this] { daemon_.on_line_overflow(*this); });
      continue;
    }
    if (n == 0) {  // peer closed its end
      daemon_.close_connection(id_, Daemon::CloseReason::kPeer);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    daemon_.close_connection(id_, Daemon::CloseReason::kPeer);
    return;
  }
}

void Connection::on_line(std::string_view line) {
  // After QUIT (or a mid-feed close) the remaining pipelined input is
  // ignored: the protocol defines QUIT as the connection's last word.
  if (dead_ || close_after_flush_) return;
  daemon_.dispatch_line(*this, line);
}

void Connection::push_response(std::string_view line) {
  if (dead_) return;
  const bool was_empty = write_buffer_.empty();
  write_buffer_ += line;
  write_buffer_ += '\n';
  if (write_buffer_.size() - write_offset_ > kMaxWriteBuffer) {
    // The cutoff is for bytes the socket refused, not for a deep batch
    // this iteration has not offered yet: write first, then judge.
    try_write();
    if (dead_) return;
    if (write_buffer_.size() - write_offset_ > kMaxWriteBuffer) {
      daemon_.close_connection(id_, Daemon::CloseReason::kBackpressure);
      return;
    }
  }
  // A non-empty buffer is already registered this iteration or waiting
  // on EPOLLOUT; only the first bytes into an empty one register.
  if (was_empty && !write_buffer_.empty()) daemon_.schedule_write(id_);
}

bool Connection::flush() {
  if (dead_) return true;
  try_write();
  return dead_ || write_offset_ == write_buffer_.size();
}

void Connection::try_write() {
  while (write_offset_ < write_buffer_.size()) {
    const ssize_t n = ::write(event_.fd(), write_buffer_.data() + write_offset_,
                              write_buffer_.size() - write_offset_);
    if (n > 0) {
      write_offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    daemon_.close_connection(id_, Daemon::CloseReason::kPeer);
    return;
  }
  if (write_offset_ == write_buffer_.size()) {
    write_buffer_.clear();
    write_offset_ = 0;
    if (close_after_flush_) {
      daemon_.close_connection(id_, Daemon::CloseReason::kPeer);
      return;
    }
  }
  update_interest();
}

void Connection::update_interest() {
  if (dead_) return;
  unsigned interest = SocketEvent::kRead;
  if (write_offset_ < write_buffer_.size()) interest |= SocketEvent::kWrite;
  event_.schedule(interest);
}

void Connection::shutdown_now() {
  if (dead_) return;
  dead_ = true;
  event_.close();
}

}  // namespace turtle::daemon
