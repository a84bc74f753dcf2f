// One accepted TCP client: bounded read buffer through the line splitter,
// and a write buffer the daemon flushes once per loop iteration.
//
// Every request is answered inline as its line is read, so replies enter
// the write buffer in request order with nothing pending in between.
//
// Writes are coalesced: a reply does not write. The first bytes into an
// empty write buffer register the connection with the daemon, which
// calls try_write() once the iteration's reads are done, so a pipelined
// batch leaves in one write() rather than one per answer.
//
// Memory is bounded end to end: line splitter <= kMaxLineBytes, unwritten
// bytes <= kMaxWriteBuffer. A buffer that grows past it is offered to the
// socket at once; a connection whose socket still refuses more than that
// is dropped and counted, never ballooned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "daemon/event_loop.h"
#include "daemon/proto.h"

namespace turtle::daemon {

class Daemon;

/// Write-buffer cutoff per connection, in reply bytes the socket refused:
/// a client slower than its answers is dropped and counted
/// (daemon.conn.dropped_backpressure).
inline constexpr std::size_t kMaxWriteBuffer = 256 * 1024;

class Connection {
 public:
  /// Takes ownership of `fd` (nonblocking, cloexec).
  Connection(Daemon& daemon, std::uint64_t id, int fd);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Appends one reply line to the write buffer. The bytes leave in the
  /// daemon's try_write() call after this iteration's reads, or here once
  /// more than kMaxWriteBuffer of them are unwritten.
  void push_response(std::string_view line);

  /// Once every reply is written, close instead of reading on (the QUIT
  /// path). Further inbound lines are ignored.
  void request_close_after_flush() { close_after_flush_ = true; }

  /// Writes as much of the write buffer as the socket takes and arms
  /// write interest for the rest. The daemon calls it once per iteration
  /// for a connection with new output; EPOLLOUT calls it too.
  void try_write();

  /// Attempts to drain the write buffer; true when no byte is unwritten.
  bool flush();

  /// Immediately closes the socket; the object stays alive (in the
  /// daemon's graveyard) until the event-loop iteration ends.
  void shutdown_now();

  [[nodiscard]] bool dead() const { return dead_; }

  /// Loop time of the last read that returned bytes, or of the accept if
  /// none has yet. The daemon's idle sweep reaps a connection once this
  /// is a whole idle window old.
  [[nodiscard]] std::uint64_t last_read_us() const { return last_read_us_; }

 private:
  void on_ready(unsigned ready);
  void handle_read();
  void on_line(std::string_view line);
  /// Recomputes epoll interest from buffer state and liveness.
  void update_interest();

  Daemon& daemon_;
  std::uint64_t id_;
  proto::LineSplitter splitter_;

  std::string write_buffer_;
  std::size_t write_offset_ = 0;
  std::uint64_t last_read_us_;

  bool close_after_flush_ = false;
  bool dead_ = false;

  /// Last member: registers with epoll on construction.
  SocketEvent event_;
};

}  // namespace turtle::daemon
