// One accepted TCP client: bounded read buffer through the line splitter,
// ordered response slots, and a write buffer the daemon flushes once per
// loop iteration.
//
// Response ordering: a pipelined client may have a QUERY (answered
// asynchronously after the transport pumps) followed by a STATS (answered
// synchronously). Replies must leave in request order, so each request
// reserves a slot in a FIFO of pending responses; slots fill in any order
// and only the leading run of filled slots moves into the write buffer.
//
// Writes are coalesced: filling a slot does not write. The first bytes
// into an empty write buffer register the connection with the daemon,
// which calls try_write() after the iteration's pump, so a pipelined
// batch leaves in one write() rather than one per answer.
//
// Memory is bounded end to end: line splitter <= kMaxLineBytes, unfilled
// slots <= the server's queue (the daemon pumps a full queue, which fills
// them), unwritten bytes <= max_write_buffer. A buffer that grows past it
// is offered to the socket at once; a connection whose socket still
// refuses more than that is dropped and counted, never ballooned.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "daemon/event_loop.h"
#include "daemon/proto.h"

namespace turtle::daemon {

class Daemon;

class Connection {
 public:
  /// Takes ownership of `fd` (nonblocking, cloexec).
  Connection(Daemon& daemon, std::uint64_t id, int fd);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Reserves the next ordered response slot (async QUERY path).
  std::uint64_t reserve_slot();
  /// Fills a reserved slot and moves every leading filled slot into the
  /// write buffer. The bytes leave in the daemon's try_write() call after
  /// this iteration's pump, or here once more than max_write_buffer of
  /// them are unwritten.
  void fill_slot(std::uint64_t slot, std::string line);
  /// reserve + fill in one step (synchronous commands and errors).
  void push_response(std::string line);

  /// After every reserved slot is answered and written, close instead of
  /// reading on (the QUIT path). Further inbound lines are ignored.
  void request_close_after_flush() { close_after_flush_ = true; }

  /// Writes as much of the write buffer as the socket takes and arms
  /// write interest for the rest. The daemon calls it once per iteration
  /// for a connection with new output; EPOLLOUT calls it too.
  void try_write();

  /// Attempts to drain the write buffer; true when nothing is pending:
  /// no unwritten bytes and no unanswered slot.
  bool flush();

  /// Immediately closes the socket; the object stays alive (in the
  /// daemon's graveyard) until the event-loop iteration ends.
  void shutdown_now();

  [[nodiscard]] bool dead() const { return dead_; }

 private:
  void on_ready(unsigned ready);
  void handle_read();
  void on_line(std::string_view line);
  /// Moves the leading filled slots into the write buffer, applies the
  /// max_write_buffer cutoff and registers this iteration's try_write().
  void pump_responses();
  /// Recomputes epoll interest from buffer state and liveness.
  void update_interest();

  Daemon& daemon_;
  std::uint64_t id_;
  proto::LineSplitter splitter_;

  std::uint64_t next_slot_ = 0;     ///< next slot id to hand out
  std::uint64_t flushed_slots_ = 0; ///< slots already moved to the buffer
  std::deque<std::optional<std::string>> responses_;

  std::string write_buffer_;
  std::size_t write_offset_ = 0;

  bool close_after_flush_ = false;
  bool dead_ = false;

  /// Last member: registers with epoll on construction.
  SocketEvent event_;
};

}  // namespace turtle::daemon
