// turtled — the timeout oracle as an actual network service.
//
// Wiring (DESIGN §18): one EventLoop thread owns everything. A TcpListener
// accepts line-protocol clients into Connection objects (TCP_NODELAY set);
// a UDP socket serves one-datagram-one-request traffic. Each request is
// answered where its line is read: parse, OracleSnapshot::lookup, format,
// and the reply enters its connection's write buffer (or the datagram
// reply queue) in request order. Once per loop iteration every connection
// with new output gets one write(), and the datagram answers go out.
// A loop timer sweeps the connections every eighth of the idle window and
// reaps those silent for all of it.
// Admin operations ride the same protocol: STATS snapshots the ledger,
// SWAP hot-swaps a new snapshot file mid-traffic, QUIT (or SIGINT/SIGTERM)
// runs the graceful drain — flush the replies to what was read before it,
// dump metrics, exit.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <netinet/in.h>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "daemon/connection.h"
#include "daemon/event_loop.h"
#include "daemon/listener.h"
#include "daemon/proto.h"
#include "obs/metrics.h"
#include "serve/oracle_snapshot.h"

namespace turtle::daemon {

struct DaemonConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t tcp_port = 0;  ///< 0 = ephemeral (port_file tells the truth)
  std::uint16_t udp_port = 0;
  /// Accepts beyond this are refused with `ERR overloaded` and counted
  /// under daemon.conn.rejected_overload.
  std::size_t max_connections = 1024;
  /// How long a silent peer may hold its connection (turtled --idle-ms).
  /// Reaped connections count under daemon.conn.reaped_idle.
  std::uint64_t idle_us = 60'000'000;

  /// Written once listeners are bound: "tcp=<port>\nudp=<port>\n". The
  /// smoke test polls this to learn ephemeral ports.
  std::string port_file;
  /// Metrics JSON (turtle-metrics-v1) dumped during graceful shutdown.
  std::string metrics_out;
};

class Daemon {
 public:
  /// `snapshot` may be null: the daemon then answers zero-confidence
  /// global defaults until a SWAP installs one.
  Daemon(DaemonConfig config, std::shared_ptr<const serve::OracleSnapshot> snapshot);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until QUIT or a stop signal; returns after the graceful drain.
  void run();

  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_listener_->port(); }
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  /// Version of the serving snapshot; 0 when serving snapshotless.
  [[nodiscard]] std::uint64_t snapshot_version() const {
    return snapshot_ != nullptr ? snapshot_->version() : 0;
  }

  // --- Connection plumbing (called by Connection) ---

  enum class CloseReason : std::uint8_t {
    kPeer,          ///< orderly close (peer EOF, QUIT flush, error)
    kReapedIdle,    ///< silent for the idle window
    kBackpressure,  ///< socket refused more than kMaxWriteBuffer bytes
    kShutdown,      ///< force-closed during the final drain
  };

  /// One complete request line from `conn`: count, parse, answer.
  void dispatch_line(Connection& conn, std::string_view line);
  /// An oversized line: counted rejection + ERR, connection survives.
  void on_line_overflow(Connection& conn);
  /// Closes and buries `id`'s connection (object freed after the current
  /// loop iteration).
  void close_connection(std::uint64_t id, CloseReason reason);
  /// Queues `id`'s try_write() for the end of this iteration; a
  /// connection registers when bytes enter its empty write buffer.
  void schedule_write(std::uint64_t id) { pending_writes_.push_back(id); }

  [[nodiscard]] const DaemonConfig& config() const { return config_; }

 private:
  void on_accept(int fd);
  void on_udp_ready();
  void handle_udp_datagram(const sockaddr_in& peer, std::string_view payload);
  /// Counts, parses and answers one request line, appending its reply
  /// line (no terminator) to `out` (TCP and UDP alike). True for QUIT.
  bool answer_line(std::string_view line, std::string& out);
  /// Looks `query` up in the serving snapshot, counts it in the serve.*
  /// ledger and appends its reply line to `out`.
  void answer_query(const serve::Request& query, std::string& out);
  void post_dispatch();
  void flush_udp();
  /// Reaps every connection silent for the idle window, then re-arms
  /// itself idle_us / 8 later: a reap lands in [idle, idle + idle/8].
  void sweep_idle();

  [[nodiscard]] std::string stats_line();
  [[nodiscard]] std::string version_line();
  [[nodiscard]] std::string do_swap(const std::string& path);

  void begin_shutdown();
  void shutdown_tick(int attempt);
  void finish_shutdown();
  void dump_metrics();

  DaemonConfig config_;
  obs::Registry registry_;

  EventLoop loop_;
  std::shared_ptr<const serve::OracleSnapshot> snapshot_;

  std::unique_ptr<TcpListener> tcp_listener_;
  std::unique_ptr<SocketEvent> udp_event_;
  std::uint16_t udp_port_ = 0;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  /// Closed connections parked until the loop iteration ends — a close
  /// from inside a connection's own dispatch must not free its stack.
  std::vector<std::unique_ptr<Connection>> graveyard_;
  /// Connections with new output this iteration (schedule_write), each
  /// written once by post_dispatch.
  std::vector<std::uint64_t> pending_writes_;
  /// A TCP request's reply line, reused for every request so that a reply
  /// allocates nothing; push_response copies it into the connection's
  /// write buffer.
  std::string reply_;

  /// UDP replies queued until post_dispatch (sendmsg then).
  struct UdpReply {
    sockaddr_in peer{};
    std::string line;
  };
  std::deque<UdpReply> udp_out_;

  /// This iteration already answered a QUERY (counted in serve.batches).
  bool answered_this_iteration_ = false;
  bool shutting_down_ = false;

  obs::Counter* conn_accepted_;          ///< "daemon.conn.accepted"
  obs::Counter* conn_closed_;            ///< "daemon.conn.closed"
  obs::Counter* conn_rejected_;          ///< "daemon.conn.rejected_overload"
  obs::Counter* conn_dropped_;           ///< "daemon.conn.dropped_backpressure"
  obs::Counter* conn_reaped_idle_;       ///< "daemon.conn.reaped_idle"
  obs::Counter* proto_requests_;         ///< "daemon.proto.requests"
  obs::Counter* proto_rejected_;         ///< "daemon.proto.rejected"
  obs::Counter* proto_queries_;          ///< "daemon.proto.queries"
  obs::Counter* proto_admin_;            ///< "daemon.proto.admin" (STATS/VERSION/SWAP/QUIT)
  obs::Counter* swap_failed_;            ///< "daemon.swap.failed"
  obs::Counter* udp_in_;                 ///< "daemon.udp.datagrams_in"
  obs::Counter* udp_replies_;            ///< "daemon.udp.replies"
  obs::Gauge* conn_open_;                ///< "daemon.conn.open"
  obs::Gauge* conn_high_water_;          ///< "daemon.conn.high_water"

  // The serve.* ledger, counted where each QUERY is answered.
  obs::Counter* offered_;                ///< "serve.offered"
  obs::Counter* served_;                 ///< "serve.served"
  obs::Counter* shed_;                   ///< "serve.shed" (always 0: nothing is shed)
  obs::Counter* lookups_;                ///< "serve.lookups"
  obs::Counter* scope_block_;            ///< "serve.scope_block"
  obs::Counter* scope_as_;               ///< "serve.scope_as"
  obs::Counter* scope_global_;           ///< "serve.scope_global"
  obs::Counter* batches_;                ///< "serve.batches" (iterations that answered a QUERY)
  obs::Counter* snapshot_swaps_;         ///< "serve.snapshot_swaps"
  obs::Gauge* snapshot_version_;         ///< "serve.snapshot_version"
  obs::Histogram* timeout_answered_;     ///< "serve.timeout_answered" (timeout_us per reply)
};

}  // namespace turtle::daemon
