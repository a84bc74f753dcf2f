// turtled — the timeout oracle as an actual network service.
//
// Wiring (DESIGN §18): one EventLoop thread owns everything. A TcpListener
// accepts line-protocol clients into Connection objects (TCP_NODELAY set);
// a UDP socket serves one-datagram-one-request traffic; both feed parsed
// requests into a NetTransport, which embeds the stock OracleServer on a
// logical-time simulator. Once per loop iteration the transport pumps,
// executing the iteration's requests as one batched burst and filling the
// ordered response slots; then every connection with new output gets one
// write(), and the datagram answers go out. A burst larger than the
// server's queue is pumped mid-iteration rather than shed. Connections
// silent for the idle window are reaped by an IdleGovernor. Admin
// operations ride the same protocol: STATS snapshots the ledger, SWAP
// hot-swaps a new snapshot file mid-traffic, QUIT (or SIGINT/SIGTERM)
// runs the graceful drain — answer and flush what was read before it,
// finalize the serving ledger so offered == served + shed + queued
// closes, dump metrics, exit.
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
#include "daemon/idle.h"
#include "daemon/listener.h"
#include "daemon/net_transport.h"
#include "daemon/proto.h"
#include "obs/metrics.h"
#include "serve/oracle_snapshot.h"

namespace turtle::daemon {

struct DaemonConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t tcp_port = 0;  ///< 0 = ephemeral (port_file tells the truth)
  std::uint16_t udp_port = 0;
  /// Accepts beyond this are refused with `ERR overloaded` and counted
  /// under daemon.conn.rejected_overload — connection-level shedding in
  /// front of the server's own request-level shedding.
  std::size_t max_connections = 1024;
  std::size_t read_chunk = 4096;
  /// Write-buffer cutoff per connection, in bytes the socket refused; a
  /// slower-than-its-answers client is dropped and counted
  /// (daemon.conn.dropped_backpressure).
  std::size_t max_write_buffer = 256 * 1024;

  /// Serving brain configuration. `registry` is overridden with the
  /// daemon's registry so serve.* and daemon.* share one dump.
  serve::ServerConfig server;
  IdleConfig idle;
  EventLoop::Config loop;

  obs::Registry* registry = nullptr;  ///< owned fallback when null

  /// Written once listeners are bound: "tcp=<port>\nudp=<port>\n". The
  /// smoke test polls this to learn ephemeral ports.
  std::string port_file;
  /// Metrics JSON (turtle-metrics-v1) dumped during graceful shutdown.
  std::string metrics_out;
};

class Daemon {
 public:
  Daemon(DaemonConfig config, std::shared_ptr<const serve::OracleSnapshot> snapshot);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until QUIT or a stop signal; returns after the graceful drain.
  void run();

  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_listener_->port(); }
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] serve::OracleServer& server() { return transport_.server(); }
  [[nodiscard]] obs::Registry& registry() { return *registry_; }

  // --- Connection plumbing (called by Connection) ---

  enum class CloseReason : std::uint8_t {
    kPeer,          ///< orderly close (peer EOF, QUIT flush, error)
    kReapedIdle,    ///< idle deadline fired (already counted by the governor)
    kBackpressure,  ///< socket refused more than max_write_buffer bytes
    kShutdown,      ///< force-closed during the final drain
  };

  /// One complete request line from `conn`: count, parse, dispatch.
  void dispatch_line(Connection& conn, std::string_view line);
  /// An oversized line: counted rejection + ERR, connection survives.
  void on_line_overflow(Connection& conn);
  /// Marks activity for the idle governor.
  void touch_idle(std::uint64_t id) { idle_.touch(id, loop_.now_us()); }
  /// Closes and buries `id`'s connection (object freed after the current
  /// loop iteration).
  void close_connection(std::uint64_t id, CloseReason reason);
  /// Queues `id`'s try_write() for after this iteration's pump; a
  /// connection registers when bytes enter its empty write buffer.
  void schedule_write(std::uint64_t id) { pending_writes_.push_back(id); }

  [[nodiscard]] const DaemonConfig& config() const { return config_; }

 private:
  void on_accept(int fd);
  void on_udp_ready();
  void handle_udp_datagram(const sockaddr_in& peer, std::string_view payload);
  /// Submits a parsed QUERY (TCP and UDP alike). A full server queue is
  /// pumped first, so a burst larger than queue_capacity is answered, not
  /// shed; the real backpressure is max_write_buffer.
  bool submit_query(const serve::Request& query, serve::OracleServer::Callback callback);
  void post_dispatch();
  void flush_udp();

  [[nodiscard]] std::string stats_line();
  [[nodiscard]] std::string version_line();
  [[nodiscard]] std::string do_swap(const std::string& path);

  void begin_shutdown();
  void shutdown_tick(int attempt);
  void finish_shutdown();
  void dump_metrics();

  DaemonConfig config_;
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_;

  EventLoop loop_;
  NetTransport transport_;
  IdleGovernor idle_;

  std::unique_ptr<TcpListener> tcp_listener_;
  std::unique_ptr<SocketEvent> udp_event_;
  std::uint16_t udp_port_ = 0;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  /// Closed connections parked until the loop iteration ends — a close
  /// from inside a connection's own dispatch must not free its stack.
  std::vector<std::unique_ptr<Connection>> graveyard_;
  /// Connections with new output this iteration (schedule_write), each
  /// written once by post_dispatch after the pump.
  std::vector<std::uint64_t> pending_writes_;

  /// UDP replies queued until after the post-dispatch pump (sendto then).
  struct UdpReply {
    sockaddr_in peer{};
    std::string line;
  };
  std::deque<UdpReply> udp_out_;

  bool shutting_down_ = false;

  obs::Counter* conn_accepted_;          ///< "daemon.conn.accepted"
  obs::Counter* conn_closed_;            ///< "daemon.conn.closed"
  obs::Counter* conn_rejected_;          ///< "daemon.conn.rejected_overload"
  obs::Counter* conn_dropped_;           ///< "daemon.conn.dropped_backpressure"
  obs::Counter* proto_requests_;         ///< "daemon.proto.requests"
  obs::Counter* proto_rejected_;         ///< "daemon.proto.rejected"
  obs::Counter* proto_queries_;          ///< "daemon.proto.queries"
  obs::Counter* proto_admin_;            ///< "daemon.proto.admin" (STATS/VERSION/SWAP/QUIT)
  obs::Counter* swap_failed_;            ///< "daemon.swap.failed"
  obs::Counter* udp_in_;                 ///< "daemon.udp.datagrams_in"
  obs::Counter* udp_replies_;            ///< "daemon.udp.replies"
  obs::Gauge* conn_open_;                ///< "daemon.conn.open"
  obs::Gauge* conn_high_water_;          ///< "daemon.conn.high_water"
  obs::Histogram* wall_request_us_;      ///< "wall.daemon.request_us" (quarantined)
};

}  // namespace turtle::daemon
