#include "daemon/daemon.h"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <utility>
#include <vector>

#include "util/check.h"

namespace turtle::daemon {

Daemon::Daemon(DaemonConfig config, std::shared_ptr<const serve::OracleSnapshot> snapshot)
    : config_{std::move(config)}, snapshot_{std::move(snapshot)} {
  TURTLE_CHECK_GT(config_.idle_us, 0u);
  conn_accepted_ = &registry_.counter("daemon.conn.accepted");
  conn_closed_ = &registry_.counter("daemon.conn.closed");
  conn_rejected_ = &registry_.counter("daemon.conn.rejected_overload");
  conn_dropped_ = &registry_.counter("daemon.conn.dropped_backpressure");
  conn_reaped_idle_ = &registry_.counter("daemon.conn.reaped_idle");
  proto_requests_ = &registry_.counter("daemon.proto.requests");
  proto_rejected_ = &registry_.counter("daemon.proto.rejected");
  proto_queries_ = &registry_.counter("daemon.proto.queries");
  proto_admin_ = &registry_.counter("daemon.proto.admin");
  swap_failed_ = &registry_.counter("daemon.swap.failed");
  udp_in_ = &registry_.counter("daemon.udp.datagrams_in");
  udp_replies_ = &registry_.counter("daemon.udp.replies");
  conn_open_ = &registry_.gauge("daemon.conn.open");
  conn_high_water_ = &registry_.gauge("daemon.conn.high_water");
  offered_ = &registry_.counter("serve.offered");
  served_ = &registry_.counter("serve.served");
  shed_ = &registry_.counter("serve.shed");
  lookups_ = &registry_.counter("serve.lookups");
  scope_block_ = &registry_.counter("serve.scope_block");
  scope_as_ = &registry_.counter("serve.scope_as");
  scope_global_ = &registry_.counter("serve.scope_global");
  batches_ = &registry_.counter("serve.batches");
  snapshot_swaps_ = &registry_.counter("serve.snapshot_swaps");
  snapshot_version_ = &registry_.gauge("serve.snapshot_version");
  snapshot_version_->set(static_cast<std::int64_t>(snapshot_version()));
  timeout_answered_ = &registry_.histogram("serve.timeout_answered");

  tcp_listener_ = std::make_unique<TcpListener>(
      loop_, open_tcp_listener(config_.bind_addr, config_.tcp_port),
      [this](int fd) { on_accept(fd); });
  const BoundSocket udp = open_udp_socket(config_.bind_addr, config_.udp_port);
  udp_port_ = udp.port;
  udp_event_ = std::make_unique<SocketEvent>(
      loop_, udp.fd, [this](unsigned /*ready*/) { on_udp_ready(); });
  udp_event_->schedule(SocketEvent::kRead);

  loop_.set_post_dispatch([this] { post_dispatch(); });
  loop_.set_stop_hook([this] { begin_shutdown(); });
  sweep_idle();  // finds nobody yet; arms the sweep timer

  if (!config_.port_file.empty()) {
    std::ofstream os{config_.port_file, std::ios::trunc};
    TURTLE_CHECK(os.is_open()) << "cannot write port file " << config_.port_file;
    os << "tcp=" << tcp_port() << "\nudp=" << udp_port_ << "\n";
  }
}

Daemon::~Daemon() {
  for (auto& [id, conn] : connections_) conn->shutdown_now();
  connections_.clear();
  graveyard_.clear();
  if (udp_event_ != nullptr) udp_event_->close();
  if (tcp_listener_ != nullptr) tcp_listener_->close();
}

void Daemon::run() { loop_.run(); }

void Daemon::on_accept(int fd) {
  if (connections_.size() >= config_.max_connections) {
    conn_rejected_->inc();
    // Best-effort refusal note; the close is the real answer.
    static constexpr char kRefusal[] = "ERR overloaded connection limit\n";
    [[maybe_unused]] const auto n = ::write(fd, kRefusal, sizeof kRefusal - 1);
    ::close(fd);
    return;
  }
  // Replies already leave in one write() per iteration; without this,
  // Nagle would hold a second iteration's write until the peer's delayed
  // ACK (~40 ms) of the first.
  const int one = 1;
  [[maybe_unused]] const int rc = ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const std::uint64_t id = next_conn_id_++;
  connections_.emplace(id, std::make_unique<Connection>(*this, id, fd));
  conn_accepted_->inc();
  conn_open_->set(static_cast<std::int64_t>(connections_.size()));
  conn_high_water_->set_max(static_cast<std::int64_t>(connections_.size()));
}

void Daemon::close_connection(std::uint64_t id, CloseReason reason) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  switch (reason) {
    case CloseReason::kPeer:
    case CloseReason::kShutdown:
      break;
    case CloseReason::kReapedIdle:
      conn_reaped_idle_->inc();
      break;
    case CloseReason::kBackpressure:
      conn_dropped_->inc();
      break;
  }
  conn_closed_->inc();
  it->second->shutdown_now();
  // Park the object: the close may originate inside this connection's own
  // dispatch stack, so destruction waits for the iteration to end.
  graveyard_.push_back(std::move(it->second));
  connections_.erase(it);
  conn_open_->set(static_cast<std::int64_t>(connections_.size()));
}

void Daemon::dispatch_line(Connection& conn, std::string_view line) {
  reply_.clear();
  const bool quit = answer_line(line, reply_);
  conn.push_response(reply_);
  if (quit) conn.request_close_after_flush();
}

bool Daemon::answer_line(std::string_view line, std::string& out) {
  proto_requests_->inc();
  proto::ParseError error{};
  const auto parsed = proto::parse_request(line, error);
  if (!parsed.has_value()) {
    proto_rejected_->inc();
    out += proto::format_error(error);
    return false;
  }
  switch (parsed->command) {
    case proto::Command::kQuery:
      proto_queries_->inc();
      answer_query(parsed->query, out);
      return false;
    case proto::Command::kStats:
      proto_admin_->inc();
      out += stats_line();
      return false;
    case proto::Command::kVersion:
      proto_admin_->inc();
      out += version_line();
      return false;
    case proto::Command::kSwap:
      proto_admin_->inc();
      out += do_swap(parsed->swap_path);
      return false;
    case proto::Command::kQuit:
      proto_admin_->inc();
      out += "OK BYE";
      loop_.defer([this] { begin_shutdown(); });
      return true;
  }
  TURTLE_UNREACHABLE();
}

void Daemon::on_line_overflow(Connection& conn) {
  proto_requests_->inc();
  proto_rejected_->inc();
  conn.push_response(proto::format_error(proto::ParseError::kLineTooLong));
}

void Daemon::on_udp_ready() {
  char buf[2048];
  while (true) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const ssize_t n = recvfrom(udp_event_->fd(), buf, sizeof buf, 0,
                               reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: done for this wakeup
    }
    udp_in_->inc();
    std::string_view payload{buf, static_cast<std::size_t>(n)};
    // One datagram, one request line; a trailing terminator is tolerated.
    if (const std::size_t nl = payload.find('\n'); nl != std::string_view::npos) {
      payload = payload.substr(0, nl);
    }
    handle_udp_datagram(peer, payload);
  }
}

void Daemon::handle_udp_datagram(const sockaddr_in& peer, std::string_view payload) {
  UdpReply& reply = udp_out_.emplace_back();
  reply.peer = peer;
  answer_line(payload, reply.line);
}

void Daemon::answer_query(const serve::Request& query, std::string& out) {
  offered_->inc();
  serve::LookupResult result;
  if (snapshot_ != nullptr) {
    result = snapshot_->lookup(query.addr, query.addr_coverage, query.ping_coverage,
                               query.min_scope);
  }
  lookups_->inc();
  switch (result.scope) {
    case serve::LookupScope::kBlock:
      scope_block_->inc();
      break;
    case serve::LookupScope::kAs:
      scope_as_->inc();
      break;
    case serve::LookupScope::kGlobal:
      scope_global_->inc();
      break;
  }
  timeout_answered_->observe(result.timeout);
  served_->inc();
  if (!answered_this_iteration_) {
    answered_this_iteration_ = true;
    batches_->inc();
  }
  proto::append_query_response(out, result);
}

void Daemon::post_dispatch() {
  // Give each connection with new output one write() and ship the
  // datagram answers. try_write() may close its connection (the QUIT
  // path), so each id is looked up afresh.
  answered_this_iteration_ = false;
  for (const std::uint64_t id : pending_writes_) {
    if (const auto it = connections_.find(id); it != connections_.end()) it->second->try_write();
  }
  pending_writes_.clear();
  flush_udp();
  graveyard_.clear();
}

void Daemon::flush_udp() {
  char terminator = '\n';
  while (!udp_out_.empty()) {
    UdpReply& reply = udp_out_.front();
    // The line and its terminator leave as one datagram of two pieces.
    iovec pieces[2] = {{reply.line.data(), reply.line.size()}, {&terminator, 1}};
    msghdr message{};
    message.msg_name = &reply.peer;
    message.msg_namelen = sizeof reply.peer;
    message.msg_iov = pieces;
    message.msg_iovlen = 2;
    const ssize_t n = sendmsg(udp_event_->fd(), &message, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // retry next cycle
    // Sent (or unsendable: the datagram contract is best-effort).
    if (n >= 0) udp_replies_->inc();
    udp_out_.pop_front();
  }
}

void Daemon::sweep_idle() {
  const std::uint64_t now = loop_.now_us();
  std::vector<std::uint64_t> silent;
  for (const auto& [id, conn] : connections_) {
    if (now - conn->last_read_us() >= config_.idle_us) silent.push_back(id);
  }
  for (const std::uint64_t id : silent) close_connection(id, CloseReason::kReapedIdle);
  loop_.schedule_after(config_.idle_us / 8, [this] { sweep_idle(); });
}

std::string Daemon::stats_line() {
  std::string out = "OK STATS";
  const auto field = [&out](std::string_view key, std::uint64_t value) {
    out += ' ';
    out += key;
    out += '=';
    out += std::to_string(value);
  };
  field("offered", offered_->value());
  field("served", served_->value());
  field("shed", shed_->value());
  field("queue_depth", 0);  // kept for the stable key set: nothing queues
  field("conns", connections_.size());
  field("accepted", conn_accepted_->value());
  field("reaped_idle", conn_reaped_idle_->value());
  field("proto_requests", proto_requests_->value());
  field("proto_rejected", proto_rejected_->value());
  field("snapshot_version", snapshot_version());
  field("swaps", snapshot_swaps_->value());
  return out;
}

std::string Daemon::version_line() {
  std::string out = "OK VERSION proto=";
  out += std::to_string(proto::kProtoVersion);
  out += " snapshot=";
  out += std::to_string(snapshot_version());
  return out;
}

std::string Daemon::do_swap(const std::string& path) {
  std::string error;
  std::shared_ptr<const serve::OracleSnapshot> next =
      serve::OracleSnapshot::map(path, &error, &registry_);
  if (next == nullptr) {
    swap_failed_->inc();
    return proto::format_error("swap-failed", error);
  }
  snapshot_ = std::move(next);
  snapshot_swaps_->inc();
  snapshot_version_->set(static_cast<std::int64_t>(snapshot_version()));
  std::string out = "OK SWAP version=";
  out += std::to_string(snapshot_->version());
  out += " blocks=";
  out += std::to_string(snapshot_->block_count());
  return out;
}

void Daemon::begin_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  tcp_listener_->close();
  // Stop reading new datagrams; the socket stays open for queued replies.
  udp_event_->schedule(0);
  shutdown_tick(0);
}

void Daemon::shutdown_tick(int attempt) {
  bool pending = !udp_out_.empty();
  // flush() may close a drained connection (the QUIT path), which mutates
  // connections_ — walk a snapshot of ids instead of live iterators.
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = connections_.find(id);
    if (it != connections_.end() && !it->second->flush()) pending = true;
  }
  if (pending && attempt < 50) {
    loop_.schedule_after(2'000, [this, attempt] { shutdown_tick(attempt + 1); });
    return;
  }
  finish_shutdown();
}

void Daemon::finish_shutdown() {
  // Ship the datagram answers while the UDP socket can carry them.
  flush_udp();
  while (!connections_.empty()) {
    close_connection(connections_.begin()->first, CloseReason::kShutdown);
  }
  udp_event_->close();
  dump_metrics();
  graveyard_.clear();
  loop_.stop();
}

void Daemon::dump_metrics() {
  if (config_.metrics_out.empty()) return;
  std::ofstream os{config_.metrics_out, std::ios::trunc};
  TURTLE_CHECK(os.is_open()) << "cannot write metrics file " << config_.metrics_out;
  registry_.write_json(os);
}

}  // namespace turtle::daemon
