// turtle::daemon — an in-process turtled on ephemeral loopback ports,
// driven through real sockets: a pipelined batch split across two writes,
// a QUIT pipelined behind queries, a client that half-closes after its
// batch, a 1024-query burst in one iteration,
// both sides of the write-buffer cutoff, the serve.* ledger, a daemon
// started without a snapshot, the served file changing on disk, idle
// reaping, and connection churn.
//
// The daemon's EventLoop runs on a thread of its own and the test thread
// is the client. Every case ends the daemon with a wire QUIT and joins
// the thread. daemon_test stays socket-free; what needs the kernel's TCP
// stack (Nagle, delayed ACKs, one read per iteration) lives here.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "crafted_snapshot.h"
#include "daemon/daemon.h"
#include "daemon/proto.h"
#include "obs/metrics.h"
#include "probe/records.h"
#include "serve/oracle_snapshot.h"

namespace turtle::daemon {
namespace {

/// The first `block_count` of two surveyed /24s, 4 hosts each, 10 matched
/// responses per host with RTTs cycling through ten steps of `rtt_step_ms`.
std::shared_ptr<const serve::OracleSnapshot> make_snapshot(std::uint64_t version = 1,
                                                           std::size_t block_count = 2,
                                                           int rtt_step_ms = 10) {
  probe::RecordLog log;
  const net::Ipv4Address blocks[] = {net::Ipv4Address::from_octets(10, 0, 0, 0),
                                     net::Ipv4Address::from_octets(10, 0, 1, 0)};
  for (int round = 0; round < 10; ++round) {
    int slot = 0;
    for (std::size_t b = 0; b < block_count; ++b) {
      for (int host = 1; host <= 4; ++host, ++slot) {
        probe::SurveyRecord record;
        record.address = net::Ipv4Address{blocks[b].value() + static_cast<std::uint32_t>(host)};
        record.probe_time = SimTime::seconds(round * 660) + SimTime::micros(slot);
        record.rtt = SimTime::millis(rtt_step_ms * (1 + (round + host) % 10));
        record.round = static_cast<std::uint32_t>(round);
        log.append(record);
      }
    }
  }
  serve::SnapshotConfig config;
  config.min_samples_per_address = 5;
  config.version = version;
  return std::make_shared<const serve::OracleSnapshot>(
      serve::OracleSnapshot::build(log, config));
}

/// Query `i` of a mix that covers both blocks, every forced scope, an
/// absent /24 and explicit coverage targets.
std::string query_line(std::size_t i) {
  static const char* const kMix[] = {
      "QUERY 10.0.0.1",
      "QUERY 10.0.1.3 addr-coverage=50 ping-coverage=99",
      "QUERY 10.0.0.4 scope=as",
      "QUERY 203.0.113.9",
      "QUERY 10.0.1.200 scope=global",
      "QUERY 10.0.0.2 addr-coverage=99 ping-coverage=99",
  };
  return kMix[i % std::size(kMix)];
}

/// The in-process lookup the daemon owes QUERY `line`.
serve::LookupResult expected_lookup(const serve::OracleSnapshot& snapshot,
                                    std::string_view line) {
  proto::ParseError error{};
  const auto parsed = proto::parse_request(line, error);
  EXPECT_TRUE(parsed.has_value()) << line;
  if (!parsed.has_value()) return {};
  const serve::Request& q = parsed->query;
  return snapshot.lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope);
}

/// The reply the daemon owes `line`: the in-process lookup, formatted.
std::string expected_reply(const serve::OracleSnapshot& snapshot, std::string_view line) {
  return proto::format_query_response(expected_lookup(snapshot, line));
}

/// `count` pipelined queries starting at mix index `first`: the request
/// bytes and the replies they must get, in order.
struct Batch {
  std::vector<std::string> lines;
  std::vector<std::string> replies;

  [[nodiscard]] std::string wire(std::size_t begin, std::size_t end) const {
    std::string out;
    for (std::size_t i = begin; i < end; ++i) out += lines[i] + "\n";
    return out;
  }
};

Batch make_batch(const serve::OracleSnapshot& snapshot, std::size_t first, std::size_t count) {
  Batch batch;
  for (std::size_t i = first; i < first + count; ++i) {
    batch.lines.push_back(query_line(i));
    batch.replies.push_back(expected_reply(snapshot, batch.lines.back()));
  }
  return batch;
}

/// Times 12 calls of `round_trip` and returns the median of the last 10,
/// in ms: a fresh connection quick-ACKs its first segments, which hides
/// a delayed-ACK stall.
template <typename RoundTrip>
double median_round_trip_ms(RoundTrip round_trip) {
  std::vector<double> elapsed_ms;
  for (int round = 0; round < 12; ++round) {
    const auto start = std::chrono::steady_clock::now();
    round_trip();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    if (round >= 2) elapsed_ms.push_back(elapsed.count());
  }
  std::sort(elapsed_ms.begin(), elapsed_ms.end());
  return (elapsed_ms[4] + elapsed_ms[5]) / 2;
}

/// A blocking loopback TCP client (TCP_NODELAY, 10 s send and receive
/// timeouts), so every delay a case measures is the daemon's.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)} {
    const timeval timeout{.tv_sec = 10, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~Client() { ::close(fd_); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  /// Sends all of `bytes`; false once the peer reset the connection or
  /// the send timed out.
  bool try_send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  void send(std::string_view bytes) {
    if (!try_send(bytes)) ADD_FAILURE() << "send failed";
  }

  /// Half-closes: the daemon reads EOF after what was sent.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until `count` lines arrived, the peer closed, or the receive
  /// timed out; returns the complete lines, terminators stripped.
  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    while (lines.size() < count) {
      if (const std::size_t nl = pending_.find('\n'); nl != std::string::npos) {
        lines.push_back(pending_.substr(0, nl));
        pending_.erase(0, nl + 1);
        continue;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    return lines;
  }

  std::vector<std::string> read_until_eof() {
    return read_lines(std::numeric_limits<std::size_t>::max());
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string pending_;
};

/// Sends `datagram` to the daemon's UDP port and returns the reply
/// datagram, or "" when none came within 10 s.
std::string udp_round_trip(std::uint16_t port, std::string_view datagram) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::sendto(fd, datagram.data(), datagram.size(), 0, reinterpret_cast<const sockaddr*>(&addr),
           sizeof addr);
  char buf[512];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  ::close(fd);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string{};
}

/// Parks the daemon's loop thread inside an injected function: the loop
/// parks the next time it drains injected work, which is after that
/// iteration's socket reads and before its post-dispatch writes. Stays
/// parked until release() or destruction.
class LoopHold {
 public:
  explicit LoopHold(EventLoop& loop)
      : parked_{std::make_shared<std::latch>(1)}, release_{std::make_shared<std::latch>(1)} {
    loop.inject([parked = parked_, release = release_] {
      parked->count_down();
      release->wait();
    });
  }
  ~LoopHold() { release(); }

  LoopHold(const LoopHold&) = delete;
  LoopHold& operator=(const LoopHold&) = delete;

  void wait_parked() { parked_->wait(); }

  void release() {
    if (released_) return;
    released_ = true;
    release_->count_down();
  }

 private:
  std::shared_ptr<std::latch> parked_;
  std::shared_ptr<std::latch> release_;
  bool released_ = false;
};

/// turtled on ephemeral loopback ports, its loop on a thread of its own.
class LoopbackDaemon {
 public:
  explicit LoopbackDaemon(std::shared_ptr<const serve::OracleSnapshot> snapshot,
                          DaemonConfig config = {})
      : daemon_{std::move(config), std::move(snapshot)},
        tcp_port_{daemon_.tcp_port()},
        udp_port_{daemon_.udp_port()},
        thread_{[this] { daemon_.run(); }} {}
  ~LoopbackDaemon() { stop(); }

  LoopbackDaemon(const LoopbackDaemon&) = delete;
  LoopbackDaemon& operator=(const LoopbackDaemon&) = delete;

  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }

  /// Thread-safe: EventLoop::inject is the loop's one cross-thread entry.
  [[nodiscard]] EventLoop& loop() { return daemon_.loop(); }

  /// Sends QUIT and joins the loop thread. Only for a daemon still
  /// listening: once it closed its listener, another test process may
  /// have bound the port.
  void stop() {
    if (!thread_.joinable()) return;
    {
      Client quit{tcp_port_};
      if (quit.connected()) {
        quit.send("QUIT\n");
        (void)quit.read_until_eof();
      }
    }
    thread_.join();
  }

  /// Joins the loop thread after the case sent its own QUIT.
  void join() { thread_.join(); }

  /// Only after stop() or join(): the loop thread owns the registry while
  /// it runs.
  [[nodiscard]] obs::Registry& registry() {
    EXPECT_FALSE(thread_.joinable()) << "read the registry while the loop runs";
    return daemon_.registry();
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return registry().counter(name).value();
  }

 private:
  Daemon daemon_;
  std::uint16_t tcp_port_;
  std::uint16_t udp_port_;
  std::thread thread_;
};

class DaemonLoopback : public ::testing::Test {
 protected:
  // A client that hangs up mid-reply must not kill the test binary.
  static void SetUpTestSuite() { std::signal(SIGPIPE, SIG_IGN); }

  std::shared_ptr<const serve::OracleSnapshot> snapshot_ = make_snapshot();
};

TEST_F(DaemonLoopback, BatchSplitAcrossTwoWritesArrivesWithoutDelayedAckStall) {
  // With one write() per answer and Nagle on, answers queue behind the
  // first unacknowledged one until the client's delayed ACK (~40 ms).
  LoopbackDaemon turtled{snapshot_};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  const Batch batch = make_batch(*snapshot_, 0, 64);
  const std::string first_half = batch.wire(0, 32);
  const std::string second_half = batch.wire(32, 64);

  const double median_ms = median_round_trip_ms([&] {
    client.send(first_half);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    client.send(second_half);
    EXPECT_EQ(client.read_lines(64), batch.replies);
  });
  EXPECT_LT(median_ms, 20.0);
}

TEST_F(DaemonLoopback, RepliesOfASecondIterationDoNotWaitForTheFirstOnesAck) {
  // One batch answered in two loop iterations, its second half read
  // before the client could acknowledge the first replies. With Nagle on,
  // the second write waits for the client's delayed ACK (~40 ms).
  LoopbackDaemon turtled{snapshot_};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  const Batch batch = make_batch(*snapshot_, 0, 64);
  const std::string first_half = batch.wire(0, 32);
  const std::string second_half = batch.wire(32, 64);

  const double median_ms = median_round_trip_ms([&] {
    LoopHold before_read{turtled.loop()};
    before_read.wait_parked();
    client.send(first_half);
    // Parks the next iteration after it reads the first half and before
    // it writes the first replies.
    LoopHold before_write{turtled.loop()};
    before_read.release();
    before_write.wait_parked();
    client.send(second_half);
    before_write.release();
    EXPECT_EQ(client.read_lines(64), batch.replies);
  });
  EXPECT_LT(median_ms, 20.0);
}

TEST_F(DaemonLoopback, QuitPipelinedBehindQueriesSendsTheirRepliesFirst) {
  LoopbackDaemon turtled{snapshot_};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  client.send("QUERY 10.0.0.1\nQUERY 10.0.0.2\nQUIT\n");
  EXPECT_EQ(client.read_until_eof(),
            (std::vector<std::string>{expected_reply(*snapshot_, "QUERY 10.0.0.1"),
                                      expected_reply(*snapshot_, "QUERY 10.0.0.2"),
                                      "OK BYE"}));
  turtled.join();
  EXPECT_EQ(turtled.counter("serve.served"), 2u);
}

TEST_F(DaemonLoopback, HalfClosedClientGetsTheRepliesToWhatItSent) {
  // The batch and the FIN both wait in the socket before the daemon's
  // first read of it. That read comes back short of the read chunk, so
  // the daemon writes the replies before it reads again and meets EOF;
  // a connection that read on to EOF in the same wakeup closed before
  // its replies were written.
  LoopbackDaemon turtled{snapshot_};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  const Batch batch = make_batch(*snapshot_, 0, 8);
  {
    LoopHold hold{turtled.loop()};
    hold.wait_parked();
    client.send(batch.wire(0, 8));
    client.shutdown_write();
  }
  EXPECT_EQ(client.read_until_eof(), batch.replies);
  turtled.stop();
  EXPECT_EQ(turtled.counter("serve.served"), 8u);
}

TEST_F(DaemonLoopback, QuitFlushesEveryConnectionAndDatagramReadBeforeIt) {
  // A QUIT's drain must answer what other clients sent in the same loop
  // iteration too: a pipelined TCP batch and a UDP query.
  LoopbackDaemon turtled{snapshot_};
  Client other{turtled.tcp_port()};
  Client quitter{turtled.tcp_port()};
  ASSERT_TRUE(other.connected());
  ASSERT_TRUE(quitter.connected());
  // Round trips prove both connections are accepted before the hold.
  other.send("VERSION\n");
  quitter.send("VERSION\n");
  ASSERT_EQ(other.read_lines(1).size(), 1u);
  ASSERT_EQ(quitter.read_lines(1).size(), 1u);

  const int udp = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(udp, 0);
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(udp, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in daemon_udp{};
  daemon_udp.sin_family = AF_INET;
  daemon_udp.sin_port = htons(turtled.udp_port());
  daemon_udp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const Batch batch = make_batch(*snapshot_, 0, 8);
  LoopHold hold{turtled.loop()};
  hold.wait_parked();
  const std::string datagram = query_line(1);
  ASSERT_EQ(::sendto(udp, datagram.data(), datagram.size(), 0,
                     reinterpret_cast<const sockaddr*>(&daemon_udp), sizeof daemon_udp),
            static_cast<ssize_t>(datagram.size()));
  other.send(batch.wire(0, batch.lines.size()));
  quitter.send("QUERY 10.0.0.3\nQUIT\n");
  hold.release();

  EXPECT_EQ(quitter.read_until_eof(),
            (std::vector<std::string>{expected_reply(*snapshot_, "QUERY 10.0.0.3"), "OK BYE"}));
  EXPECT_EQ(other.read_until_eof(), batch.replies);
  turtled.join();
  char buf[512];
  const ssize_t n = ::recv(udp, buf, sizeof buf, 0);
  ::close(udp);
  ASSERT_GT(n, 0) << "no UDP reply";
  EXPECT_EQ(std::string(buf, static_cast<std::size_t>(n)),
            expected_reply(*snapshot_, datagram) + "\n");
}

TEST_F(DaemonLoopback, BurstLargerThanQueueCapacityShedsNothing) {
  // 16 connections x 64 pipelined queries, all read in one loop
  // iteration: 1024 requests, every one answered.
  LoopbackDaemon turtled{snapshot_};
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(std::make_unique<Client>(turtled.tcp_port()));
    ASSERT_TRUE(clients.back()->connected());
    // A round trip proves the connection is accepted before the hold.
    clients.back()->send("VERSION\n");
    ASSERT_EQ(clients.back()->read_lines(1).size(), 1u);
  }
  const Batch batch = make_batch(*snapshot_, 0, 64);
  const std::string wire = batch.wire(0, batch.lines.size());

  LoopHold hold{turtled.loop()};
  hold.wait_parked();
  for (const auto& client : clients) client->send(wire);
  hold.release();

  std::size_t wrong = 0;
  std::string first_wrong;
  for (const auto& client : clients) {
    const std::vector<std::string> replies = client->read_lines(batch.lines.size());
    ASSERT_EQ(replies.size(), batch.replies.size());
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (replies[i] != batch.replies[i] && wrong++ == 0) first_wrong = replies[i];
    }
  }
  EXPECT_EQ(wrong, 0u) << "first wrong reply: " << first_wrong;
  turtled.stop();
  EXPECT_EQ(turtled.counter("serve.shed"), 0u);
  EXPECT_EQ(turtled.counter("serve.served"), 16u * 64u);
}

TEST_F(DaemonLoopback, DeepPipelineOnOneConnectionIsAnsweredNotDropped) {
  // 4096 queries in one write, read in one loop iteration: more than
  // kMaxWriteBuffer of replies before the iteration's write. Bytes the
  // daemon has not offered to the socket yet are not backpressure.
  LoopbackDaemon turtled{snapshot_};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  client.send("VERSION\n");
  ASSERT_EQ(client.read_lines(1).size(), 1u);
  const Batch batch = make_batch(*snapshot_, 0, 4096);
  std::size_t reply_bytes = 0;
  for (const std::string& reply : batch.replies) reply_bytes += reply.size() + 1;
  ASSERT_GT(reply_bytes, kMaxWriteBuffer);

  LoopHold hold{turtled.loop()};
  hold.wait_parked();
  client.send(batch.wire(0, batch.lines.size()));
  hold.release();

  const std::vector<std::string> replies = client.read_lines(batch.lines.size());
  ASSERT_EQ(replies.size(), batch.replies.size());
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) wrong += replies[i] != batch.replies[i];
  EXPECT_EQ(wrong, 0u);
  turtled.stop();
  EXPECT_EQ(turtled.counter("daemon.conn.dropped_backpressure"), 0u);
  EXPECT_EQ(turtled.counter("serve.served"), 4096u);
}

TEST_F(DaemonLoopback, ClientThatNeverReadsIsDroppedForBackpressure) {
  // The cutoff's other side: once the kernel's buffers toward a client
  // that never reads are full, the replies its socket refuses pile up,
  // and past kMaxWriteBuffer the daemon drops the connection. A second
  // connection's STATS tells when: the client cannot read to find out.
  LoopbackDaemon turtled{snapshot_};
  Client admin{turtled.tcp_port()};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(admin.connected());
  ASSERT_TRUE(client.connected());
  const auto open_connections = [&admin]() -> unsigned long {
    admin.send("STATS\n");
    const std::vector<std::string> lines = admin.read_lines(1);
    if (lines.empty()) return 0;
    const std::size_t at = lines[0].find(" conns=");
    return at == std::string::npos ? 0 : std::stoul(lines[0].substr(at + 7));
  };
  ASSERT_EQ(open_connections(), 2u);

  const Batch batch = make_batch(*snapshot_, 0, 512);
  const std::string wire = batch.wire(0, batch.lines.size());
  // ~40 KB of replies a batch. With Linux's default tcp_wmem the
  // kernel holds ~4 MiB toward one client, so the drop comes after ~110.
  constexpr int kMaxBatches = 1024;
  int batches = 0;
  while (batches < kMaxBatches && client.try_send(wire) && open_connections() == 2) ++batches;
  EXPECT_LT(batches, kMaxBatches) << "a client that never reads was never dropped";
  turtled.stop();
  EXPECT_EQ(turtled.counter("daemon.conn.dropped_backpressure"), 1u);
}

TEST_F(DaemonLoopback, ServeLedgerCountsWhatEachQueryWasAnswered) {
  // TCP and UDP queries, a malformed line and a STATS: the serve.* ledger
  // holds exactly the QUERYs answered, tier by tier, with the timeout
  // each reply carried.
  LoopbackDaemon turtled{snapshot_};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  const Batch batch = make_batch(*snapshot_, 0, 12);
  client.send(batch.wire(0, batch.lines.size()) + "BOGUS\nSTATS\n");
  std::vector<std::string> lines = client.read_lines(batch.lines.size() + 2);
  ASSERT_EQ(lines.size(), batch.lines.size() + 2);
  EXPECT_EQ(lines[12].rfind("ERR unknown-command ", 0), 0u) << lines[12];
  EXPECT_EQ(lines[13].rfind("OK STATS offered=12 served=12 shed=0 queue_depth=0 ", 0), 0u)
      << lines[13];
  lines.resize(batch.lines.size());
  EXPECT_EQ(lines, batch.replies);

  std::vector<std::string> queries = batch.lines;
  for (std::size_t i = 0; i < 6; ++i) {
    queries.push_back(query_line(i));
    EXPECT_EQ(udp_round_trip(turtled.udp_port(), queries.back()),
              expected_reply(*snapshot_, queries.back()) + "\n");
  }
  turtled.stop();

  std::uint64_t by_scope[3] = {0, 0, 0};
  std::int64_t timeout_sum_us = 0;
  for (const std::string& query : queries) {
    const serve::LookupResult result = expected_lookup(*snapshot_, query);
    ++by_scope[static_cast<int>(result.scope)];
    timeout_sum_us += result.timeout.as_micros();
  }
  const std::uint64_t answered = queries.size();
  EXPECT_EQ(turtled.counter("daemon.proto.queries"), answered);
  EXPECT_EQ(turtled.counter("serve.offered"), answered);
  EXPECT_EQ(turtled.counter("serve.served"), answered);
  EXPECT_EQ(turtled.counter("serve.shed"), 0u);
  EXPECT_EQ(turtled.counter("serve.lookups"), answered);
  EXPECT_EQ(turtled.counter("serve.scope_block"), by_scope[0]);
  EXPECT_EQ(turtled.counter("serve.scope_as"), by_scope[1]);
  EXPECT_EQ(turtled.counter("serve.scope_global"), by_scope[2]);
  const obs::Histogram& timeouts = turtled.registry().histogram("serve.timeout_answered");
  EXPECT_EQ(timeouts.count(), answered);
  EXPECT_EQ(timeouts.sum_us(), timeout_sum_us);
  // No modeled serving terms: the daemon has no cache, queue or latency model.
  for (const auto& [name, counter] : turtled.registry().counters()) {
    EXPECT_NE(name.rfind("serve.cache_", 0), 0u) << name;
    EXPECT_NE(name, "serve.queued");
  }
  EXPECT_FALSE(turtled.registry().histograms().contains("serve.latency"));
}

TEST_F(DaemonLoopback, SnapshotlessDaemonAnswersDefaultsUntilASwap) {
  LoopbackDaemon turtled{nullptr};
  Client client{turtled.tcp_port()};
  ASSERT_TRUE(client.connected());
  client.send("QUERY 10.0.0.1\nVERSION\n");
  EXPECT_EQ(client.read_lines(2),
            (std::vector<std::string>{
                "OK QUERY timeout_us=0 scope=global samples=0 confidence=0.000000 version=0",
                "OK VERSION proto=1 snapshot=0"}));

  const std::shared_ptr<const serve::OracleSnapshot> next = make_snapshot(7);
  const std::string path =
      testing::TempDir() + "daemon_loopback_v7_" + std::to_string(::getpid()) + ".snap";
  next->write(path);
  client.send("SWAP " + path + "\n");
  EXPECT_EQ(client.read_lines(1), std::vector<std::string>{"OK SWAP version=7 blocks=2"});
  std::remove(path.c_str());
  const Batch batch = make_batch(*next, 0, 6);
  ASSERT_NE(batch.replies[0].find(" version=7"), std::string::npos);
  client.send(batch.wire(0, batch.lines.size()));
  EXPECT_EQ(client.read_lines(batch.lines.size()), batch.replies);
  turtled.stop();
  EXPECT_EQ(turtled.counter("serve.snapshot_swaps"), 1u);
  EXPECT_EQ(turtled.registry().gauge("serve.snapshot_version").value(), 7);
}

TEST_F(DaemonLoopback, ServedFileChangingOnDiskChangesNothingUntilASwap) {
  // turtled serves the image it read and validated at startup: no change
  // to the file reaches an answer, or VERSION, before a SWAP of the path.
  // A refused SWAP is counted and leaves the old snapshot answering.
  struct Row {
    const char* operation;
    std::function<void(const std::string& path)> change;
    std::string swap_reply;
  };
  const std::vector<Row> rows = {
      {"truncate to 0 bytes",
       [](const std::string& path) { std::filesystem::resize_file(path, 0); },
       "ERR swap-failed snapshot smaller than its header"},
      {"OracleSnapshot::write v43 in place",
       [](const std::string& path) { make_snapshot(43, 2, 20)->write(path); },
       "OK SWAP version=43 blocks=2"},
      {"copy a smaller snapshot over it",
       [](const std::string& path) {
         const std::string smaller = path + ".smaller";
         make_snapshot(44, 1)->write(smaller);
         std::filesystem::copy_file(smaller, path,
                                    std::filesystem::copy_options::overwrite_existing);
         std::filesystem::remove(smaller);
       },
       "OK SWAP version=44 blocks=1"},
      {"rename a new file over it",
       [](const std::string& path) {
         const std::string fresh = path + ".new";
         make_snapshot(45, 2, 20)->write(fresh);
         std::filesystem::rename(fresh, path);
       },
       "OK SWAP version=45 blocks=2"},
      {"overwrite with a header whose layout wraps 64 bits",
       [](const std::string& path) {
         const std::string image = test::crafted_wrapping_snapshot();
         std::ofstream{path, std::ios::binary | std::ios::trunc}.write(
             image.data(), static_cast<std::streamsize>(image.size()));
       },
       "ERR swap-failed header counts overflow the section layout"},
  };
  const std::string path =
      testing::TempDir() + "daemon_loopback_live_" + std::to_string(::getpid()) + ".snap";
  for (const Row& row : rows) {
    SCOPED_TRACE(row.operation);
    make_snapshot(41)->write(path);
    std::string error;
    const std::shared_ptr<const serve::OracleSnapshot> served =
        serve::OracleSnapshot::map(path, &error);
    ASSERT_NE(served, nullptr) << error;
    LoopbackDaemon turtled{served};
    Client client{turtled.tcp_port()};
    ASSERT_TRUE(client.connected());
    const Batch batch = make_batch(*served, 0, 6);
    const std::string wire = batch.wire(0, batch.lines.size()) + "VERSION\n";
    std::vector<std::string> want = batch.replies;
    want.push_back("OK VERSION proto=1 snapshot=41");
    client.send(wire);
    ASSERT_EQ(client.read_lines(want.size()), want);

    row.change(path);
    client.send(wire);
    EXPECT_EQ(client.read_lines(want.size()), want);

    client.send("SWAP " + path + "\n");
    EXPECT_EQ(client.read_lines(1), std::vector<std::string>{row.swap_reply});
    const bool refused = row.swap_reply.starts_with("ERR ");
    if (refused) {
      client.send(wire);
      EXPECT_EQ(client.read_lines(want.size()), want);
    }
    turtled.stop();
    EXPECT_EQ(turtled.counter("daemon.swap.failed"), refused ? 1u : 0u);
    EXPECT_EQ(turtled.counter("fault.snapshot.load_rejected"), refused ? 1u : 0u);
    EXPECT_EQ(turtled.counter("serve.snapshot_swaps"), refused ? 0u : 1u);
  }
  std::filesystem::remove(path);
}

TEST_F(DaemonLoopback, SilentConnectionIsReapedAfterTheIdleWindowAChattyOneIsNot) {
  // The idle sweep runs every idle/8, so a silent connection closes
  // between 300 and ~338 ms after it was accepted; 500 ms leaves slack for
  // a loaded sanitizer runner. A QUERY every 50 ms keeps the other open.
  DaemonConfig config;
  config.idle_us = 300'000;
  LoopbackDaemon turtled{snapshot_, config};
  const auto connected_at = std::chrono::steady_clock::now();
  Client silent{turtled.tcp_port()};
  Client chatty{turtled.tcp_port()};
  ASSERT_TRUE(silent.connected());
  ASSERT_TRUE(chatty.connected());

  const std::string query = query_line(0);
  const std::string reply = expected_reply(*snapshot_, query);
  std::thread chatter{[&] {
    for (int i = 0; i < 16; ++i) {  // 800 ms: past the silent one's reap
      chatty.send(query + "\n");
      EXPECT_EQ(chatty.read_lines(1), std::vector<std::string>{reply}) << "query " << i;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }};
  EXPECT_TRUE(silent.read_until_eof().empty());
  const std::chrono::duration<double, std::milli> reaped_after =
      std::chrono::steady_clock::now() - connected_at;
  chatter.join();
  EXPECT_GE(reaped_after.count(), 300.0);
  EXPECT_LT(reaped_after.count(), 500.0);

  turtled.stop();
  EXPECT_EQ(turtled.counter("daemon.conn.reaped_idle"), 1u);
  EXPECT_EQ(turtled.counter("daemon.conn.accepted"), turtled.counter("daemon.conn.closed"));
}

TEST_F(DaemonLoopback, ConnectionChurnLeavesNoTimerBehind) {
  // Idle reaping keeps no per-connection timer: after 2000 short
  // connections the loop holds the idle sweep and nothing else.
  LoopbackDaemon turtled{snapshot_};
  const std::string query = query_line(0);
  const std::string reply = expected_reply(*snapshot_, query);
  for (int i = 0; i < 2000; ++i) {
    Client client{turtled.tcp_port()};
    ASSERT_TRUE(client.connected()) << "connection " << i;
    client.send(query + "\n");
    ASSERT_EQ(client.read_lines(1), std::vector<std::string>{reply}) << "connection " << i;
  }
  std::promise<std::size_t> pending;
  turtled.loop().inject([&] { pending.set_value(turtled.loop().pending_timers()); });
  EXPECT_LE(pending.get_future().get(), 2u);
  turtled.stop();
  EXPECT_EQ(turtled.counter("daemon.conn.accepted"), 2001u);  // + the QUIT connection
  EXPECT_EQ(turtled.counter("daemon.conn.closed"), 2001u);
}

}  // namespace
}  // namespace turtle::daemon
