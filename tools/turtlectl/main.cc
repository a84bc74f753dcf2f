// turtlectl — one-shot client for the turtled wire protocol.
//
//   turtlectl --port-file=ports.txt query 10.1.2.3 scope=as
//   turtlectl --host=127.0.0.1 --port=4774 --udp=true stats
//   turtlectl --local=oracle.snap query 10.1.2.3
//
// The positionals form the request line verbatim (the verb is upcased), so
// the client speaks exactly the grammar in src/daemon/PROTOCOL.md. Three
// backends answer it:
//
//   * TCP (default) and UDP (--udp) talk to a running turtled;
//   * --local=<snapshot> runs the daemon's own two calls in-process against
//     the mapped file — OracleSnapshot::lookup, then the proto codec's
//     format_query_response — with no daemon and no sockets. The smoke test
//     byte-compares this against the network answers.
//
// --timeout-ms bounds every socket wait. Its default practices what the
// paper preaches: the client first asks the oracle itself (a bootstrap
// `QUERY 0.0.0.0 scope=global` under a 5 s cap) and adopts the returned
// global recommendation as its own deadline, instead of a folklore
// constant. A zero answer (a daemon serving without a snapshot) is no
// recommendation: the 5 s cap stays.
//
// Exit status: 0 for an OK reply, 1 for ERR, 2 for usage/transport errors
// (an unknown flag included).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "daemon/proto.h"
#include "serve/oracle_snapshot.h"
#include "util/flags.h"

namespace {

using namespace turtle;

constexpr std::uint64_t kBootstrapTimeoutMs = 5'000;

int fail(const char* what) {
  std::fprintf(stderr, "turtlectl: %s: %s\n", what, std::strerror(errno));
  return 2;
}

/// Reply status -> exit code shared by all three backends.
int exit_code(const std::string& reply) {
  return reply.rfind("OK", 0) == 0 ? 0 : 1;
}

/// Pulls `timeout_us=<n>` out of a QUERY reply; nullopt when absent.
std::optional<std::uint64_t> parse_timeout_us(const std::string& reply) {
  static constexpr char kKey[] = "timeout_us=";
  const auto pos = reply.find(kKey);
  if (pos == std::string::npos) return std::nullopt;
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(reply.c_str() + pos + sizeof kKey - 1, &end, 10);
  if (end == reply.c_str() + pos + sizeof kKey - 1) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

void set_socket_timeout(int fd, std::uint64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// A connected datagram or stream socket speaking one-line requests.
class Channel {
 public:
  Channel(const std::string& host, std::uint16_t port, bool udp) : udp_{udp} {
    fd_ = socket(AF_INET, udp ? SOCK_DGRAM : SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("bad --host (dotted quad required)");
    }
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("connect");
    }
  }
  ~Channel() {
    if (fd_ >= 0) ::close(fd_);
  }

  void set_timeout_ms(std::uint64_t ms) { set_socket_timeout(fd_, ms); }

  /// Sends `line` (terminator appended) and returns the one-line reply,
  /// terminator stripped. Throws std::runtime_error on transport failure.
  std::string round_trip(const std::string& line) {
    std::string wire = line;
    wire += '\n';
    const char* p = wire.data();
    std::size_t left = wire.size();
    while (left > 0) {
      const ssize_t n = send(fd_, p, left, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send");
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    if (udp_) {
      char buf[2048];
      while (true) {
        const ssize_t n = recv(fd_, buf, sizeof buf, 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error("recv (timeout?)");
        }
        std::string reply{buf, static_cast<std::size_t>(n)};
        if (const auto nl = reply.find('\n'); nl != std::string::npos) reply.resize(nl);
        return reply;
      }
    }
    // TCP: read until the terminator; replies are one line by grammar.
    while (true) {
      if (const auto nl = stream_buf_.find('\n'); nl != std::string::npos) {
        std::string reply = stream_buf_.substr(0, nl);
        stream_buf_.erase(0, nl + 1);
        if (!reply.empty() && reply.back() == '\r') reply.pop_back();
        return reply;
      }
      char buf[2048];
      const ssize_t n = recv(fd_, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("recv (timeout?)");
      }
      if (n == 0) throw std::runtime_error("connection closed mid-reply");
      stream_buf_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool udp_;
  std::string stream_buf_;
};

/// Reads "tcp=N\nudp=N\n" as written by turtled --port-file.
bool read_port_file(const std::string& path, std::uint16_t& tcp, std::uint16_t& udp) {
  std::ifstream in{path};
  if (!in.is_open()) return false;
  std::string token;
  bool got_tcp = false, got_udp = false;
  while (in >> token) {
    if (token.rfind("tcp=", 0) == 0) {
      tcp = static_cast<std::uint16_t>(std::atoi(token.c_str() + 4));
      got_tcp = true;
    } else if (token.rfind("udp=", 0) == 0) {
      udp = static_cast<std::uint16_t>(std::atoi(token.c_str() + 4));
      got_udp = true;
    }
  }
  return got_tcp && got_udp;
}

/// --local backend: the daemon's own lookup + codec against a mapped
/// snapshot. QUERY only — the other verbs are daemon state.
int run_local(const std::string& snapshot_path, const std::string& line) {
  std::string error;
  const auto snapshot = serve::OracleSnapshot::map(snapshot_path, &error);
  if (snapshot == nullptr) {
    std::fprintf(stderr, "turtlectl: cannot map %s: %s\n", snapshot_path.c_str(),
                 error.c_str());
    return 2;
  }
  daemon::proto::ParseError parse_error{};
  const auto parsed = daemon::proto::parse_request(line, parse_error);
  if (!parsed.has_value()) {
    std::printf("%s\n", daemon::proto::format_error(parse_error).c_str());
    return 1;
  }
  if (parsed->command != daemon::proto::Command::kQuery) {
    std::fprintf(stderr, "turtlectl: --local answers QUERY only\n");
    return 2;
  }
  const serve::Request& q = parsed->query;
  const std::string reply = daemon::proto::format_query_response(
      snapshot->lookup(q.addr, q.addr_coverage, q.ping_coverage, q.min_scope));
  std::printf("%s\n", reply.c_str());
  return exit_code(reply);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  try {
    flags = util::Flags::parse(argc, argv);
    flags.reject_unknown("", {"host", "port", "port-file", "udp", "timeout-ms", "local"});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "turtlectl: %s\n", e.what());
    return 2;
  }
  if (flags.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: turtlectl [--host=H] [--port=N | --port-file=F] [--udp]\n"
                 "                 [--timeout-ms=N] [--local=SNAPSHOT]\n"
                 "                 <command> [operand...]\n"
                 "commands: query <addr> [scope=block|as|global] [policy=N]\n"
                 "          stats | version | swap <path> | quit\n");
    return 2;
  }

  // The request line is the positionals joined by single spaces, verb
  // upcased — `query` and `QUERY` are the same command.
  std::string line;
  for (std::size_t i = 0; i < flags.positionals().size(); ++i) {
    if (i > 0) line += ' ';
    line += flags.positionals()[i];
  }
  for (char& c : line) {
    if (c == ' ') break;
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }

  const std::string local_snapshot = flags.get_string("local", "");
  if (!local_snapshot.empty()) return run_local(local_snapshot, line);

  const bool udp = flags.get_bool("udp", false);
  std::uint16_t tcp_port = static_cast<std::uint16_t>(flags.get_int("port", 0));
  std::uint16_t udp_port = tcp_port;
  const std::string port_file = flags.get_string("port-file", "");
  if (!port_file.empty() && !read_port_file(port_file, tcp_port, udp_port)) {
    std::fprintf(stderr, "turtlectl: cannot read ports from %s\n", port_file.c_str());
    return 2;
  }
  const std::uint16_t port = udp ? udp_port : tcp_port;
  if (port == 0) {
    std::fprintf(stderr, "turtlectl: need --port or --port-file\n");
    return 2;
  }

  try {
    Channel channel{flags.get_string("host", "127.0.0.1"), port, udp};
    std::uint64_t timeout_ms =
        static_cast<std::uint64_t>(flags.get_int("timeout-ms", 0));
    if (timeout_ms == 0) {
      // No explicit deadline: ask the oracle for its global recommendation
      // and use that, the way the paper says clients should.
      channel.set_timeout_ms(kBootstrapTimeoutMs);
      const std::string reply =
          channel.round_trip("QUERY 0.0.0.0 scope=global");
      const auto recommended_us = parse_timeout_us(reply);
      timeout_ms = recommended_us.value_or(0) > 0
                       ? std::max<std::uint64_t>(*recommended_us / 1000, 1)
                       : kBootstrapTimeoutMs;
      std::fprintf(stderr, "# timeout from oracle: %llu ms\n",
                   static_cast<unsigned long long>(timeout_ms));
    }
    channel.set_timeout_ms(timeout_ms);
    const std::string reply = channel.round_trip(line);
    std::printf("%s\n", reply.c_str());
    return exit_code(reply);
  } catch (const std::runtime_error& e) {
    return fail(e.what());
  }
}
