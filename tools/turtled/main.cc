// turtled — serve the timeout oracle over TCP/UDP loopback or LAN.
//
//   turtled --snapshot=oracle.snap --tcp-port=4774 --udp-port=4774 \
//           --metrics-out=daemon_metrics.json
//
// Ports default to 0 (kernel-assigned); pass --port-file so scripts can
// learn the actual bindings. SIGINT/SIGTERM (and the wire QUIT) trigger
// the graceful drain: flush replies, finalize the serve.* ledger, dump
// metrics, exit 0. See src/daemon/PROTOCOL.md for the wire grammar.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "daemon/daemon.h"
#include "serve/oracle_snapshot.h"
#include "util/flags.h"

namespace {

turtle::daemon::Daemon* g_daemon = nullptr;

extern "C" void on_stop_signal(int /*sig*/) {
  if (g_daemon != nullptr) g_daemon->loop().request_stop_from_signal();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turtle;
  util::Flags flags;
  try {
    flags = util::Flags::parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "turtled: %s\n", e.what());
    return 2;
  }

  daemon::DaemonConfig config;
  config.bind_addr = flags.get_string("bind", "127.0.0.1");
  config.tcp_port = static_cast<std::uint16_t>(flags.get_int("tcp-port", 0));
  config.udp_port = static_cast<std::uint16_t>(flags.get_int("udp-port", 0));
  config.max_connections =
      static_cast<std::size_t>(flags.get_int("max-connections", 1024));
  config.port_file = flags.get_string("port-file", "");
  config.metrics_out = flags.get_string("metrics-out", "");
  const std::int64_t idle_ms = flags.get_int("idle-ms", 60'000);
  if (idle_ms <= 0) {
    std::fprintf(stderr, "turtled: --idle-ms must be positive\n");
    return 2;
  }
  config.idle.idle_us = static_cast<std::uint64_t>(idle_ms) * 1000;

  std::shared_ptr<const serve::OracleSnapshot> snapshot;
  const std::string snapshot_path = flags.get_string("snapshot", "");
  if (!snapshot_path.empty()) {
    std::string error;
    snapshot = serve::OracleSnapshot::map(snapshot_path, &error);
    if (snapshot == nullptr) {
      std::fprintf(stderr, "turtled: cannot map snapshot %s: %s\n",
                   snapshot_path.c_str(), error.c_str());
      return 1;
    }
    // Crash recovery prefers remapping the same file.
    config.server.snapshot_path = snapshot_path;
  } else {
    std::fprintf(stderr,
                 "turtled: no --snapshot; serving zero-confidence global "
                 "defaults until a SWAP arrives\n");
  }

  daemon::Daemon daemon{std::move(config), std::move(snapshot)};
  g_daemon = &daemon;
  // A peer that closes mid-reply must surface as EPIPE on the write, not
  // kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, &on_stop_signal);
  std::signal(SIGTERM, &on_stop_signal);

  std::printf("turtled: serving on %s tcp=%u udp=%u (snapshot v%llu)\n",
              daemon.config().bind_addr.c_str(), daemon.tcp_port(), daemon.udp_port(),
              static_cast<unsigned long long>(
                  daemon.server().snapshot() != nullptr ? daemon.server().snapshot()->version()
                                                        : 0));
  std::fflush(stdout);
  daemon.run();
  g_daemon = nullptr;
  std::printf("turtled: clean shutdown\n");
  return 0;
}
