// turtled — serve the timeout oracle over TCP/UDP loopback or LAN.
//
//   turtled --snapshot=oracle.snap --tcp-port=4774 --udp-port=4774
//           --metrics-out=daemon_metrics.json
//
// Ports default to 0 (kernel-assigned); pass --port-file so scripts can
// learn the actual bindings. SIGINT/SIGTERM (and the wire QUIT) trigger
// the graceful drain: flush replies, dump metrics, exit 0. An unknown
// flag, or a numeric one that is malformed or out of range, exits 2. See
// src/daemon/PROTOCOL.md for the wire grammar.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
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
  daemon::DaemonConfig config;
  std::string snapshot_path;
  try {
    const util::Flags flags = util::Flags::parse(argc, argv);
    flags.reject_unknown("", {"bind", "tcp-port", "udp-port", "max-connections", "port-file",
                              "metrics-out", "idle-ms", "snapshot"});
    config.bind_addr = flags.get_string("bind", "127.0.0.1");
    config.tcp_port = static_cast<std::uint16_t>(flags.get_int_in("tcp-port", 0, 0, 65535));
    config.udp_port = static_cast<std::uint16_t>(flags.get_int_in("udp-port", 0, 0, 65535));
    config.max_connections = static_cast<std::size_t>(
        flags.get_int_in("max-connections", 1024, 1, std::numeric_limits<std::int64_t>::max()));
    config.port_file = flags.get_string("port-file", "");
    config.metrics_out = flags.get_string("metrics-out", "");
    // At most the largest window whose microseconds fit in uint64_t.
    const std::int64_t idle_ms = flags.get_int_in(
        "idle-ms", 60'000, 1,
        static_cast<std::int64_t>(std::numeric_limits<std::uint64_t>::max() / 1000));
    config.idle_us = static_cast<std::uint64_t>(idle_ms) * 1000;
    snapshot_path = flags.get_string("snapshot", "");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "turtled: %s\n", e.what());
    return 2;
  }

  std::shared_ptr<const serve::OracleSnapshot> snapshot;
  if (!snapshot_path.empty()) {
    std::string error;
    snapshot = serve::OracleSnapshot::map(snapshot_path, &error);
    if (snapshot == nullptr) {
      std::fprintf(stderr, "turtled: cannot load snapshot %s: %s\n",
                   snapshot_path.c_str(), error.c_str());
      return 1;
    }
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
              static_cast<unsigned long long>(daemon.snapshot_version()));
  std::fflush(stdout);
  daemon.run();
  g_daemon = nullptr;
  std::printf("turtled: clean shutdown\n");
  return 0;
}
