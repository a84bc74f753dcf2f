// A simulated end host: the entity whose response latency the paper
// measures. One concrete class driven by a HostProfile; the cellular
// radio / buffering machinery is allocated only for hosts that need it so
// million-host populations stay cheap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "hosts/profile.h"
#include "net/icmp.h"
#include "net/packet.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/prng.h"

namespace turtle::hosts {

/// Shared environment handed to every host (they never own it).
struct HostContext {
  sim::Simulator& sim;
  sim::Network& net;
};

/// A probe-answering end host.
///
/// Latency model per request, composed from the profile:
///   delay = base_rtt + jitter
///         (+ cellular wake-up if the radio is idle)
///         (+ cellular congestion backlog, or residential episode delay,
///            or satellite queueing)
/// plus the "disconnected radio" path where requests are buffered for the
/// rest of the outage and flushed in a burst — the mechanism behind the
/// paper's 100-second-plus RTTs (Section 6.4).
class Host : public sim::PacketSink {
 public:
  Host(HostContext& ctx, net::Ipv4Address addr, const HostProfile& profile, util::Prng rng);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  Host(Host&&) = default;

  /// PacketSink: a packet addressed directly to this host.
  void deliver(const net::Packet& packet, std::uint32_t copies) override;

  /// Entry point used by BroadcastGateway: handle a probe that was sent to
  /// the subnet broadcast address. The reply (if any) carries this host's
  /// own source address, which is what makes broadcast responses
  /// unmatchable for a source-address-based matcher.
  void handle_probe(const net::Packet& packet);

  [[nodiscard]] const HostProfile& profile() const { return profile_; }
  [[nodiscard]] net::Ipv4Address address() const { return addr_; }

  /// True if the host was in a disconnection episode at its last probe
  /// (test/ground-truth hook).
  [[nodiscard]] bool last_probe_buffered() const { return last_probe_buffered_; }

 private:
  /// Additional access delay for a request arriving now, or nullopt when
  /// the request (or its reply) is lost. Updates radio/queue state.
  std::optional<SimTime> access_delay(SimTime now);

  /// Consumes an ICMP rate-limit token; true when the reply may be sent.
  bool take_rate_token(SimTime now);

  void reply_icmp_echo(const net::Packet& request, const net::IcmpMessage& echo, SimTime delay);
  void reply_udp(const net::Packet& request, SimTime delay);
  void reply_tcp(const net::Packet& request, SimTime delay);

  /// Sends `copies` duplicates of an already-built reply spread over time
  /// (flood aggregation for duplicate responders).
  void send_flood(const net::Packet& reply, SimTime first_delay, std::uint32_t total);

  /// Lazily allocated state for cellular hosts only.
  struct CellularState {
    SimTime last_activity = SimTime::seconds(-3600);
    sim::OnOffProcess disconnect;
    sim::BacklogProcess congestion;
    /// Requests buffered during the current disconnection episode.
    std::uint32_t buffered_in_episode = 0;
    SimTime episode_end;  ///< identifies the episode the counter refers to

    CellularState(const CellularParams& params, util::Prng rng)
        : disconnect{params.disconnect, rng.fork(11)},
          congestion{params.congestion, rng.fork(12)} {}
  };

  HostContext& ctx_;
  net::Ipv4Address addr_;
  HostProfile profile_;
  util::Prng rng_;
  std::unique_ptr<CellularState> cell_;

  double rate_tokens_ = 0.0;
  SimTime rate_last_refill_;
  bool last_probe_buffered_ = false;
};

}  // namespace turtle::hosts
