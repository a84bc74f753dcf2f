// The simulated network fabric connecting probers to the host population.
//
// Responsibilities: resolve a destination address to an attached endpoint,
// apply per-leg transit delay and loss, and deliver the packet as a
// simulator event. Host-specific behaviour (radio wake-up, buffering,
// broadcast fan-out) lives behind the PacketSink interface in the hosts
// module; the fabric stays dumb on purpose.
//
// A packet waiting on an event — in transit, or a reply a host holds back
// for its access delay (send_after) — is parked in a free-listed slab
// owned by the fabric, and the event's closure captures the slot index.
// An 88-byte Packet captured by value would overflow the event queue's
// 48-byte inline callback and cost an allocation per packet; the slab
// grows to the most packets ever in flight at once and is reused after.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/prng.h"
#include "util/sim_time.h"

namespace turtle::sim {

/// Anything that can receive packets from the fabric: a host, a block
/// gateway, or a prober's receive path.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Called when a packet arrives at this endpoint. `copies` > 1 is an
  /// aggregation of identical simultaneous packets (used by flood sources
  /// so a million-response DoS burst does not need a million events).
  virtual void deliver(const net::Packet& packet, std::uint32_t copies) = 0;
};

/// Fault-injection hook consulted once per Network::send. The fabric stays
/// dumb: it asks "what happens to this packet?" and applies the verdict,
/// while the policy (which faults are active, which prefixes they hit,
/// what the PRNG draws) lives in turtle::fault::FaultInjector. Keeping the
/// interface here avoids a sim -> fault dependency.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// What the active faults do to one send.
  struct Action {
    bool drop = false;             ///< swallow the whole batch
    SimTime extra_delay{};         ///< added on top of normal transit
    std::uint32_t extra_copies = 0;  ///< duplicates added to the batch
  };

  /// Must be deterministic in (packet, copies, simulated time, hook
  /// state): the Network calls it in event order, which is identical
  /// across --jobs values.
  [[nodiscard]] virtual Action on_send(const net::Packet& packet, std::uint32_t copies) = 0;
};

/// Maps a packet to its destination endpoint. Implemented by the host
/// population's table; returns nullptr for unassigned addresses (the
/// packet silently disappears, like a probe to dark space). The whole
/// packet is passed because routing can depend on protocol: a firewalled
/// /24 intercepts TCP while ICMP reaches the host.
class AddressResolver {
 public:
  virtual ~AddressResolver() = default;
  [[nodiscard]] virtual PacketSink* resolve(const net::Packet& packet) = 0;
};

/// The fabric. One instance per simulation.
class Network {
 public:
  struct Config {
    /// One-way transit delay between a prober and any host's access link
    /// (the wide-area core; access-specific delay belongs to the host).
    SimTime transit_base = SimTime::millis(5);
    /// Lognormal jitter sigma applied multiplicatively to transit_base.
    double transit_jitter_sigma = 0.15;
    /// Per-leg loss probability in the core (access loss is the host's).
    double core_loss = 0.002;
    /// Optional metrics sink ("net.packets_*" counters plus the
    /// "net.transit_delay" per-leg delay histogram). Usually the owning
    /// World's registry; private counters keep the accessors working
    /// when absent.
    obs::Registry* registry = nullptr;
  };

  Network(Simulator& sim, Config config, util::Prng rng);

  /// Registers the resolver for the host population. Must outlive the
  /// network. Called once during setup.
  void set_host_resolver(AddressResolver* resolver) { host_resolver_ = resolver; }

  /// Installs (or clears, with nullptr) the fault-injection hook. The
  /// hook must outlive the network. The "fault.net.*" counters record
  /// what the fabric actually applied, as the cross-check against the
  /// injector's own "fault.injected.*" counters.
  void set_fault_hook(FaultHook* hook);

  /// Attaches a prober endpoint (vantage point) at a specific address.
  /// Packets destined to `addr` are delivered to `sink`.
  void attach_endpoint(net::Ipv4Address addr, PacketSink* sink);

  /// Sends a packet into the fabric at the current simulated time. The
  /// packet is delivered to the resolved endpoint after transit delay,
  /// or dropped (loss / unresolvable destination).
  void send(const net::Packet& packet, std::uint32_t copies = 1);

  /// send(packet, copies) `delay` from now: the packet waits in the slab,
  /// not in the event's closure. What a host uses to reply after its
  /// access delay.
  void send_after(SimTime delay, const net::Packet& packet, std::uint32_t copies = 1);

  /// Counters for sanity checks and the response-rate plots. Thin shims
  /// over the registry metrics.
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_->value(); }
  [[nodiscard]] std::uint64_t packets_dropped() const { return packets_dropped_->value(); }
  [[nodiscard]] std::uint64_t packets_delivered() const {
    return packets_delivered_->value();
  }

  [[nodiscard]] Simulator& simulator() { return sim_; }

 private:
  /// A packet waiting on an event. `sink` is where it is delivered, or
  /// nullptr for a send_after packet that has yet to be sent.
  struct Parked {
    net::Packet packet;
    PacketSink* sink = nullptr;
    std::uint32_t copies = 0;
  };

  /// Stores `parked` in a free slot and returns the slot's index.
  [[nodiscard]] std::uint32_t park(const Parked& parked);
  /// Frees slot `index` and returns what it held.
  [[nodiscard]] Parked unpark(std::uint32_t index);

  Simulator& sim_;
  Config config_;
  util::Prng rng_;
  AddressResolver* host_resolver_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  std::map<std::uint32_t, PacketSink*> endpoints_;
  std::vector<Parked> parked_;                ///< slab of packets in flight
  std::vector<std::uint32_t> free_parked_;    ///< parked_ slots ready for reuse

  // Applied-fault counters, bound when a hook is installed (cold path;
  // faultless runs never create them, keeping metrics dumps unchanged).
  obs::Counter fallback_fault_dropped_;
  obs::Counter fallback_fault_delayed_;
  obs::Counter fallback_fault_copies_;
  obs::Counter* fault_dropped_ = nullptr;   ///< "fault.net.dropped_packets"
  obs::Counter* fault_delayed_ = nullptr;   ///< "fault.net.delayed_packets"
  obs::Counter* fault_copies_ = nullptr;    ///< "fault.net.extra_copies"

  obs::Counter fallback_sent_;
  obs::Counter fallback_dropped_;
  obs::Counter fallback_delivered_;
  obs::Histogram fallback_transit_delay_;
  obs::Counter* packets_sent_;         ///< "net.packets_sent"
  obs::Counter* packets_dropped_;      ///< "net.packets_dropped"
  obs::Counter* packets_delivered_;    ///< "net.packets_delivered"
  obs::Histogram* transit_delay_;      ///< "net.transit_delay"
};

}  // namespace turtle::sim
