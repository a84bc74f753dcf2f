// The simulated Internet's host population.
//
// Builds /24 blocks from the AS catalog, samples a HostProfile per live
// address, wires up broadcast gateways, firewalls, and last-hop routers,
// and serves as the fabric's AddressResolver. Also exposes the ground
// truth (who is cellular, who answers broadcast, who floods) that tests
// and benchmark harnesses validate the *inference* pipeline against —
// the reproduction's substitute for "we looked at the real Internet".
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "hosts/asdb.h"
#include "hosts/gateways.h"
#include "hosts/geodb.h"
#include "hosts/host.h"
#include "net/ipv4.h"
#include "sim/network.h"
#include "util/prng.h"

namespace turtle::hosts {

/// Generation parameters. Defaults reproduce the paper-scale *shape* at a
/// laptop-friendly size; benches scale `num_blocks` as needed.
struct PopulationConfig {
  /// Number of /24 blocks in the universe.
  int num_blocks = 1000;

  /// First /24 network number; blocks are contiguous from here.
  std::uint32_t base_network = 10u << 16;  // 10.0.0.0/8

  /// Probability a block with broadcast-answering configuration exists.
  double broadcast_block_prob = 0.08;
  /// Probability such a block is subnetted into /25s (adds .127/.128
  /// broadcast addresses alongside .0/.255).
  double subnet_split_prob = 0.3;
  /// Per-host probability of answering broadcast pings in such a block.
  double broadcast_responder_prob = 0.12;

  /// Probability a block sits behind a TCP-intercepting firewall.
  double firewall_block_prob = 0.03;
  /// Probability a block's router answers unassigned addresses with
  /// host-unreachable.
  double router_unreachable_prob = 0.08;

  /// Host-level feature rates.
  double mild_duplicate_prob = 0.15;    ///< class-1 duplicators
  double flood_duplicate_prob = 0.0004; ///< class-2 DoS reflectors
  double rate_limited_prob = 0.10;

  /// Global latency-severity multiplier (Figure 9's year-over-year drift
  /// is produced by raising this together with the catalog knobs).
  double severity_scale = 1.0;

  /// Feature toggles so tests can build clean single-mechanism worlds.
  bool enable_broadcast = true;
  bool enable_duplicates = true;
  bool enable_firewalls = true;
  bool enable_router_unreachables = true;
  bool enable_rate_limits = true;
};

/// Summary counts, used by tests and harness logging.
struct PopulationStats {
  std::uint64_t blocks = 0;
  std::uint64_t hosts = 0;
  std::uint64_t cellular = 0;
  std::uint64_t satellite = 0;
  std::uint64_t residential = 0;
  std::uint64_t datacenter = 0;
  std::uint64_t broadcast_responders = 0;
  std::uint64_t flood_duplicators = 0;
  std::uint64_t firewalled_blocks = 0;
  std::uint64_t broadcast_addresses = 0;
};

class Population : public sim::AddressResolver {
 public:
  /// Builds the whole universe. `ctx` must outlive the population.
  Population(HostContext& ctx, const AsCatalog& catalog, const PopulationConfig& config,
             util::Prng rng);

  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;

  // --- fabric interface -------------------------------------------------
  [[nodiscard]] sim::PacketSink* resolve(const net::Packet& packet) override;

  // --- topology ----------------------------------------------------------
  [[nodiscard]] std::vector<net::Prefix24> blocks() const;
  [[nodiscard]] const GeoDatabase& geo() const { return geo_; }
  [[nodiscard]] PopulationStats stats() const { return stats_; }

  // --- ground truth (tests / harness validation) -------------------------
  /// The live host at `addr`, or nullptr.
  [[nodiscard]] const Host* host_at(net::Ipv4Address addr) const;
  /// True when `addr` is a configured subnet broadcast address.
  [[nodiscard]] bool is_broadcast_address(net::Ipv4Address addr) const;
  /// All addresses of hosts configured to answer broadcast pings in a
  /// block that actually has a broadcast gateway.
  [[nodiscard]] std::vector<net::Ipv4Address> broadcast_responders() const;
  /// All live host addresses.
  [[nodiscard]] std::vector<net::Ipv4Address> responsive_addresses() const;

 private:
  /// Per-/24 routing table entry. Slot values >= 0 index `hosts_`;
  /// negatives are the special markers below.
  struct Block {
    static constexpr std::int32_t kEmpty = -1;
    static constexpr std::int32_t kBroadcast = -2;

    net::Prefix24 prefix;
    std::uint32_t as_index = 0;
    std::array<std::int32_t, 256> slot;
    std::int32_t broadcast_gateway = -1;  // index into bcast_gateways_
    std::int32_t firewall = -1;           // index into firewalls_
    std::int32_t router = -1;             // index into routers_
  };

  /// The block holding `addr`, or nullptr outside the population. Blocks
  /// are contiguous from config_.base_network, so the /24 network number
  /// minus the base indexes block_table_ (below the base it wraps past the
  /// end).
  [[nodiscard]] const Block* block_of(net::Ipv4Address addr) const {
    const std::uint32_t index = (addr.value() >> 8) - config_.base_network;
    return index < block_table_.size() ? &block_table_[index] : nullptr;
  }

  [[nodiscard]] HostProfile sample_profile(const AsTraits& as, util::Prng& rng) const;
  void build_block(Block& block, const AsTraits& as, util::Prng& rng);

  HostContext& ctx_;
  const AsCatalog& catalog_;
  PopulationConfig config_;
  GeoDatabase geo_;

  std::vector<Block> block_table_;  ///< indexed by network - base_network
  // Deques: stable addresses (gateways keep Host*), no realloc moves.
  std::deque<Host> hosts_;
  std::deque<BroadcastGateway> bcast_gateways_;
  std::deque<FirewallSink> firewalls_;
  std::deque<RouterSink> routers_;

  PopulationStats stats_;
};

}  // namespace turtle::hosts
