#include "hosts/population.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace turtle::hosts {

namespace {

/// Lognormal helper: median * exp(sigma * N(0,1)).
double lognorm(util::Prng& rng, double median, double sigma) {
  return median * std::exp(sigma * rng.normal());
}

SimTime lognorm_time(util::Prng& rng, SimTime median, double sigma) {
  return SimTime::from_seconds(lognorm(rng, median.as_seconds(), sigma));
}

}  // namespace

Population::Population(HostContext& ctx, const AsCatalog& catalog,
                       const PopulationConfig& config, util::Prng rng)
    : ctx_{ctx}, catalog_{catalog}, config_{config}, geo_{&catalog_} {
  TURTLE_CHECK_GT(config_.num_blocks, 0);
  TURTLE_CHECK_LE(config_.base_network + static_cast<std::uint64_t>(config_.num_blocks),
                  std::uint64_t{1} << 24)
      << "population blocks run past 255.255.255.0/24";
  TURTLE_CHECK_GT(catalog_.size(), 0u) << "population needs at least one AS";
  for (const double p :
       {config_.broadcast_block_prob, config_.subnet_split_prob,
        config_.broadcast_responder_prob, config_.firewall_block_prob,
        config_.router_unreachable_prob, config_.mild_duplicate_prob,
        config_.flood_duplicate_prob, config_.rate_limited_prob}) {
    TURTLE_CHECK_GE(p, 0.0) << "population probability out of [0, 1]";
    TURTLE_CHECK_LE(p, 1.0) << "population probability out of [0, 1]";
  }
  TURTLE_CHECK_GT(config_.severity_scale, 0.0);

  // Distribute blocks to ASes proportionally to weight (largest remainder).
  double total_weight = 0;
  for (const AsTraits& as : catalog_.list()) total_weight += as.block_weight;
  TURTLE_CHECK_GT(total_weight, 0.0) << "AS catalog has no block weight";

  std::vector<int> as_blocks(catalog_.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    const double exact =
        config_.num_blocks * catalog_[i].block_weight / total_weight;
    as_blocks[i] = static_cast<int>(exact);
    assigned += as_blocks[i];
    remainders.emplace_back(exact - as_blocks[i], i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t k = 0; assigned < config_.num_blocks; ++k, ++assigned) {
    ++as_blocks[remainders[k % remainders.size()].second];
  }

  // Interleave AS assignment across the address range so that any sampled
  // sub-range of blocks (a survey picks a contiguous slice) still sees the
  // full AS mix. Round-robin with per-AS quotas.
  block_table_.resize(static_cast<std::size_t>(config_.num_blocks));
  std::vector<int> left = as_blocks;
  std::size_t as_cursor = 0;
  for (int b = 0; b < config_.num_blocks; ++b) {
    while (left[as_cursor % catalog_.size()] == 0) ++as_cursor;
    const std::size_t as_index = as_cursor % catalog_.size();
    --left[as_index];
    ++as_cursor;

    Block& block = block_table_[static_cast<std::size_t>(b)];
    block.prefix = net::Prefix24::from_network(config_.base_network +
                                               static_cast<std::uint32_t>(b));
    block.as_index = static_cast<std::uint32_t>(as_index);
    block.slot.fill(Block::kEmpty);

    geo_.add_block(block.prefix, block.as_index);

    util::Prng block_rng = rng.fork(0x10000u + static_cast<std::uint64_t>(b));
    build_block(block, catalog_[as_index], block_rng);
  }
  stats_.blocks = static_cast<std::uint64_t>(config_.num_blocks);
}

void Population::build_block(Block& block, const AsTraits& as, util::Prng& rng) {
  // Broadcast configuration: .0/.255 always when present; subnet splits
  // add /25 (.127/.128) and occasionally /26 (.63/.64/.191/.192) broadcast
  // addresses — the spike pattern of the paper's Figure 2.
  std::vector<std::uint8_t> broadcast_octets;
  if (config_.enable_broadcast && rng.bernoulli(config_.broadcast_block_prob)) {
    broadcast_octets = {0, 255};
    if (rng.bernoulli(config_.subnet_split_prob)) {
      broadcast_octets.push_back(127);
      broadcast_octets.push_back(128);
      if (rng.bernoulli(0.3)) {
        for (const std::uint8_t o : {63, 64, 191, 192}) broadcast_octets.push_back(o);
      }
    }
    for (const std::uint8_t o : broadcast_octets) {
      block.slot[o] = Block::kBroadcast;
    }
    stats_.broadcast_addresses += broadcast_octets.size();
  }

  // Octets adjacent to a broadcast address host the subnet's gateway-ish
  // devices, which are the likeliest broadcast answerers. This edge
  // preference is what concentrates broadcast false-match latencies at
  // fixed fractions of the round interval (the paper's 165/330/495 s
  // bumps in Figure 6).
  std::array<bool, 256> edge{};
  for (const std::uint8_t o : broadcast_octets) {
    if (o > 0) edge[o - 1] = true;
    if (o < 255) edge[o + 1] = true;
  }

  // Live hosts on the remaining octets (network .0 and .255 are never
  // hosts even when not broadcast-configured).
  std::vector<Host*> block_hosts;
  for (int octet = 1; octet <= 254; ++octet) {
    if (block.slot[octet] == Block::kBroadcast) continue;
    if (!rng.bernoulli(as.responsive_fraction)) continue;

    HostProfile profile = sample_profile(as, rng);
    profile.answers_broadcast =
        rng.bernoulli(edge[octet] ? 0.65 : config_.broadcast_responder_prob * 0.5);
    if (profile.answers_broadcast) {
      // Broadcast answerers are typically infrastructure devices that
      // reply to broadcast reliably but to unicast flakily — the Figure 4
      // ingredient: their own probe times out, then the broadcast-
      // triggered response false-matches at a fixed fraction of the
      // round interval.
      profile.respond_prob *= 0.55;
    }
    const net::Ipv4Address addr = block.prefix.address(static_cast<std::uint8_t>(octet));
    util::Prng host_rng = rng.fork(0x200u + static_cast<std::uint64_t>(octet));
    hosts_.emplace_back(ctx_, addr, profile, host_rng);
    block.slot[octet] = static_cast<std::int32_t>(hosts_.size() - 1);
    block_hosts.push_back(&hosts_.back());

    ++stats_.hosts;
    switch (profile.type) {
      case HostType::kCellular: ++stats_.cellular; break;
      case HostType::kSatellite: ++stats_.satellite; break;
      case HostType::kResidential: ++stats_.residential; break;
      case HostType::kDatacenter: ++stats_.datacenter; break;
    }
    if (profile.duplicate_class >= 2) ++stats_.flood_duplicators;
  }

  // Wire broadcast responders to a gateway.
  if (!broadcast_octets.empty() && !block_hosts.empty()) {
    std::vector<Host*> responders;
    for (Host* h : block_hosts) {
      if (h->profile().answers_broadcast) responders.push_back(h);
    }
    if (responders.empty()) responders.push_back(block_hosts.front());
    stats_.broadcast_responders += responders.size();
    bcast_gateways_.emplace_back(std::move(responders));
    block.broadcast_gateway = static_cast<std::int32_t>(bcast_gateways_.size() - 1);
  } else if (!broadcast_octets.empty()) {
    // A broadcast address with no live hosts answers nothing; unmark.
    for (const std::uint8_t o : broadcast_octets) block.slot[o] = Block::kEmpty;
    stats_.broadcast_addresses -= broadcast_octets.size();
  }

  if (config_.enable_firewalls && rng.bernoulli(config_.firewall_block_prob)) {
    const SimTime rtt = SimTime::from_seconds(lognorm(rng, 0.19, 0.2));
    firewalls_.emplace_back(ctx_, rtt, /*ttl=*/247, rng.fork(0x301));
    block.firewall = static_cast<std::int32_t>(firewalls_.size() - 1);
    ++stats_.firewalled_blocks;
  }

  if (config_.enable_router_unreachables &&
      rng.bernoulli(config_.router_unreachable_prob)) {
    const SimTime rtt = SimTime::from_seconds(lognorm(rng, 0.04, 0.4));
    routers_.emplace_back(ctx_, block.prefix.address(1), rtt, rng.fork(0x302));
    block.router = static_cast<std::int32_t>(routers_.size() - 1);
  }
}

HostProfile Population::sample_profile(const AsTraits& as, util::Prng& rng) const {
  HostProfile p;

  // Host type from the AS mix.
  const double u = rng.uniform();
  TURTLE_DCHECK_LE(as.datacenter_fraction + as.cellular_fraction + as.satellite_fraction,
                   1.0)
      << "AS type fractions exceed 1; residential share would go negative";
  if (u < as.datacenter_fraction) {
    p.type = HostType::kDatacenter;
  } else if (u < as.datacenter_fraction + as.cellular_fraction) {
    p.type = HostType::kCellular;
  } else if (u < as.datacenter_fraction + as.cellular_fraction + as.satellite_fraction) {
    p.type = HostType::kSatellite;
  } else {
    p.type = HostType::kResidential;
  }

  const double sev = as.severity * config_.severity_scale * lognorm(rng, 1.0, 1.1);
  const SimTime offset = as.base_rtt_offset;

  switch (p.type) {
    case HostType::kDatacenter: {
      p.base_rtt = offset + lognorm_time(rng, SimTime::millis(10), 0.5);
      p.jitter_scale = SimTime::millis(1);
      p.jitter_sigma = 0.6;
      p.respond_prob = 0.995;
      auto& r = p.residential;  // datacenter reuses the episode machinery
      r.episode_prob = std::min(0.05, 0.004 * std::exp(1.0 * rng.normal()));
      r.episode_median = lognorm_time(rng, SimTime::millis(90), 0.6);
      r.episode_sigma = 0.8;
      break;
    }

    case HostType::kResidential: {
      p.base_rtt = offset + lognorm_time(rng, SimTime::millis(140), 0.5);
      p.jitter_scale = SimTime::millis(10);
      p.jitter_sigma = 1.0;
      p.respond_prob = 0.97;
      auto& r = p.residential;
      r.episode_prob =
          std::min(0.3, 0.014 * config_.severity_scale * std::exp(1.3 * rng.normal()));
      r.episode_median = lognorm_time(rng, SimTime::millis(380), 0.9);
      r.episode_sigma = 1.1;
      break;
    }

    case HostType::kSatellite: {
      // Geosynchronous floor (~500 ms) plus the provider's characteristic
      // offset; a small minority are buffering terminals that behave like
      // disconnecting radios (the paper's rare 500-second satellite RTTs).
      if (rng.bernoulli(0.02)) {
        p.type = HostType::kCellular;
        p.base_rtt = SimTime::millis(500) + offset + lognorm_time(rng, SimTime::millis(25), 0.5);
        p.jitter_scale = SimTime::millis(10);
        p.jitter_sigma = 0.7;
        p.respond_prob = 0.95;
        auto& c = p.cellular;
        c.wakeup_prob = 0.0;
        c.disconnect.mean_off = SimTime::from_seconds(
            std::max(1200.0, 3600.0 * 3 / std::max(sev, 0.05)));
        c.disconnect.on_median = SimTime::from_seconds(std::clamp(60.0 * sev, 10.0, 900.0));
        c.disconnect.on_sigma = 1.4;
        c.buffer_prob = 0.8;
        c.congestion.episodes.mean_off = SimTime::hours(12);
        break;
      }
      p.base_rtt = SimTime::millis(500) + offset + lognorm_time(rng, SimTime::millis(25), 0.5);
      p.jitter_scale = SimTime::millis(10);
      p.jitter_sigma = 0.7;
      p.respond_prob = 0.96;
      auto& s = p.satellite;
      s.queue_median = lognorm_time(rng, SimTime::millis(130), 0.5);
      s.queue_sigma = 1.15;
      s.queue_cap = as.satellite_queue_cap;
      break;
    }

    case HostType::kCellular: {
      p.base_rtt = offset + lognorm_time(rng, SimTime::millis(110), 0.45);
      p.jitter_scale = SimTime::millis(15);
      p.jitter_sigma = 0.9;
      p.respond_prob = 0.94;
      auto& c = p.cellular;
      c.idle_timeout = SimTime::from_seconds(10.0 + 20.0 * rng.uniform());
      c.wakeup_prob = rng.bernoulli(0.72) ? 1.0 : 0.0;
      c.wakeup_median = lognorm_time(rng, SimTime::millis(1400), 0.3);
      c.wakeup_sigma = 0.75;
      if (c.wakeup_prob == 0.0 && rng.bernoulli(0.75)) {
        // Persistently slow links without the first-ping effect (the
        // paper's ~1/3 of high-median addresses showing no penalty): a
        // 2G-era latency floor rather than a wake-up spike.
        p.base_rtt += lognorm_time(rng, SimTime::millis(950), 0.4);
      }

      c.disconnect.mean_off =
          SimTime::from_seconds(std::max(1800.0, 11 * 3600.0 / std::max(sev, 0.05)));
      c.disconnect.on_median =
          SimTime::from_seconds(std::clamp(40.0 * sev, 5.0, 450.0));
      c.disconnect.on_sigma = 1.4;
      // Most radios buffer a window of packets while disconnected (the
      // decay patterns); a minority hold a single-packet paging buffer,
      // so one probe survives a long outage alone among losses — the
      // paper's rare "high latency between loss" events.
      c.buffer_prob = 0.85;
      c.buffer_capacity = rng.bernoulli(0.12) ? 1 : 256;

      c.congestion.episodes.mean_off =
          SimTime::from_seconds(std::max(1800.0, 4 * 3600.0 / std::max(sev, 0.05)));
      c.congestion.episodes.on_median = SimTime::seconds(180);
      c.congestion.episodes.on_sigma = 1.0;
      c.congestion.fill_rate = std::clamp(0.13 * std::exp(0.7 * rng.normal()), 0.02, 1.0);
      c.congestion.drain_rate = 0.5;
      c.congestion.cap =
          SimTime::from_seconds(std::min(25.0 * std::exp(1.0 * rng.normal()), 150.0));
      c.congested_loss = 0.25;
      break;
    }
  }

  // Cross-cutting features.
  p.reply_ttl = static_cast<std::uint8_t>(64 - rng.uniform_range(5, 25));
  // answers_broadcast is decided by the block builder (edge octets are
  // far likelier responders).
  if (config_.enable_duplicates) {
    const double d = rng.uniform();
    if (d < config_.flood_duplicate_prob) {
      p.duplicate_class = 2;
      // A few flood hosts are genuine DoS reflectors that answer one echo
      // request with up to millions of responses (the paper's red dots:
      // 26 addresses beyond 1M, one near 11M).
      if (rng.bernoulli(0.05)) p.duplicates.pareto_scale = 30'000.0;
    } else if (d < config_.flood_duplicate_prob + config_.mild_duplicate_prob) {
      p.duplicate_class = 1;
    }
  }
  if (config_.enable_rate_limits && rng.bernoulli(config_.rate_limited_prob)) {
    p.icmp_rate_limit = 0.5 + 2.5 * rng.uniform();
    p.icmp_rate_burst = static_cast<double>(rng.uniform_range(2, 8));
  }
  return p;
}

sim::PacketSink* Population::resolve(const net::Packet& packet) {
  const Block* found = block_of(packet.dst);
  if (found == nullptr) return nullptr;
  const Block& block = *found;

  // A firewalled /24 intercepts all TCP, even for live hosts.
  if (packet.protocol == net::Protocol::kTcp && block.firewall >= 0) {
    return &firewalls_[static_cast<std::size_t>(block.firewall)];
  }

  const std::int32_t slot = block.slot[packet.dst.last_octet()];
  if (slot >= 0) return &hosts_[static_cast<std::size_t>(slot)];
  if (slot == Block::kBroadcast && block.broadcast_gateway >= 0) {
    return &bcast_gateways_[static_cast<std::size_t>(block.broadcast_gateway)];
  }
  if (block.router >= 0) return &routers_[static_cast<std::size_t>(block.router)];
  return nullptr;
}

std::vector<net::Prefix24> Population::blocks() const {
  std::vector<net::Prefix24> out;
  out.reserve(block_table_.size());
  for (const Block& b : block_table_) out.push_back(b.prefix);
  return out;
}

const Host* Population::host_at(net::Ipv4Address addr) const {
  const Block* block = block_of(addr);
  if (block == nullptr) return nullptr;
  const std::int32_t slot = block->slot[addr.last_octet()];
  if (slot < 0) return nullptr;
  return &hosts_[static_cast<std::size_t>(slot)];
}

bool Population::is_broadcast_address(net::Ipv4Address addr) const {
  const Block* block = block_of(addr);
  return block != nullptr && block->slot[addr.last_octet()] == Block::kBroadcast &&
         block->broadcast_gateway >= 0;
}

std::vector<net::Ipv4Address> Population::broadcast_responders() const {
  std::vector<net::Ipv4Address> out;
  for (const Block& block : block_table_) {
    if (block.broadcast_gateway < 0) continue;
    for (int octet = 1; octet <= 254; ++octet) {
      const std::int32_t slot = block.slot[octet];
      if (slot >= 0 && hosts_[static_cast<std::size_t>(slot)].profile().answers_broadcast) {
        out.push_back(block.prefix.address(static_cast<std::uint8_t>(octet)));
      }
    }
    // A gateway with no flagged hosts fell back to the first host.
    bool any = false;
    for (int octet = 1; octet <= 254 && !any; ++octet) {
      const std::int32_t slot = block.slot[octet];
      any = slot >= 0 && hosts_[static_cast<std::size_t>(slot)].profile().answers_broadcast;
    }
    if (!any) {
      for (int octet = 1; octet <= 254; ++octet) {
        const std::int32_t slot = block.slot[octet];
        if (slot >= 0) {
          out.push_back(block.prefix.address(static_cast<std::uint8_t>(octet)));
          break;
        }
      }
    }
  }
  return out;
}

std::vector<net::Ipv4Address> Population::responsive_addresses() const {
  std::vector<net::Ipv4Address> out;
  out.reserve(hosts_.size());
  for (const Block& block : block_table_) {
    for (int octet = 1; octet <= 254; ++octet) {
      if (block.slot[octet] >= 0) {
        out.push_back(block.prefix.address(static_cast<std::uint8_t>(octet)));
      }
    }
  }
  return out;
}

}  // namespace turtle::hosts
