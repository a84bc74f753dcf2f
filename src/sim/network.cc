#include "sim/network.h"

#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace turtle::sim {

Network::Network(Simulator& sim, Config config, util::Prng rng)
    : sim_{sim},
      config_{config},
      rng_{rng},
      packets_sent_{config.registry ? &config.registry->counter("net.packets_sent")
                                    : &fallback_sent_},
      packets_dropped_{config.registry ? &config.registry->counter("net.packets_dropped")
                                       : &fallback_dropped_},
      packets_delivered_{config.registry
                             ? &config.registry->counter("net.packets_delivered")
                             : &fallback_delivered_},
      transit_delay_{config.registry ? &config.registry->histogram("net.transit_delay")
                                     : &fallback_transit_delay_} {
  TURTLE_CHECK(!config_.transit_base.is_negative())
      << "negative transit delay " << config_.transit_base;
  TURTLE_CHECK_GE(config_.core_loss, 0.0);
  TURTLE_CHECK_LE(config_.core_loss, 1.0);
  TURTLE_CHECK_GE(config_.transit_jitter_sigma, 0.0);
}

void Network::set_fault_hook(FaultHook* hook) {
  fault_hook_ = hook;
  if (hook == nullptr) return;
  if (config_.registry != nullptr) {
    fault_dropped_ = &config_.registry->counter("fault.net.dropped_packets");
    fault_delayed_ = &config_.registry->counter("fault.net.delayed_packets");
    fault_copies_ = &config_.registry->counter("fault.net.extra_copies");
  } else {
    fault_dropped_ = &fallback_fault_dropped_;
    fault_delayed_ = &fallback_fault_delayed_;
    fault_copies_ = &fallback_fault_copies_;
  }
}

void Network::attach_endpoint(net::Ipv4Address addr, PacketSink* sink) {
  TURTLE_CHECK(sink != nullptr);
  const auto [it, inserted] = endpoints_.emplace(addr.value(), sink);
  TURTLE_CHECK(inserted || it->second == sink)
      << "endpoint re-attached with a different sink";
}

void Network::send(const net::Packet& packet, std::uint32_t copies) {
  TURTLE_DCHECK_GT(copies, 0u) << "send of an empty packet batch";
  packets_sent_->inc(copies);

  // Fault injection first: an outage swallows the batch before it can
  // resolve, a duplicate storm widens it, a delay spike stretches transit.
  // The applied-side counters here must mirror the injector's own
  // injected-side counters exactly (CI reconciles them).
  SimTime fault_delay{};
  if (fault_hook_ != nullptr) {
    const FaultHook::Action action = fault_hook_->on_send(packet, copies);
    if (action.drop) {
      fault_dropped_->inc(copies);
      packets_dropped_->inc(copies);
      return;
    }
    if (action.extra_copies > 0) {
      fault_copies_->inc(action.extra_copies);
      copies += action.extra_copies;
    }
    if (action.extra_delay > SimTime{}) {
      fault_delayed_->inc();
      fault_delay = action.extra_delay;
    }
  }

  PacketSink* sink = nullptr;
  if (const auto it = endpoints_.find(packet.dst.value()); it != endpoints_.end()) {
    sink = it->second;
  } else if (host_resolver_ != nullptr) {
    sink = host_resolver_->resolve(packet);
  }
  if (sink == nullptr) {
    packets_dropped_->inc(copies);
    return;
  }

  // Core loss: for aggregated copies, thin the batch binomially-ish (cheap
  // approximation: each aggregated burst loses the expected fraction, and
  // single packets are dropped probabilistically).
  std::uint32_t surviving = copies;
  if (config_.core_loss > 0) {
    if (copies == 1) {
      if (rng_.bernoulli(config_.core_loss)) surviving = 0;
    } else {
      surviving = static_cast<std::uint32_t>(
          std::llround(static_cast<double>(copies) * (1.0 - config_.core_loss)));
    }
  }
  if (surviving == 0) {
    packets_dropped_->inc(copies);
    return;
  }
  TURTLE_DCHECK_LE(surviving, copies) << "loss thinning grew the batch";
  packets_dropped_->inc(copies - surviving);

  const double jitter = std::exp(config_.transit_jitter_sigma * rng_.normal());
  const SimTime transit =
      SimTime::from_seconds(config_.transit_base.as_seconds() * jitter) + fault_delay;

  transit_delay_->observe(transit);
  packets_delivered_->inc(surviving);
  const std::uint32_t index = park(Parked{packet, sink, surviving});
  sim_.schedule_after(transit, [this, index] {
    const Parked parked = unpark(index);
    parked.sink->deliver(parked.packet, parked.copies);
  });
}

void Network::send_after(SimTime delay, const net::Packet& packet, std::uint32_t copies) {
  const std::uint32_t index = park(Parked{packet, nullptr, copies});
  sim_.schedule_after(delay, [this, index] {
    const Parked parked = unpark(index);
    send(parked.packet, parked.copies);
  });
}

std::uint32_t Network::park(const Parked& parked) {
  if (free_parked_.empty()) {
    TURTLE_CHECK_LT(parked_.size(),
                    static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()))
        << "more than 2^32 packets in flight";
    parked_.push_back(parked);
    return static_cast<std::uint32_t>(parked_.size() - 1);
  }
  const std::uint32_t index = free_parked_.back();
  free_parked_.pop_back();
  parked_[index] = parked;
  return index;
}

Network::Parked Network::unpark(std::uint32_t index) {
  // A copy, not a reference: delivering may park more packets and grow
  // the slab under it.
  const Parked parked = parked_[index];
  free_parked_.push_back(index);
  return parked;
}

}  // namespace turtle::sim
