#include "hosts/gateways.h"

#include <cmath>

#include "net/icmp.h"
#include "net/tcp.h"

namespace turtle::hosts {

void FirewallSink::deliver(const net::Packet& packet, std::uint32_t copies) {
  if (packet.protocol != net::Protocol::kTcp) return;
  const auto seg = net::parse_tcp(packet.payload.view(), packet.src, packet.dst);
  if (!seg.has_value()) return;

  net::Packet reply;
  // The RST is forged on behalf of the probed address; what betrays the
  // firewall is the uniform TTL across the whole /24 plus the tight RTT.
  reply.src = packet.dst;
  reply.dst = packet.src;
  reply.protocol = net::Protocol::kTcp;
  reply.ttl = ttl_;
  reply.payload = net::serialize_tcp(net::make_rst_for(*seg), packet.dst, packet.src);

  const double jitter = std::exp(0.05 * rng_.normal());
  const SimTime delay = SimTime::from_seconds(rtt_.as_seconds() * jitter);
  for (std::uint32_t i = 0; i < copies; ++i) {
    ctx_.net.send_after(delay, reply);
  }
}

void RouterSink::deliver(const net::Packet& packet, std::uint32_t copies) {
  net::Packet reply;
  reply.src = router_addr_;
  reply.dst = packet.src;
  reply.protocol = net::Protocol::kIcmp;
  reply.ttl = 250;
  reply.payload =
      net::serialize_icmp(net::make_unreachable(packet, net::UnreachableCode::kHost));

  const double jitter = std::exp(0.1 * rng_.normal());
  const SimTime delay = SimTime::from_seconds(rtt_.as_seconds() * jitter);
  for (std::uint32_t i = 0; i < copies; ++i) {
    ctx_.net.send_after(delay, reply);
  }
}

}  // namespace turtle::hosts
