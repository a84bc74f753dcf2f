#include "hosts/host.h"

#include <algorithm>
#include <cmath>

#include "net/tcp.h"
#include "net/udp.h"

namespace turtle::hosts {

namespace {

/// Spacing between responses flushed from a radio buffer: the paper saw
/// ~136 buffered responses arrive "over a one second interval".
constexpr SimTime kFlushSpacing = SimTime::millis(7);

}  // namespace

Host::Host(HostContext& ctx, net::Ipv4Address addr, const HostProfile& profile, util::Prng rng)
    : ctx_{ctx}, addr_{addr}, profile_{profile}, rng_{rng} {
  if (profile_.type == HostType::kCellular) {
    cell_ = std::make_unique<CellularState>(profile_.cellular, rng_.fork(1));
  }
  rate_tokens_ = profile_.icmp_rate_burst;
}

void Host::deliver(const net::Packet& packet, std::uint32_t copies) {
  // Copies > 1 can only come from flood sources, which never target hosts;
  // handle them anyway by collapsing to one probe per event.
  for (std::uint32_t i = 0; i < copies; ++i) handle_probe(packet);
}

void Host::handle_probe(const net::Packet& packet) {
  const SimTime now = ctx_.sim.now();

  // A packet whose destination is not this host's address arrived via the
  // subnet broadcast fan-out; it has its own answer probability.
  const double respond_prob =
      packet.dst == addr_ ? profile_.respond_prob : profile_.broadcast_respond_prob;
  if (!rng_.bernoulli(respond_prob)) return;

  const auto delay = access_delay(now);
  if (!delay.has_value()) return;

  switch (packet.protocol) {
    case net::Protocol::kIcmp: {
      const auto msg = net::parse_icmp(packet.payload.view());
      if (!msg.has_value() || !msg->is_echo_request()) return;
      if (profile_.icmp_rate_limit > 0 && !take_rate_token(now)) return;
      reply_icmp_echo(packet, *msg, *delay);
      break;
    }
    case net::Protocol::kUdp:
      reply_udp(packet, *delay);
      break;
    case net::Protocol::kTcp:
      reply_tcp(packet, *delay);
      break;
  }
}

std::optional<SimTime> Host::access_delay(SimTime now) {
  last_probe_buffered_ = false;

  double delay_s = profile_.base_rtt.as_seconds();
  delay_s += profile_.jitter_scale.as_seconds() *
             std::exp(profile_.jitter_sigma * rng_.normal());

  switch (profile_.type) {
    case HostType::kDatacenter:  // episodes configured smaller, same model
    case HostType::kResidential: {
      const auto& p = profile_.residential;
      if (p.episode_prob > 0 && rng_.bernoulli(p.episode_prob)) {
        delay_s += p.episode_median.as_seconds() * std::exp(p.episode_sigma * rng_.normal());
      }
      break;
    }

    case HostType::kSatellite: {
      const auto& p = profile_.satellite;
      const double queue =
          p.queue_median.as_seconds() * std::exp(p.queue_sigma * rng_.normal());
      delay_s += std::min(queue, p.queue_cap.as_seconds());
      break;
    }

    case HostType::kCellular: {
      const auto& p = profile_.cellular;
      CellularState& cell = *cell_;

      // Disconnected radio: buffer (flush at episode end) or lose.
      if (cell.disconnect.on_at(now)) {
        if (!rng_.bernoulli(p.buffer_prob)) return std::nullopt;
        const SimTime episode_end = cell.disconnect.current_on_end();
        if (episode_end != cell.episode_end) {
          cell.episode_end = episode_end;
          cell.buffered_in_episode = 0;
        }
        if (cell.buffered_in_episode >= p.buffer_capacity) return std::nullopt;
        const std::uint32_t position = cell.buffered_in_episode++;
        last_probe_buffered_ = true;
        // Reply goes out when connectivity resumes; radio is then awake.
        const SimTime flush_at = episode_end + kFlushSpacing * position;
        cell.last_activity = std::max(cell.last_activity, flush_at);
        const SimTime total = flush_at - now + SimTime::from_seconds(delay_s);
        return total;
      }

      // Idle radio: wake-up / negotiation delay on the first packet.
      if (p.wakeup_prob > 0 && now - cell.last_activity > p.idle_timeout &&
          rng_.bernoulli(p.wakeup_prob)) {
        const double wake =
            p.wakeup_median.as_seconds() * std::exp(p.wakeup_sigma * rng_.normal());
        delay_s += wake;
      }

      // Congested access link: backlog delay plus loss that grows as the
      // queue deepens (tail drop): at extreme backlogs most probes die,
      // so a surviving >100 s response sits alone among losses — the
      // paper's "high latency between loss" pattern.
      const SimTime backlog = cell.congestion.backlog_at(now);
      const double backlog_s = backlog.as_seconds();
      delay_s += backlog_s;
      if (cell.congestion.loaded() || backlog_s > 1.0) {
        const double loss =
            std::min(0.93, p.congested_loss + 0.68 * std::min(1.0, backlog_s / 100.0));
        if (rng_.bernoulli(loss)) return std::nullopt;
      }

      // The radio stays active from arrival until the reply departs.
      cell.last_activity = std::max(cell.last_activity, now + SimTime::from_seconds(delay_s));
      break;
    }
  }

  return SimTime::from_seconds(delay_s);
}

bool Host::take_rate_token(SimTime now) {
  const double elapsed = (now - rate_last_refill_).as_seconds();
  if (elapsed > 0) {
    rate_tokens_ = std::min(profile_.icmp_rate_burst,
                            rate_tokens_ + elapsed * profile_.icmp_rate_limit);
    rate_last_refill_ = now;
  }
  if (rate_tokens_ < 1.0) return false;
  rate_tokens_ -= 1.0;
  return true;
}

void Host::reply_icmp_echo(const net::Packet& request, const net::IcmpMessage& echo,
                           SimTime delay) {
  net::Packet reply;
  reply.src = addr_;  // own address, even when probed via broadcast
  reply.dst = request.src;
  reply.protocol = net::Protocol::kIcmp;
  reply.ttl = profile_.reply_ttl;
  reply.payload = net::serialize_icmp(net::make_echo_reply(echo));

  std::uint32_t total = 1;
  if (profile_.duplicate_class == 1) {
    // Mild duplication: occasionally 2-4 copies (stays under the analysis
    // pipeline's filter threshold of >4 responses per request).
    if (rng_.bernoulli(profile_.duplicates.mild_prob)) {
      total = static_cast<std::uint32_t>(rng_.uniform_range(2, 4));
    }
  } else if (profile_.duplicate_class >= 2) {
    const auto& d = profile_.duplicates;
    const double raw = rng_.pareto(d.pareto_scale, d.pareto_shape);
    total = static_cast<std::uint32_t>(
        std::clamp(raw, 1.0, static_cast<double>(d.max_responses)));
  }
  if (total <= 1) {
    ctx_.net.send_after(delay, reply);
  } else {
    send_flood(reply, delay, total);
  }
}

void Host::send_flood(const net::Packet& reply, SimTime first_delay, std::uint32_t total) {
  // First response is the genuine one.
  ctx_.net.send_after(first_delay, reply);
  if (total <= 8) {
    // Mild duplication: copies trail the original by milliseconds.
    for (std::uint32_t i = 1; i < total; ++i) {
      ctx_.net.send_after(first_delay + SimTime::millis(20) * i, reply);
    }
    return;
  }
  // Flood: the rest arrive as aggregated chunks at the flood rate so a
  // million-response burst costs a handful of events rather than a million.
  std::uint32_t remaining = total - 1;
  const auto per_chunk = static_cast<std::uint32_t>(
      std::max(1.0, profile_.duplicates.flood_rate));  // one chunk per second
  SimTime at = first_delay;
  while (remaining > 0) {
    const std::uint32_t n = std::min(remaining, per_chunk);
    remaining -= n;
    at += SimTime::seconds(1);
    ctx_.net.send_after(at, reply, n);
  }
}

void Host::reply_udp(const net::Packet& request, SimTime delay) {
  // A closed UDP port answers with ICMP port-unreachable carrying enough
  // of the original datagram for the prober to match it.
  const auto dgram = net::parse_udp(request.payload.view(), request.src, request.dst);
  if (!dgram.has_value()) return;

  net::Packet reply;
  reply.src = addr_;
  reply.dst = request.src;
  reply.protocol = net::Protocol::kIcmp;
  reply.ttl = profile_.reply_ttl;
  reply.payload =
      net::serialize_icmp(net::make_unreachable(request, net::UnreachableCode::kPort));
  ctx_.net.send_after(delay, reply);
}

void Host::reply_tcp(const net::Packet& request, SimTime delay) {
  const auto seg = net::parse_tcp(request.payload.view(), request.src, request.dst);
  if (!seg.has_value()) return;
  // An unexpected ACK (no such connection) elicits a RST, per RFC 793.
  if (!seg->has(net::TcpFlags::kAck) && !seg->has(net::TcpFlags::kSyn)) return;

  net::Packet reply;
  reply.src = addr_;
  reply.dst = request.src;
  reply.protocol = net::Protocol::kTcp;
  reply.ttl = profile_.reply_ttl;
  reply.payload = net::serialize_tcp(net::make_rst_for(*seg), addr_, request.src);
  ctx_.net.send_after(delay, reply);
}

}  // namespace turtle::hosts
