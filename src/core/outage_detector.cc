#include "core/outage_detector.h"

namespace turtle::core {

OutageDetector::OutageDetector(sim::Simulator& sim, sim::Network& net,
                               OutageDetectorConfig config, const OnlinePolicy& policy)
    : sim_{sim}, net_{net}, config_{config}, policy_{policy} {}

void OutageDetector::start(const std::vector<net::Ipv4Address>& targets) {
  if (!attached_) {
    net_.attach_endpoint(config_.vantage, this);
    attached_ = true;
  }
  if (targets.empty()) return;
  const SimTime stagger = config_.check_interval / static_cast<std::int64_t>(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (int round = 0; round < config_.rounds; ++round) {
      const SimTime at = sim_.now() + config_.check_interval * round +
                         stagger * static_cast<std::int64_t>(i);
      const net::Ipv4Address target = targets[i];
      sim_.schedule_at(at, [this, target, round] {
        begin_check(target, static_cast<std::uint32_t>(round));
      });
    }
  }
}

void OutageDetector::begin_check(net::Ipv4Address target, std::uint32_t round) {
  TargetState& state = targets_[target.value()];
  if (state.episode_active) {
    // The previous check never concluded (give-up longer than the check
    // interval would be a configuration error); conclude it as an outage.
    conclude(target, state);
  }
  if (state.estimator == nullptr) state.estimator = policy_.make_estimator();
  Episode& ep = state.episode;
  ep = Episode{};
  ep.round = round;
  ep.start = sim_.now();
  ep.decision = state.estimator->decide();
  ep.generation = next_generation_++;
  state.episode_active = true;

  send_probe(target);
}

void OutageDetector::send_probe(net::Ipv4Address target) {
  TargetState& state = targets_[target.value()];
  Episode& ep = state.episode;

  net::IcmpMessage echo;
  echo.type = net::IcmpType::kEchoRequest;
  echo.id = icmp_id_;
  echo.seq = static_cast<std::uint16_t>(ep.probes_sent);

  net::Packet packet;
  packet.src = config_.vantage;
  packet.dst = target;
  packet.protocol = net::Protocol::kIcmp;
  packet.payload = net::serialize_icmp(echo);

  ep.sends.push_back(sim_.now());
  ep.sum_send_offsets_s += (sim_.now() - ep.start).as_seconds();
  ++ep.probes_sent;
  ++stats_.probes_sent;
  net_.send(packet);

  const std::uint64_t generation = ep.generation;
  if (static_cast<int>(ep.probes_sent) < config_.max_probes) {
    sim_.schedule_after(ep.decision.retransmit_after, [this, target, generation] {
      on_retransmit_timer(target, generation);
    });
  } else {
    sim_.schedule_after(ep.decision.give_up_after, [this, target, generation] {
      on_give_up_timer(target, generation);
    });
  }
}

void OutageDetector::on_retransmit_timer(net::Ipv4Address target, std::uint64_t generation) {
  auto it = targets_.find(target.value());
  if (it == targets_.end()) return;
  TargetState& state = it->second;
  if (!state.episode_active || state.episode.generation != generation) return;
  if (state.episode.responded) return;  // resolved in the meantime
  send_probe(target);
}

void OutageDetector::on_give_up_timer(net::Ipv4Address target, std::uint64_t generation) {
  auto it = targets_.find(target.value());
  if (it == targets_.end()) return;
  TargetState& state = it->second;
  if (!state.episode_active || state.episode.generation != generation) return;
  conclude(target, state);
}

void OutageDetector::deliver(const net::Packet& packet, std::uint32_t copies) {
  (void)copies;
  const auto msg = net::parse_icmp(packet.payload.view());
  if (!msg.has_value() || !msg->is_echo_reply() || msg->id != icmp_id_) return;

  auto it = targets_.find(packet.src.value());
  if (it == targets_.end()) return;
  TargetState& state = it->second;
  if (!state.episode_active || state.episode.responded) return;

  Episode& ep = state.episode;
  ep.responded = true;
  // Match the response to the probe that elicited it via the echoed seq;
  // fall back to the last send for malformed/foreign seq values.
  const std::size_t seq = msg->seq;
  const SimTime send = seq < ep.sends.size() ? ep.sends[seq] : ep.sends.back();
  ep.first_rtt = sim_.now() - send;
  // "Late": this response would have been discarded by a prober whose
  // timeout equals the retransmit deadline.
  ep.responded_late = ep.first_rtt > ep.decision.retransmit_after;
  conclude(packet.src, state);
}

void OutageDetector::conclude(net::Ipv4Address target, TargetState& state) {
  Episode& ep = state.episode;

  CheckOutcome outcome;
  outcome.target = target;
  outcome.round = ep.round;
  outcome.probes_sent = ep.probes_sent;
  outcome.responded = ep.responded;
  outcome.responded_late = ep.responded_late;
  outcome.declared_outage = !ep.responded;
  outcome.first_rtt = ep.first_rtt;
  outcome.resolution_time = sim_.now();
  outcomes_.push_back(outcome);

  ++stats_.checks;
  if (!ep.responded) {
    ++stats_.outages_declared;
    state.estimator->on_timeout();
  } else {
    // Seq matching pairs the response with the probe that elicited it, so
    // the sample is never ambiguous.
    state.estimator->on_rtt(ep.first_rtt, /*retransmitted=*/false);
    if (ep.responded_late) ++stats_.late_saves;
  }
  // Each in-flight probe occupies one entry of prober state from its send
  // until the episode resolves: Σ_i (resolution - send_i).
  stats_.state_probe_seconds +=
      static_cast<double>(ep.probes_sent) * (sim_.now() - ep.start).as_seconds() -
      ep.sum_send_offsets_s;
  stats_.resolution_seconds += (sim_.now() - ep.start).as_seconds();

  state.episode_active = false;
}

const OnlineEstimator* OutageDetector::estimator(net::Ipv4Address target) const {
  const auto it = targets_.find(target.value());
  if (it == targets_.end()) return nullptr;
  return it->second.estimator.get();
}

}  // namespace turtle::core
