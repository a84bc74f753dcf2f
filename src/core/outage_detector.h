// Outage detection with decoupled retransmit / give-up timers.
//
// This is the paper's closing recommendation turned into a reusable
// component: "send another probe after 3 seconds, but continue listening
// for a response to earlier probes" (Section 7). The detector periodically
// checks a set of targets. Each target owns one estimator of the policy;
// at the start of a check its decision fixes the check's timers: probes go
// out `retransmit_after` apart, and an outage is declared only when
// nothing — including late responses to earlier probes — arrives within
// `give_up_after` of the last one. The check's outcome feeds back into the
// estimator (first RTT on a response, a timeout on an outage). Running it
// with a StaticPolicy whose two timers are equal degrades it to the
// conventional Trinocular/Thunderping behaviour, which is what the
// ablation benchmark compares against.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/online_policy.h"
#include "net/icmp.h"
#include "net/ipv4.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace turtle::core {

struct OutageDetectorConfig {
  net::Ipv4Address vantage = net::Ipv4Address::from_octets(192, 0, 2, 9);
  /// How often each target's reachability is checked.
  SimTime check_interval = SimTime::minutes(11);
  /// Number of checks to run per target.
  int rounds = 10;
  /// Probes per check before giving up (first probe + retries).
  int max_probes = 3;
};

/// Outcome of one reachability check of one target.
struct CheckOutcome {
  net::Ipv4Address target;
  std::uint32_t round = 0;
  std::uint32_t probes_sent = 0;
  bool responded = false;        ///< anything arrived before give-up
  bool responded_late = false;   ///< first response beat give-up but not
                                 ///< its own probe's retransmit deadline
  bool declared_outage = false;
  SimTime first_rtt;             ///< valid when responded
  SimTime resolution_time;       ///< when the check concluded
};

/// Aggregates the ablation benchmark reads out.
struct DetectorStats {
  std::uint64_t checks = 0;
  std::uint64_t outages_declared = 0;
  std::uint64_t late_saves = 0;  ///< checks saved by listening past retransmit
  std::uint64_t probes_sent = 0;
  /// Integral of outstanding-probe state over time, in probe-seconds: the
  /// memory cost the paper warns long timeouts carry.
  double state_probe_seconds = 0;
  /// Sum over checks of (resolution - start), for mean detection latency.
  double resolution_seconds = 0;
};

class OutageDetector : public sim::PacketSink {
 public:
  /// `policy` is shared; it must outlive the detector.
  OutageDetector(sim::Simulator& sim, sim::Network& net, OutageDetectorConfig config,
                 const OnlinePolicy& policy);

  /// Begins monitoring. Targets are checked in rounds, staggered across
  /// the check interval so probes do not burst.
  void start(const std::vector<net::Ipv4Address>& targets);

  void deliver(const net::Packet& packet, std::uint32_t copies) override;

  [[nodiscard]] const std::vector<CheckOutcome>& outcomes() const { return outcomes_; }
  [[nodiscard]] DetectorStats stats() const { return stats_; }

  /// Per-destination estimator (null if never probed).
  [[nodiscard]] const OnlineEstimator* estimator(net::Ipv4Address target) const;

 private:
  struct Episode {
    std::uint32_t round = 0;
    SimTime start;
    /// Send time per probe, indexed by ICMP seq. Responses are matched to
    /// the probe that elicited them (the echo reply carries the seq), so
    /// RTT samples do not suffer retry ambiguity (Karn's problem).
    std::vector<SimTime> sends;
    TimeoutDecision decision;
    std::uint32_t probes_sent = 0;
    bool responded = false;
    bool responded_late = false;
    SimTime first_rtt;
    std::uint64_t generation = 0;  ///< invalidates stale timer callbacks
    double sum_send_offsets_s = 0;  ///< Σ (send_i - start), for state cost
  };

  struct TargetState {
    std::unique_ptr<OnlineEstimator> estimator;
    Episode episode;
    bool episode_active = false;
  };

  void begin_check(net::Ipv4Address target, std::uint32_t round);
  void send_probe(net::Ipv4Address target);
  void on_retransmit_timer(net::Ipv4Address target, std::uint64_t generation);
  void on_give_up_timer(net::Ipv4Address target, std::uint64_t generation);
  void conclude(net::Ipv4Address target, TargetState& state);

  sim::Simulator& sim_;
  sim::Network& net_;
  OutageDetectorConfig config_;
  const OnlinePolicy& policy_;

  std::unordered_map<std::uint32_t, TargetState> targets_;
  std::vector<CheckOutcome> outcomes_;
  DetectorStats stats_;
  std::uint16_t icmp_id_ = 0x4F44;  // "OD"
  std::uint64_t next_generation_ = 1;
  bool attached_ = false;
};

}  // namespace turtle::core
