// Timeout policies: how long to wait for a probe response.
//
// The paper's conclusion in API form. A policy answers two questions for a
// destination: when to send a follow-up probe (responsiveness) and how
// long to keep listening before writing the probe off as lost
// (correctness). Conflating the two — the conventional single "timeout" —
// is exactly the mistake the paper documents.
//
// An OnlinePolicy is a *factory* for per-destination estimator state that
// learns one observation at a time, whether the caller is the outage
// detector, the serve path or the tournament. Jain ("Divergence of Timeout
// Algorithms for Packet Retransmissions") shows adaptive estimators can
// diverge exactly when conditions degrade, because a timeout that triggers
// retransmission contaminates the next RTT sample with the wait it caused.
// What separates the policies is that feedback, and it lives in the
// per-destination state:
//
//   * StaticPolicy — a fixed retransmit/give-up pair that ignores every
//     observation: the conventional fixed timeout (retransmit == give-up)
//     or the paper's Section 7 rule, "probe again after ~3 s, keep
//     listening ~60 s".
//   * QuantileAdaptivePolicy — retransmit at 1.5x the destination's P²
//     p99, learned only from unambiguous samples; full 60 s give-up.
//   * JacobsonKarnPolicy — TCP's answer: RFC 6298 SRTT+RTTVAR with
//     clamping, exponential backoff on loss, and Karn's rule (ambiguous
//     samples never update the estimator). Without a listen window it is
//     single-timer — retransmit and give up at the RTO, the conflation the
//     paper documents; a listen window keeps listening past the RTO.
//   * EwmaVariancePolicy — the common "simple adaptive" design: EWMA mean
//     and variance, timeout at mean + 4 sigma, no Karn handling and no
//     backoff. The tournament quantifies what that costs under adversity.
//   * CusumQuantilePolicy — the paper-aligned design: a P² p99 tracker
//     with CUSUM level-shift detection that resets the quantile state when
//     the latency regime moves (a stale quantile is worse than a cold
//     one), and dual-timer semantics — retransmit adaptively, but keep
//     listening the full give-up window so surprisingly high delay is not
//     misread as loss.
//
// Estimators are plain value state — no clocks, no randomness — so a
// shard's estimator stream is byte-identical across --jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/sim_time.h"

namespace turtle::core {

/// What a policy prescribes for one probe to one destination.
struct TimeoutDecision {
  /// Send a follow-up probe if no response by then.
  SimTime retransmit_after;
  /// Treat the probe as lost only after this much total waiting; late
  /// responses inside this window still count as reachability evidence.
  SimTime give_up_after;
};

/// Per-destination state: fed ground-truth observations, asked for a
/// TimeoutDecision before each probe. A fresh estimator returns the
/// policy's cold-start decision.
class OnlineEstimator {
 public:
  virtual ~OnlineEstimator() = default;

  /// A response was observed `rtt` after the first probe. `retransmitted`
  /// marks a response whose probe had been retransmitted before it
  /// arrived: the pairing is ambiguous, and Karn-aware estimators must not
  /// learn from it.
  virtual void on_rtt(SimTime rtt, bool retransmitted) = 0;
  /// The probe expired with no response at all.
  virtual void on_timeout() = 0;

  /// Current retransmit/give-up prescription for this destination.
  [[nodiscard]] virtual TimeoutDecision decide() const = 0;

  /// Response observations folded in (Karn-excluded ones included).
  [[nodiscard]] virtual std::uint64_t samples() const = 0;
  /// Latency level shifts detected (CUSUM estimators; 0 elsewhere).
  [[nodiscard]] virtual std::uint64_t level_shifts() const { return 0; }
};

/// Factory + identity for one timeout policy.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  [[nodiscard]] virtual std::unique_ptr<OnlineEstimator> make_estimator() const = 0;
  /// Stable, metric-key-safe name ([a-z0-9_]): becomes part of the
  /// policy.* counter namespace and the tournament's JSON matrix keys.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// A fixed {retransmit, give_up} pair, whatever the destination does. The
/// conventional timeout (Trinocular/Thunderping-style 3 s, iPlane-style
/// 2 s, RIPE-Atlas-style 1 s) sets both to the same instant; the paper's
/// Section 7 recommendation is {3 s, 60 s}.
class StaticPolicy final : public OnlinePolicy {
 public:
  StaticPolicy(SimTime retransmit, SimTime give_up);

  [[nodiscard]] std::unique_ptr<OnlineEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  TimeoutDecision decision_;
};

/// Retransmit at 1.5x the destination's P² p99 (clamped to [500 ms,
/// 60 s]), keep listening 60 s. Below 5 unambiguous samples the P²
/// markers are raw order statistics, not quantile estimates, so the
/// decision stays at the cold-start {3 s, 60 s}.
class QuantileAdaptivePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::unique_ptr<OnlineEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;
};

/// TCP's estimator: decides {rto, max(rto, listen)}. The default zero
/// `listen` is TCP's single timer; a 60 s listen is RFC 6298 retransmission
/// under the paper's give-up window. `karn = false` builds the naive
/// variant that learns from ambiguous retransmitted samples and never backs
/// off — Jain's divergence case, kept as a regression fixture and
/// tournament strawman ("jacobson_naive").
class JacobsonKarnPolicy final : public OnlinePolicy {
 public:
  explicit JacobsonKarnPolicy(bool karn = true, SimTime listen = SimTime{})
      : karn_{karn}, listen_{listen} {}

  [[nodiscard]] std::unique_ptr<OnlineEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;

 private:
  bool karn_;
  SimTime listen_;
};

/// EWMA mean + variance (gain 1/8); single-timer timeout at
/// mean + 4 sqrt(var), clamped to [500 ms, 60 s].
class EwmaVariancePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::unique_ptr<OnlineEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;
};

/// CUSUM/percentile tracking with dual-timer semantics: retransmit at
/// max(1.5x p99, EWMA mean + 4 dev) clamped to [500 ms, 60 s], give up at
/// 60 s.
class CusumQuantilePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::unique_ptr<OnlineEstimator> make_estimator() const override;
  [[nodiscard]] std::string name() const override;
};

}  // namespace turtle::core
