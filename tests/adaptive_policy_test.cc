// turtle::core timeout policies — RFC 6298 §5.5 backoff and Karn's rule
// on RttEstimator, the Jain divergence regression (naive diverges, Karn
// stays bounded), the static, quantile-adaptive and RFC 6298 decisions
// (cold starts, clamps, Karn exclusion, retransmit <= give-up), and
// convergence of the tournament's online estimators on uniform, lognormal,
// and bimodal delay distributions.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_policy.h"
#include "core/rtt_estimator.h"
#include "util/prng.h"

namespace turtle {
namespace {

using core::CusumQuantilePolicy;
using core::EwmaVariancePolicy;
using core::JacobsonKarnPolicy;
using core::OnlineEstimator;
using core::OnlinePolicy;
using core::QuantileAdaptivePolicy;
using core::RttEstimator;
using core::StaticPolicy;
using core::TimeoutDecision;

// ---------------------------------------------------------------------------
// RttEstimator: §5.5 backoff and Karn exclusion
// ---------------------------------------------------------------------------

TEST(RttEstimator, LossBacksOffRtoUntilUnambiguousSample) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) est.add_sample(SimTime::millis(100));
  // Stable 100 ms samples: RTO sits on the RFC 6298 1 s floor.
  EXPECT_EQ(est.rto(), SimTime::seconds(1));
  EXPECT_EQ(est.backoff_shift(), 0);

  est.add_loss();
  EXPECT_EQ(est.backoff_shift(), 1);
  EXPECT_EQ(est.rto(), SimTime::seconds(2));
  est.add_loss();
  est.add_loss();
  EXPECT_EQ(est.rto(), SimTime::seconds(8));

  // The shift saturates at kMaxBackoffShift and the RTO at the ceiling.
  for (int i = 0; i < 20; ++i) est.add_loss();
  EXPECT_EQ(est.backoff_shift(), RttEstimator::kMaxBackoffShift);
  EXPECT_EQ(est.rto(), SimTime::seconds(60));
  EXPECT_EQ(est.losses(), 23u);

  // One unambiguous sample clears the backoff entirely.
  est.add_sample(SimTime::millis(100));
  EXPECT_EQ(est.backoff_shift(), 0);
  EXPECT_EQ(est.rto(), SimTime::seconds(1));
}

TEST(RttEstimator, KarnExcludesAmbiguousSamples) {
  RttEstimator est;
  est.add_sample(SimTime::seconds(1));
  // A huge ambiguous sample changes nothing but the exclusion counter.
  est.add_sample(SimTime::seconds(100), /*retransmitted=*/true);
  EXPECT_EQ(est.samples(), 1u);
  EXPECT_EQ(est.karn_excluded(), 1u);
  EXPECT_NEAR(est.srtt().as_seconds(), 1.0, 1e-9);
}

TEST(RttEstimator, AmbiguousSampleDoesNotClearBackoff) {
  RttEstimator est;
  est.add_sample(SimTime::seconds(1));
  est.add_loss();
  const SimTime backed_off = est.rto();
  EXPECT_EQ(est.backoff_shift(), 1);
  // The retransmission's own (ambiguous) sample must not reset the shift —
  // that is exactly the feedback path Karn's rule severs.
  est.add_sample(SimTime::seconds(1), /*retransmitted=*/true);
  EXPECT_EQ(est.backoff_shift(), 1);
  EXPECT_EQ(est.rto(), backed_off);
  est.add_sample(SimTime::seconds(1));
  EXPECT_EQ(est.backoff_shift(), 0);
  EXPECT_LT(est.rto(), backed_off);
}

// The Jain divergence scenario: every other probe loses its first copy, so
// its response answers the retransmission sent after the current RTO. A
// naive estimator measures that sample from the first send — learning its
// own wait — and the RTO feeds back on itself until it pins the 60 s
// ceiling. Karn's rule drops the ambiguous sample and backs off instead,
// so the estimate stays anchored to the true RTT.
TEST(RttEstimator, JainScenarioNaiveDivergesKarnStaysBounded) {
  constexpr double kTrueRttS = 0.5;
  RttEstimator naive;
  RttEstimator karn;
  for (int i = 0; i < 300; ++i) {
    const bool first_copy_lost = (i % 2) == 0;
    {
      const double wait = naive.rto().as_seconds();
      // Naive: measures the retransmitted exchange from the first send and
      // learns the inflated sample as if it were clean.
      naive.add_sample(SimTime::from_seconds(first_copy_lost ? wait + kTrueRttS
                                                             : kTrueRttS));
    }
    {
      const double wait = karn.rto().as_seconds();
      if (first_copy_lost) {
        karn.add_loss();
        karn.add_sample(SimTime::from_seconds(wait + kTrueRttS),
                        /*retransmitted=*/true);
      } else {
        karn.add_sample(SimTime::from_seconds(kTrueRttS));
      }
    }
  }
  // Naive has diverged into the ceiling; Karn stays within one backoff
  // doubling of the true-RTT-derived RTO.
  EXPECT_EQ(naive.rto(), SimTime::seconds(60));
  EXPECT_LE(karn.rto(), SimTime::seconds(4));
  EXPECT_EQ(karn.karn_excluded(), 150u);
}

// ---------------------------------------------------------------------------
// Static, quantile-adaptive and RFC 6298 decisions: cold start, clamps,
// Karn exclusion
// ---------------------------------------------------------------------------

/// A fresh estimator of `policy` after `count` copies of one observation.
std::unique_ptr<OnlineEstimator> estimator_after(const OnlinePolicy& policy, int count,
                                                 SimTime rtt, bool retransmitted = false) {
  auto est = policy.make_estimator();
  for (int i = 0; i < count; ++i) est->on_rtt(rtt, retransmitted);
  return est;
}

TEST(TimeoutPolicy, FixedConflatesBothTimers) {
  const StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(3)};
  EXPECT_EQ(policy.name(), "static_3000ms_3000ms");
  // Static timers ignore what they observe, but still count it.
  for (const int count : {0, 5}) {
    const auto est = estimator_after(policy, count, SimTime::seconds(10));
    const TimeoutDecision d = est->decide();
    EXPECT_EQ(d.retransmit_after, SimTime::seconds(3));
    EXPECT_EQ(d.give_up_after, SimTime::seconds(3));
    EXPECT_EQ(est->samples(), static_cast<std::uint64_t>(count));
  }
}

TEST(TimeoutPolicy, ListenLongerSeparatesTimers) {
  const StaticPolicy policy{SimTime::seconds(3), SimTime::seconds(60)};
  EXPECT_EQ(policy.name(), "static_3000ms_60000ms");
  for (const int count : {0, 5}) {
    const TimeoutDecision d = estimator_after(policy, count, SimTime::seconds(10))->decide();
    EXPECT_EQ(d.retransmit_after, SimTime::seconds(3));
    EXPECT_EQ(d.give_up_after, SimTime::seconds(60));
  }
}

TEST(TimeoutPolicy, QuantileAdaptiveColdStart) {
  const QuantileAdaptivePolicy policy;
  EXPECT_EQ(policy.name(), "quantile_p99");
  const TimeoutDecision d = policy.make_estimator()->decide();
  EXPECT_EQ(d.retransmit_after, SimTime::seconds(3));
  EXPECT_EQ(d.give_up_after, SimTime::seconds(60));

  const auto sparse = estimator_after(policy, 1, SimTime::millis(100));
  EXPECT_EQ(sparse->decide().retransmit_after, SimTime::seconds(3));
}

TEST(TimeoutPolicy, QuantileAdaptiveScalesP99) {
  const QuantileAdaptivePolicy policy;
  const TimeoutDecision d = estimator_after(policy, 1000, SimTime::seconds(1))->decide();
  EXPECT_EQ(d.retransmit_after, SimTime::millis(1500));
  EXPECT_EQ(d.give_up_after, SimTime::seconds(60));
}

TEST(TimeoutPolicy, QuantileAdaptiveClampsToFloorAndGiveUp) {
  const QuantileAdaptivePolicy policy;
  EXPECT_EQ(estimator_after(policy, 100, SimTime::millis(10))->decide().retransmit_after,
            SimTime::millis(500));
  const TimeoutDecision slow = estimator_after(policy, 100, SimTime::seconds(100))->decide();
  EXPECT_EQ(slow.retransmit_after, SimTime::seconds(60));
  EXPECT_EQ(slow.give_up_after, SimTime::seconds(60));
}

TEST(TimeoutPolicy, QuantileAdaptiveColdStartBelowFiveSamples) {
  const QuantileAdaptivePolicy policy;
  // Below 5 unambiguous samples the P² markers are order statistics, not
  // quantiles: the decision stays at the cold-start {3 s, 60 s}.
  const auto est = estimator_after(policy, 4, SimTime::millis(10));
  EXPECT_EQ(est->decide().retransmit_after, SimTime::seconds(3));
  EXPECT_EQ(est->decide().give_up_after, SimTime::seconds(60));
  est->on_rtt(SimTime::millis(10), false);
  // Warm now: 1.5 x p99 of 10 ms is far below the 500 ms floor.
  EXPECT_EQ(est->decide().retransmit_after, SimTime::millis(500));
}

TEST(TimeoutPolicy, QuantileAdaptiveKarnExcludedSamplesStayCold) {
  const QuantileAdaptivePolicy policy;
  // Ambiguous samples never reach the quantile tracker, so the policy
  // must keep treating the destination as cold.
  const auto est = estimator_after(policy, 10, SimTime::millis(10), /*retransmitted=*/true);
  EXPECT_EQ(est->samples(), 10u);
  EXPECT_EQ(est->decide().retransmit_after, SimTime::seconds(3));
}

TEST(TimeoutPolicy, QuantileAdaptiveGiveUpBoundsRetransmitAlways) {
  // The invariant retransmit_after <= give_up_after holds for every policy,
  // cold, floored, capped and backed off.
  const std::vector<std::shared_ptr<const OnlinePolicy>> roster{
      std::make_shared<StaticPolicy>(SimTime::seconds(3), SimTime::seconds(3)),
      std::make_shared<StaticPolicy>(SimTime::seconds(3), SimTime::seconds(60)),
      std::make_shared<QuantileAdaptivePolicy>(),
      std::make_shared<JacobsonKarnPolicy>(),
      std::make_shared<JacobsonKarnPolicy>(/*karn=*/true, SimTime::seconds(60)),
      std::make_shared<EwmaVariancePolicy>(),
      std::make_shared<CusumQuantilePolicy>(),
  };
  for (const auto& policy : roster) {
    for (const SimTime rtt : {SimTime::millis(1), SimTime::seconds(100)}) {
      const auto est = estimator_after(*policy, 100, rtt);
      const TimeoutDecision warm = est->decide();
      EXPECT_LE(warm.retransmit_after, warm.give_up_after) << policy->name();
      for (int i = 0; i < 10; ++i) est->on_timeout();
      const TimeoutDecision backed_off = est->decide();
      EXPECT_LE(backed_off.retransmit_after, backed_off.give_up_after) << policy->name();
    }
    const TimeoutDecision cold = policy->make_estimator()->decide();
    EXPECT_LE(cold.retransmit_after, cold.give_up_after) << policy->name();
  }
}

TEST(TimeoutPolicy, Rfc6298UsesEstimator) {
  const JacobsonKarnPolicy policy{/*karn=*/true, SimTime::seconds(60)};
  EXPECT_EQ(policy.name(), "jacobson_karn_listen_60000ms");
  const TimeoutDecision cold = policy.make_estimator()->decide();
  EXPECT_EQ(cold.retransmit_after, SimTime::seconds(3));
  EXPECT_EQ(cold.give_up_after, SimTime::seconds(60));
  // srtt + 4 rttvar = 2 + 4 x 1 = 6 s; the listen window keeps listening
  // past the RTO.
  const TimeoutDecision d = estimator_after(policy, 1, SimTime::seconds(2))->decide();
  EXPECT_EQ(d.retransmit_after, SimTime::seconds(6));
  EXPECT_EQ(d.give_up_after, SimTime::seconds(60));
}

// ---------------------------------------------------------------------------
// Decisions of the tournament's single-timer and CUSUM estimators
// ---------------------------------------------------------------------------

TEST(OnlineEstimators, DecisionTable) {
  struct Case {
    const char* what;
    std::shared_ptr<const OnlinePolicy> policy;
    int samples;  // 2 s RTTs fed before deciding
    TimeoutDecision expected;
  };
  const auto s = [](std::int64_t seconds) { return SimTime::seconds(seconds); };
  const std::vector<Case> cases{
      // Without a listen window the RFC 6298 RTO (2 + 4 x 1 = 6 s) is both
      // timers.
      {"jacobson single timer", std::make_shared<JacobsonKarnPolicy>(), 1, {s(6), s(6)}},
      {"ewma cold", std::make_shared<EwmaVariancePolicy>(), 0, {s(3), s(3)}},
      {"cusum cold", std::make_shared<CusumQuantilePolicy>(), 0, {s(3), s(60)}},
  };

  for (const Case& c : cases) {
    const auto est = estimator_after(*c.policy, c.samples, s(2));
    const TimeoutDecision decision = est->decide();
    EXPECT_EQ(decision.retransmit_after, c.expected.retransmit_after) << c.what;
    EXPECT_EQ(decision.give_up_after, c.expected.give_up_after) << c.what;
    EXPECT_EQ(est->samples(), static_cast<std::uint64_t>(c.samples)) << c.what;
    // Names become metric keys.
    const std::string name = c.policy->name();
    EXPECT_TRUE(std::ranges::all_of(name, [](char ch) {
      return (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch == '_';
    })) << name;
  }
}

// ---------------------------------------------------------------------------
// Online estimator convergence across delay distributions
// ---------------------------------------------------------------------------

std::vector<std::unique_ptr<OnlinePolicy>> tournament_roster() {
  std::vector<std::unique_ptr<OnlinePolicy>> roster;
  roster.push_back(std::make_unique<JacobsonKarnPolicy>());
  roster.push_back(std::make_unique<EwmaVariancePolicy>());
  roster.push_back(std::make_unique<CusumQuantilePolicy>());
  return roster;
}

/// Feeds 5000 draws of `sample_s(rng)` to a fresh estimator of each
/// tournament policy and asserts the converged retransmit bound lands in
/// [min_s, max_s] with the give-up invariant intact.
template <typename Gen>
void expect_all_converge(Gen sample_s, double min_s, double max_s) {
  for (const auto& policy : tournament_roster()) {
    util::Prng rng{123};
    const auto est = policy->make_estimator();
    for (int i = 0; i < 5000; ++i) {
      est->on_rtt(SimTime::from_seconds(sample_s(rng)), false);
    }
    const TimeoutDecision decision = est->decide();
    EXPECT_GE(decision.retransmit_after.as_seconds(), min_s) << policy->name();
    EXPECT_LE(decision.retransmit_after.as_seconds(), max_s) << policy->name();
    EXPECT_LE(decision.retransmit_after, decision.give_up_after) << policy->name();
    EXPECT_EQ(est->samples(), 5000u) << policy->name();
  }
}

TEST(OnlineEstimators, ConvergeOnUniformDelay) {
  // Uniform 100..200 ms: every policy covers the distribution's maximum
  // yet stays within the floors' neighbourhood (1 s RTO floor, 500 ms
  // adaptive floor) — no runaway growth on benign jitter.
  expect_all_converge([](util::Prng& rng) { return 0.1 + 0.1 * rng.uniform(); },
                      0.2, 2.0);
}

TEST(OnlineEstimators, ConvergeOnLognormalDelay) {
  // Lognormal(ln 0.1, 0.5): median 100 ms, p99 ~ 320 ms, occasional
  // ~500 ms tail draws. Heavy-ish but unimodal: still floor-dominated.
  expect_all_converge(
      [](util::Prng& rng) {
        const double u1 = 1.0 - rng.uniform();  // (0, 1]
        const double u2 = rng.uniform();
        const double z =
            std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
        return 0.1 * std::exp(0.5 * z);
      },
      0.3, 3.0);
}

TEST(OnlineEstimators, ConvergeOnBimodalWakeupDelay) {
  // The paper's regime: 90% answer in ~50 ms, 10% wake up after ~5 s.
  // No estimator may run away past the ceiling, and the single-timer
  // baselines — whose one bound is also their give-up — must be pulled
  // well above the fast mode by the wake-up mass, or every wake-up reads
  // as loss. (CUSUM may sit lower right after a bimodality-triggered
  // reset; its correctness lives in the give-up window, asserted below.)
  expect_all_converge(
      [](util::Prng& rng) { return rng.bernoulli(0.1) ? 5.0 : 0.05; }, 0.5,
      60.0);
  for (const auto& policy : tournament_roster()) {
    if (policy->name() == "cusum_p99") continue;
    util::Prng rng{123};
    const auto est = policy->make_estimator();
    for (int i = 0; i < 5000; ++i) {
      est->on_rtt(SimTime::from_seconds(rng.bernoulli(0.1) ? 5.0 : 0.05),
                  false);
    }
    EXPECT_GE(est->decide().give_up_after, SimTime::seconds(2)) << policy->name();
  }

  // The paper-aligned policy's answer to bimodality is dual-timer
  // semantics: whatever the retransmit bound, the 60 s listen window
  // covers the wake-up mode, so a 5 s response is never misread as loss.
  const CusumQuantilePolicy cusum;
  util::Prng rng{7};
  const auto est = cusum.make_estimator();
  for (int i = 0; i < 5000; ++i) {
    est->on_rtt(SimTime::from_seconds(rng.bernoulli(0.1) ? 5.0 : 0.05), false);
  }
  const TimeoutDecision decision = est->decide();
  EXPECT_EQ(decision.give_up_after, SimTime::seconds(60));
  EXPECT_LT(decision.retransmit_after, decision.give_up_after);
  EXPECT_GE(decision.retransmit_after, SimTime::millis(500));
}

TEST(OnlineEstimators, JacobsonKarnIgnoresAmbiguousButNaiveLearns) {
  const JacobsonKarnPolicy karn{true};
  const JacobsonKarnPolicy naive{false};
  EXPECT_EQ(karn.name(), "jacobson_karn");
  EXPECT_EQ(naive.name(), "jacobson_naive");
  const auto karn_est = karn.make_estimator();
  const auto naive_est = naive.make_estimator();
  for (int i = 0; i < 100; ++i) {
    karn_est->on_rtt(SimTime::seconds(30), /*retransmitted=*/true);
    naive_est->on_rtt(SimTime::seconds(30), /*retransmitted=*/true);
  }
  // Karn never updated: still the 3 s initial RTO. Naive swallowed the
  // ambiguous samples whole.
  EXPECT_EQ(karn_est->decide().retransmit_after, SimTime::seconds(3));
  EXPECT_GT(naive_est->decide().retransmit_after, SimTime::seconds(29));
  // Both count the observations they were shown.
  EXPECT_EQ(karn_est->samples(), 100u);
  EXPECT_EQ(naive_est->samples(), 100u);
}

TEST(OnlineEstimators, SingleTimerPoliciesConflateDualTimerDoesNot) {
  util::Prng rng{42};
  for (const auto& policy : tournament_roster()) {
    const auto est = policy->make_estimator();
    for (int i = 0; i < 200; ++i) {
      est->on_rtt(SimTime::from_seconds(0.05 + 0.01 * rng.uniform()), false);
    }
    const TimeoutDecision decision = est->decide();
    if (policy->name() == "cusum_p99") {
      EXPECT_LT(decision.retransmit_after, decision.give_up_after);
      EXPECT_EQ(decision.give_up_after, SimTime::seconds(60));
    } else {
      // The conventional conflation, preserved deliberately as baselines.
      EXPECT_EQ(decision.retransmit_after, decision.give_up_after);
    }
  }
}

TEST(OnlineEstimators, CusumDetectsLevelShiftAndResets) {
  const CusumQuantilePolicy policy;
  EXPECT_EQ(policy.name(), "cusum_p99");
  const auto est = policy.make_estimator();
  util::Prng rng{7};
  for (int i = 0; i < 1000; ++i) {
    est->on_rtt(SimTime::from_seconds(0.09 + 0.02 * rng.uniform()), false);
  }
  EXPECT_EQ(est->level_shifts(), 0u);
  const double before_s = est->decide().retransmit_after.as_seconds();
  EXPECT_LT(before_s, 1.0);

  // The latency level jumps 100 ms -> ~2 s. CUSUM must alarm, reset the
  // stale quantile tracker, and re-learn the new regime quickly.
  for (int i = 0; i < 200; ++i) {
    est->on_rtt(SimTime::from_seconds(1.9 + 0.2 * rng.uniform()), false);
  }
  EXPECT_GE(est->level_shifts(), 1u);
  EXPECT_GT(est->decide().retransmit_after.as_seconds(), 2.0);
}

TEST(OnlineEstimators, TimeoutsBackOffJacobsonOnly) {
  // on_timeout() must raise (or at least not lower) the Jacobson bound and
  // never poison the others into nonsense.
  for (const auto& policy : tournament_roster()) {
    const auto est = policy->make_estimator();
    for (int i = 0; i < 20; ++i) est->on_rtt(SimTime::millis(100), false);
    const SimTime before = est->decide().retransmit_after;
    for (int i = 0; i < 3; ++i) est->on_timeout();
    const TimeoutDecision after = est->decide();
    EXPECT_GE(after.retransmit_after, before) << policy->name();
    EXPECT_LE(after.retransmit_after, after.give_up_after) << policy->name();
    if (policy->name() == "jacobson_karn") {
      EXPECT_EQ(after.retransmit_after, SimTime::seconds(8));
    }
  }
}

}  // namespace
}  // namespace turtle
