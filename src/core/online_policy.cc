#include "core/online_policy.h"

#include <algorithm>
#include <cmath>

#include "core/p2_quantile.h"
#include "core/rtt_estimator.h"

namespace turtle::core {

namespace {

// Shared bounds of the adaptive policies: the paper's 60 s listen window
// caps every prescription, a 500 ms floor keeps a burst of fast samples
// from training a retransmit storm, and a destination without history
// starts at the conventional 3 s.
constexpr SimTime kGiveUp = SimTime::seconds(60);
constexpr SimTime kFloor = SimTime::millis(500);
constexpr SimTime kColdStart = SimTime::seconds(3);

/// The decision, whatever is observed. Still counts samples, so callers
/// can tell a probed destination from a fresh one.
class StaticEstimator final : public OnlineEstimator {
 public:
  explicit StaticEstimator(TimeoutDecision decision) : decision_{decision} {}

  void on_rtt(SimTime /*rtt*/, bool /*retransmitted*/) override { ++observations_; }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override { return decision_; }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  TimeoutDecision decision_;
  std::uint64_t observations_ = 0;
};

class QuantileAdaptiveEstimator final : public OnlineEstimator {
 public:
  void on_rtt(SimTime rtt, bool retransmitted) override {
    ++observations_;
    // Karn's rule: an ambiguous pairing never reaches the tracker.
    if (!retransmitted) p99_.add(rtt.as_seconds());
  }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override {
    if (p99_.count() < 5) return {kColdStart, kGiveUp};
    // p99 is rounded to whole microseconds before scaling; the ablation
    // tables were computed that way.
    const SimTime p99 = SimTime::from_seconds(p99_.value());
    const SimTime scaled = SimTime::from_seconds(p99.as_seconds() * 1.5);
    return {std::clamp(scaled, kFloor, kGiveUp), kGiveUp};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  P2Quantile p99_{0.99};
  std::uint64_t observations_ = 0;
};

/// TCP semantics over RttEstimator: retransmit at the RTO, give up at the
/// RTO or the listen window, whichever is later.
class JacobsonKarnEstimator final : public OnlineEstimator {
 public:
  JacobsonKarnEstimator(bool karn, SimTime listen) : karn_{karn}, listen_{listen} {}

  void on_rtt(SimTime rtt, bool retransmitted) override {
    ++observations_;
    // The naive variant pretends every sample is unambiguous — the exact
    // bookkeeping error Karn's rule exists to forbid.
    estimator_.add_sample(rtt, karn_ && retransmitted);
  }
  void on_timeout() override {
    // §5.5 backoff. The naive design retries at the unmodified RTO.
    if (karn_) estimator_.add_loss();
  }

  [[nodiscard]] TimeoutDecision decide() const override {
    const SimTime rto = estimator_.rto();
    return {rto, std::max(rto, listen_)};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  bool karn_;
  SimTime listen_;
  std::uint64_t observations_ = 0;
  RttEstimator estimator_;
};

class EwmaEstimator final : public OnlineEstimator {
 public:
  void on_rtt(SimTime rtt, bool /*retransmitted*/) override {
    constexpr double kGain = 0.125;
    const double r = rtt.as_seconds();
    if (observations_++ == 0) {
      mean_ = r;
      var_ = (r / 2) * (r / 2);
      return;
    }
    const double err = r - mean_;
    // Variance before mean, so the residual is measured against the
    // pre-update reference (Welford-style EWMA).
    var_ = (1 - kGain) * var_ + kGain * err * err;
    mean_ += kGain * err;
  }
  // No backoff: the simple design the tournament prices.
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override {
    if (observations_ == 0) return {kColdStart, kColdStart};
    const double t = mean_ + 4 * std::sqrt(var_);
    const SimTime timeout = std::clamp(SimTime::from_seconds(t), kFloor, kGiveUp);
    return {timeout, timeout};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }

 private:
  std::uint64_t observations_ = 0;
  double mean_ = 0;
  double var_ = 0;
};

class CusumQuantileEstimator final : public OnlineEstimator {
 public:
  void on_rtt(SimTime rtt, bool /*retransmitted*/) override {
    constexpr double kGain = 0.125;    // EWMA gain for the reference mean/dev
    constexpr double kDrift = 0.5;     // CUSUM slack per observation, dev units
    constexpr double kThreshold = 8.0; // CUSUM alarm level, dev units
    // Deliberately not Karn-aware: a delayed re-attributed response *is*
    // the surprisingly-high-delay signal this policy exists to track, and
    // the 60 s give-up window makes learning from it safe — the failure
    // mode Karn's rule guards against (chasing your own timeout) needs
    // the measured wait to feed back into the give-up bound, which the
    // dual-timer design severs.
    const double r = rtt.as_seconds();
    ++observations_;
    if (observations_ == 1) {
      mean_ = r;
      dev_ = r / 2;
    } else {
      const double err = r - mean_;
      // One-sided CUSUM on the normalized pre-update residual: accumulate
      // surprise beyond kDrift dev-units; an excursion past kThreshold
      // means the latency level shifted and the quantile markers describe
      // a distribution that no longer exists.
      cusum_ = std::max(0.0, cusum_ + err / std::max(dev_, 1e-6) - kDrift);
      dev_ = (1 - kGain) * dev_ + kGain * std::abs(err);
      mean_ += kGain * err;
      if (cusum_ > kThreshold) {
        p99_ = P2Quantile{0.99};
        cusum_ = 0;
        ++level_shifts_;
      }
    }
    p99_.add(r);
  }
  void on_timeout() override {}

  [[nodiscard]] TimeoutDecision decide() const override {
    if (observations_ == 0) return {kColdStart, kGiveUp};
    const double envelope = mean_ + 4 * dev_;
    // Mid-reset (or early) the quantile markers are order statistics of
    // too few points; lean on the EWMA envelope until P² re-converges.
    const double target =
        p99_.count() >= 5 ? std::max(p99_.value() * 1.5, envelope) : envelope;
    return {std::clamp(SimTime::from_seconds(target), kFloor, kGiveUp), kGiveUp};
  }
  [[nodiscard]] std::uint64_t samples() const override { return observations_; }
  [[nodiscard]] std::uint64_t level_shifts() const override { return level_shifts_; }

 private:
  P2Quantile p99_{0.99};
  std::uint64_t observations_ = 0;
  std::uint64_t level_shifts_ = 0;
  double mean_ = 0;
  double dev_ = 0;
  double cusum_ = 0;
};

}  // namespace

StaticPolicy::StaticPolicy(SimTime retransmit, SimTime give_up)
    : decision_{retransmit, give_up} {}

std::unique_ptr<OnlineEstimator> StaticPolicy::make_estimator() const {
  return std::make_unique<StaticEstimator>(decision_);
}

std::string StaticPolicy::name() const {
  return "static_" + std::to_string(decision_.retransmit_after.as_millis()) + "ms_" +
         std::to_string(decision_.give_up_after.as_millis()) + "ms";
}

std::unique_ptr<OnlineEstimator> QuantileAdaptivePolicy::make_estimator() const {
  return std::make_unique<QuantileAdaptiveEstimator>();
}

std::string QuantileAdaptivePolicy::name() const { return "quantile_p99"; }

std::unique_ptr<OnlineEstimator> JacobsonKarnPolicy::make_estimator() const {
  return std::make_unique<JacobsonKarnEstimator>(karn_, listen_);
}

std::string JacobsonKarnPolicy::name() const {
  std::string name = karn_ ? "jacobson_karn" : "jacobson_naive";
  if (listen_ > SimTime{}) name += "_listen_" + std::to_string(listen_.as_millis()) + "ms";
  return name;
}

std::unique_ptr<OnlineEstimator> EwmaVariancePolicy::make_estimator() const {
  return std::make_unique<EwmaEstimator>();
}

std::string EwmaVariancePolicy::name() const { return "ewma"; }

std::unique_ptr<OnlineEstimator> CusumQuantilePolicy::make_estimator() const {
  return std::make_unique<CusumQuantileEstimator>();
}

std::string CusumQuantilePolicy::name() const { return "cusum_p99"; }

}  // namespace turtle::core
