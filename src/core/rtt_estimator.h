// RFC 6298 retransmission-timeout state for one destination: smoothed
// RTT and variance (what TCP would compute), §5.5 loss backoff, and Karn's
// rule. JacobsonKarnPolicy's estimator is built on it.
#pragma once

#include <cstdint>

#include "util/sim_time.h"

namespace turtle::core {

class RttEstimator {
 public:
  /// Records a measured round trip. `retransmitted` marks a sample whose
  /// probe had been retransmitted before the response arrived: per Karn's
  /// rule the pairing is ambiguous (the response may answer any copy), so
  /// the sample is counted under karn_excluded() but never updates the
  /// smoothed state. Crucially, an ambiguous sample also does *not* clear
  /// RTO backoff — only an unambiguous one does — which is what keeps the
  /// estimator from chasing its own timeout (Jain's divergence; see
  /// adaptive_policy_test).
  void add_sample(SimTime rtt, bool retransmitted = false);
  /// Records a probe that got no response within the observation window.
  /// Beyond the loss count this applies RFC 6298 §5.5 backoff: each loss
  /// doubles the RTO (capped at kMaxBackoffShift doublings and the 60 s
  /// ceiling) until the next unambiguous sample clears the backoff.
  void add_loss();

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t losses() const { return losses_; }
  /// Samples dropped by Karn's rule (ambiguous retransmission pairing).
  [[nodiscard]] std::uint64_t karn_excluded() const { return karn_excluded_; }
  /// Current backoff exponent: rto() is scaled by 2^backoff_shift().
  [[nodiscard]] int backoff_shift() const { return backoff_shift_; }

  /// RFC 6298 smoothed estimate and retransmission timeout. rto() clamps
  /// to [1 s, 60 s] (RFC 6298 §2.4) and scales by the loss backoff.
  [[nodiscard]] SimTime srtt() const { return SimTime::from_seconds(srtt_s_); }
  [[nodiscard]] SimTime rto() const;

  /// §5.5 backoff cap: 2^6 = 64x, which saturates the 60 s ceiling from
  /// the 1 s floor — further doublings would be unobservable.
  static constexpr int kMaxBackoffShift = 6;

 private:
  std::uint64_t samples_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t karn_excluded_ = 0;
  int backoff_shift_ = 0;
  double srtt_s_ = 0;
  double rttvar_s_ = 0;
};

}  // namespace turtle::core
