#include "core/rtt_estimator.h"

#include <algorithm>
#include <cmath>

namespace turtle::core {

void RttEstimator::add_sample(SimTime rtt, bool retransmitted) {
  if (retransmitted) {
    // Karn's rule: the response may answer the original or any
    // retransmission, so the measured interval is ambiguous. Count it,
    // learn nothing, and keep any backoff in force.
    ++karn_excluded_;
    return;
  }
  // An unambiguous sample means the path answered a fresh transmission
  // within the current timeout: collapse the loss backoff (RFC 6298 §5.5).
  backoff_shift_ = 0;
  const double r = rtt.as_seconds();
  if (samples_ == 0) {
    // RFC 6298 initialization.
    srtt_s_ = r;
    rttvar_s_ = r / 2;
  } else {
    constexpr double kAlpha = 1.0 / 8;
    constexpr double kBeta = 1.0 / 4;
    rttvar_s_ = (1 - kBeta) * rttvar_s_ + kBeta * std::abs(srtt_s_ - r);
    srtt_s_ = (1 - kAlpha) * srtt_s_ + kAlpha * r;
  }
  ++samples_;
}

void RttEstimator::add_loss() {
  ++losses_;
  if (backoff_shift_ < kMaxBackoffShift) ++backoff_shift_;
}

SimTime RttEstimator::rto() const {
  // RFC 6298: 3 s before any sample, srtt + max(4*rttvar, G) after, then
  // clamp to [1 s, 60 s] and apply the loss backoff (also capped at 60 s —
  // an estimator may never prescribe waiting longer than the ceiling).
  double rto_s = samples_ == 0 ? 3.0 : srtt_s_ + std::max(4 * rttvar_s_, 0.001);
  rto_s = std::clamp(rto_s, 1.0, 60.0);
  rto_s = std::min(rto_s * static_cast<double>(1 << backoff_shift_), 60.0);
  return SimTime::from_seconds(rto_s);
}

}  // namespace turtle::core
