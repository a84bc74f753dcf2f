#include "core/p2_quantile.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace turtle::core {

P2Quantile::P2Quantile(double q) : q_{q} {
  assert(q > 0.0 && q < 1.0);
  desired_ = {1, 1 + 2 * q_, 1 + 4 * q_, 3 + 2 * q_, 5};
  increments_ = {0, q_ / 2, q_, (1 + q_) / 2, 1};
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    add_initial(x);
  } else {
    add_steady(x);
  }
  ++count_;
}

void P2Quantile::add_initial(double x) {
  heights_[count_] = x;
  if (count_ == 4) {
    std::sort(heights_.begin(), heights_.end());
    for (int i = 0; i < 5; ++i) positions_[i] = i + 1;
  }
}

void P2Quantile::add_steady(double x) {
  // Locate the cell containing x and clamp the extremes.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  for (int i = 1; i <= 3; ++i) adjust(i);
}

void P2Quantile::adjust(int i) {
  const double d = desired_[i] - positions_[i];
  const bool right = d >= 1 && positions_[i + 1] - positions_[i] > 1;
  const bool left = d <= -1 && positions_[i - 1] - positions_[i] < -1;
  if (!right && !left) return;

  const double sign = right ? 1.0 : -1.0;
  // Piecewise-parabolic prediction.
  const double qp =
      heights_[i] +
      sign / (positions_[i + 1] - positions_[i - 1]) *
          ((positions_[i] - positions_[i - 1] + sign) * (heights_[i + 1] - heights_[i]) /
               (positions_[i + 1] - positions_[i]) +
           (positions_[i + 1] - positions_[i] - sign) * (heights_[i] - heights_[i - 1]) /
               (positions_[i] - positions_[i - 1]));

  if (heights_[i - 1] < qp && qp < heights_[i + 1]) {
    heights_[i] = qp;
  } else {
    // Linear fallback keeps markers ordered.
    const int j = right ? i + 1 : i - 1;
    heights_[i] += sign * (heights_[j] - heights_[i]) /
                   (positions_[j] - positions_[i]);
  }
  positions_[i] += sign;
}

P2Quantile::State P2Quantile::state() const {
  State s;
  s.count = count_;
  s.heights = heights_;
  s.positions = positions_;
  s.desired = desired_;
  return s;
}

P2Quantile P2Quantile::restore(double q, const State& state) {
  P2Quantile quantile{q};  // recomputes increments_ (and initial desired_) from q
  quantile.count_ = static_cast<std::size_t>(state.count);
  quantile.heights_ = state.heights;
  quantile.positions_ = state.positions;
  quantile.desired_ = state.desired;
  return quantile;
}

double P2Quantile::value() const {
  return frozen_value(q_, count_, [this](std::size_t i) { return heights_[i]; });
}

double P2Quantile::small_sample_value(double q, std::uint64_t count,
                                      std::array<double, 5> first) {
  if (count == 0) return 0.0;
  // Sorting all five slots leaves the observations in the first count,
  // ahead of the +infinity padding (a fixed-length sort also keeps GCC's
  // -Warray-bounds quiet about the variable-length one).
  std::sort(first.begin(), first.end());
  const double rank = q * static_cast<double>(count - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= count) return first[count - 1];
  return first[lo] + frac * (first[lo + 1] - first[lo]);
}

}  // namespace turtle::core
