// Tests for the core library: P² quantiles, RTT estimation, and
// recommendations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/p2_quantile.h"
#include "core/recommendations.h"
#include "core/rtt_estimator.h"
#include "util/prng.h"
#include "util/stats.h"

namespace turtle::core {
namespace {

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile q{0.5};
  q.add(3);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);  // interpolated median of {1,3}
  q.add(2);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, EmptyIsZero) {
  P2Quantile q{0.9};
  EXPECT_EQ(q.value(), 0.0);
  EXPECT_EQ(q.count(), 0u);
}

struct P2Case {
  double quantile;
  double tolerance;
};

class P2Accuracy : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2Accuracy, UniformStream) {
  const auto [quantile, tol] = GetParam();
  util::Prng rng{77};
  P2Quantile q{quantile};
  std::vector<double> all;
  for (int i = 0; i < 20'000; ++i) {
    const double x = rng.uniform();
    q.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  const double exact = util::percentile_sorted(all, quantile * 100);
  EXPECT_NEAR(q.value(), exact, tol);
}

TEST_P(P2Accuracy, LognormalStream) {
  const auto [quantile, tol] = GetParam();
  util::Prng rng{78};
  P2Quantile q{quantile};
  std::vector<double> all;
  for (int i = 0; i < 20'000; ++i) {
    const double x = rng.lognormal(0.0, 1.0);
    q.add(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  const double exact = util::percentile_sorted(all, quantile * 100);
  // Relative tolerance for the heavy-tailed case.
  EXPECT_NEAR(q.value(), exact, std::max(tol, 0.15 * exact));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2Accuracy,
                         ::testing::Values(P2Case{0.5, 0.02}, P2Case{0.9, 0.02},
                                           P2Case{0.95, 0.02}, P2Case{0.99, 0.03}));

TEST(P2Quantile, BimodalWakeupDistribution) {
  // The distribution that breaks mean-based estimators: 80% at 0.2 s,
  // 20% at 2 s (wake-up). p99 must land near 2, far above the mean.
  util::Prng rng{79};
  P2Quantile q{0.99};
  for (int i = 0; i < 50'000; ++i) {
    q.add(rng.bernoulli(0.2) ? 2.0 + rng.uniform() * 0.1 : 0.2 + rng.uniform() * 0.02);
  }
  EXPECT_GT(q.value(), 1.9);
}

TEST(RttEstimator, RtoFollowsRfc6298) {
  RttEstimator est;
  EXPECT_EQ(est.rto(), SimTime::seconds(3));  // initial
  est.add_sample(SimTime::seconds(2));
  // srtt=2, rttvar=1 -> rto = 2 + 4 = 6.
  EXPECT_NEAR(est.rto().as_seconds(), 6.0, 1e-6);
  // Many stable samples shrink variance; floor at 1 s applies.
  for (int i = 0; i < 1000; ++i) est.add_sample(SimTime::millis(100));
  EXPECT_NEAR(est.rto().as_seconds(), 1.0, 0.05);
}

analysis::TimeoutMatrix paper_matrix() {
  // A miniature of Table 2.
  analysis::TimeoutMatrix m;
  m.row_percentiles = {50, 95, 99};
  m.col_percentiles = {50, 95, 99};
  m.cells = {
      {0.19, 0.42, 0.64},
      {1.42, 5.0, 15.0},
      {2.31, 22.0, 145.0},
  };
  return m;
}

TEST(Recommendations, LooksUpMatrixCell) {
  const auto m = paper_matrix();
  EXPECT_DOUBLE_EQ(recommend_timeout(m, 95, 95).as_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(recommend_timeout(m, 99, 99).as_seconds(), 145.0);
  EXPECT_DOUBLE_EQ(recommend_timeout(m, 50, 50).as_seconds(), 0.19);
}

TEST(Recommendations, ClampsToNearestPercentile) {
  const auto m = paper_matrix();
  // 97 is closest to 95; 100 is closest to 99.
  EXPECT_DOUBLE_EQ(recommend_timeout(m, 96, 100).as_seconds(), 15.0);
}

TEST(Recommendations, FalseLossRate) {
  const auto m = paper_matrix();
  // For the 95th-percentile address, a 5 s timeout captures 95% of pings:
  // 5% false loss.
  EXPECT_NEAR(false_loss_rate(m, 95, SimTime::seconds(5)), 0.05, 1e-9);
  // A 3 s timeout captures only the 50% column.
  EXPECT_NEAR(false_loss_rate(m, 95, SimTime::seconds(3)), 0.5, 1e-9);
  // A 200 s timeout captures everything measured.
  EXPECT_NEAR(false_loss_rate(m, 99, SimTime::seconds(200)), 0.01, 1e-9);
  // A timeout below every cell captures nothing.
  EXPECT_NEAR(false_loss_rate(m, 95, SimTime::millis(100)), 1.0, 1e-9);
}

TEST(Recommendations, StateCostLittlesLaw) {
  const auto cost = prober_state_cost(1000.0, SimTime::seconds(60), 48);
  EXPECT_DOUBLE_EQ(cost.outstanding_entries, 60'000.0);
  EXPECT_DOUBLE_EQ(cost.bytes, 60'000.0 * 48);

  // The paper's trade-off: 3 s vs 60 s timeout is a 20x state difference.
  const auto short_cost = prober_state_cost(1000.0, SimTime::seconds(3), 48);
  EXPECT_DOUBLE_EQ(cost.bytes / short_cost.bytes, 20.0);
}

}  // namespace
}  // namespace turtle::core
