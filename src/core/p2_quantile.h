// P² (piecewise-parabolic) online quantile estimation, Jain & Chlamtac 1985.
//
// The adaptive timeout policies need per-destination latency quantiles
// without storing per-destination sample vectors — the paper stresses that
// prober state is a real cost of long timeouts (Section 2.1). P² keeps
// five markers (40 bytes of state) per tracked quantile and converges to
// the true quantile for stationary inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace turtle::core {

/// Online estimator of a single quantile `q` (0 < q < 1).
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  /// Folds in one observation.
  void add(double x);

  /// Current estimate. Exact while fewer than 5 observations have been
  /// seen (returns the sample quantile of what there is); P² afterwards.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Frozen marker state, the unit the snapshot file format persists. The
  /// increments are derived from q alone, so they are not stored; restore()
  /// recomputes them. value() of a restored estimator is bitwise identical
  /// to the original's — the parity guarantee snapshot lookups rely on.
  struct State {
    std::uint64_t count = 0;
    std::array<double, 5> heights{};
    std::array<double, 5> positions{};
    std::array<double, 5> desired{};
  };

  [[nodiscard]] State state() const;
  static P2Quantile restore(double q, const State& state);

  /// value() of a frozen estimator of `q` that has seen `count`
  /// observations, with no estimator restored: `height(i)` returns its
  /// marker height i and is asked for the middle marker alone once count
  /// >= 5, or for the first `count` markers below that (the exact
  /// small-sample path). Bitwise restore(q, state).value(); a snapshot
  /// lookup answers this way from the stored heights it needs.
  template <class Height>
  [[nodiscard]] static double frozen_value(double q, std::uint64_t count, Height&& height) {
    if (count >= 5) return height(std::size_t{2});
    std::array<double, 5> first;
    first.fill(std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < count; ++i) first[i] = height(i);
    return small_sample_value(q, count, first);
  }

 private:
  /// The exact sample quantile of the first `count` (< 5) observations;
  /// the unused slots of `first` hold +infinity.
  static double small_sample_value(double q, std::uint64_t count, std::array<double, 5> first);

  void add_initial(double x);
  void add_steady(double x);
  /// Piecewise-parabolic (fallback linear) adjustment of marker i.
  void adjust(int i);

  double q_;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};    // marker heights (estimates)
  std::array<double, 5> positions_{};  // actual marker positions
  std::array<double, 5> desired_{};    // desired marker positions
  std::array<double, 5> increments_{};
};

}  // namespace turtle::core
