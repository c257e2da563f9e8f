#pragma once
/// \file stats.hpp
/// \brief Streaming statistics used to aggregate sweep results.
///
/// Figure 8 of the paper reports, for every resource count, the mean gain and
/// its standard deviation over five cluster profiles. RunningStats implements
/// Welford's numerically stable online algorithm so benches can accumulate
/// without storing samples; Summary snapshots the result.

#include <cstddef>
#include <vector>

namespace oagrid {

/// Snapshot of a finished accumulation.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
};

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1). Zero when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] Summary summary() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolation percentile (p in [0,100]) of an unsorted sample.
/// Copies and sorts internally; intended for bench post-processing, not hot
/// paths. Returns 0 for an empty sample.
[[nodiscard]] double percentile_of(std::vector<double> xs, double p) noexcept;

}  // namespace oagrid
