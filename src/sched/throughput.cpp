#include "sched/throughput.hpp"

#include <algorithm>

#include "sched/heuristics.hpp"

namespace oagrid::sched {

double best_throughput(const platform::Cluster& cluster, Count max_groups) {
  OAGRID_REQUIRE(max_groups >= 0, "negative group cap");
  if (max_groups == 0 || cluster.resources() < cluster.min_group()) return 0.0;
  return knapsack::solve_dp(grouping_knapsack(cluster, max_groups)).value;
}

PerformanceVector throughput_performance_vector(
    const platform::Cluster& cluster, Count max_scenarios, Count months) {
  OAGRID_REQUIRE(max_scenarios >= 1, "need at least one scenario");
  OAGRID_REQUIRE(months >= 1, "need at least one month");
  // One shared DP sweep yields the optimal throughput under every group cap
  // k = 1..NS (bit-identical to calling best_throughput per k, which would
  // re-run the whole DP each time). A cluster below the minimum group size
  // has no family to solve: every throughput is zero.
  std::vector<knapsack::Solution> family;
  if (cluster.resources() >= cluster.min_group())
    family =
        knapsack::solve_dp_family(grouping_knapsack(cluster, max_scenarios));
  PerformanceVector vec;
  vec.reserve(static_cast<std::size_t>(max_scenarios));
  Seconds prev = 0.0;
  for (Count k = 1; k <= max_scenarios; ++k) {
    const double throughput =
        family.empty() ? 0.0
                       : family[static_cast<std::size_t>(k) - 1].value;
    Seconds estimate = kInfiniteTime;
    if (throughput > 0.0) {
      const double mains = static_cast<double>(k * months);
      // Steady-state main phase plus the last month's post task.
      estimate = mains / throughput + cluster.post_time();
    }
    // Enforce monotonicity explicitly: adding a scenario cannot speed up the
    // campaign (guards against rounding in the throughput DP).
    estimate = std::max(estimate, prev);
    vec.push_back(estimate);
    prev = estimate;
  }
  return vec;
}

}  // namespace oagrid::sched
