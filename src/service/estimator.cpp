#include "service/estimator.hpp"

#include "fault/checkpoint.hpp"
#include "sched/throughput.hpp"
#include "sim/perf_vector.hpp"

namespace oagrid::service {

sched::PerformanceVector AnalyticEstimator::vector(
    const platform::Cluster& cluster, Count scenarios, Count months,
    sched::Heuristic heuristic) {
  (void)heuristic;  // the analytic vector is the knapsack-optimal throughput
  return sched::throughput_performance_vector(cluster, scenarios, months);
}

sched::PerformanceVector SimEstimator::vector(
    const platform::Cluster& cluster, Count scenarios, Count months,
    sched::Heuristic heuristic) {
  return sim::performance_vector(cluster, scenarios, months, heuristic);
}

FailureAwareEstimator::FailureAwareEstimator(PerfEstimator& inner,
                                             const platform::Grid& grid,
                                             fault::FailureModel model,
                                             MonthIndex checkpoint_months)
    : inner_(inner),
      model_(std::move(model)),
      checkpoint_months_(checkpoint_months) {
  OAGRID_REQUIRE(model_.cluster_count() == grid.cluster_count(),
                 "failure model does not cover the grid's clusters");
  OAGRID_REQUIRE(checkpoint_months_ >= 1,
                 "checkpoint cadence must be >= 1 month");
  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    OAGRID_REQUIRE(cluster_by_name_.emplace(grid.cluster(c).name(), c).second,
                   "failure-aware estimation needs distinct cluster names");
}

sched::PerformanceVector FailureAwareEstimator::vector(
    const platform::Cluster& cluster, Count scenarios, Count months,
    sched::Heuristic heuristic) {
  sched::PerformanceVector perf =
      inner_.vector(cluster, scenarios, months, heuristic);
  // Leases resize clusters (with_resources keeps the name), so the name is
  // the stable identity tying an allotment back to its failure process.
  const auto it = cluster_by_name_.find(cluster.name());
  if (it == cluster_by_name_.end()) return perf;
  const fault::FailureProcess& process = model_.process(it->second);
  if (!process.active()) return perf;
  for (std::size_t i = 0; i < perf.size(); ++i) {
    const auto k = static_cast<double>(i) + 1.0;
    const Seconds period = perf[i] * static_cast<double>(checkpoint_months_) /
                           (k * static_cast<double>(months));
    perf[i] = fault::expected_makespan(perf[i], process, period);
  }
  return perf;
}

}  // namespace oagrid::service
