#include "sim/perf_vector.hpp"

#include <vector>

#include "common/thread_pool.hpp"
#include "sim/eval_cache.hpp"

namespace oagrid::sim {

sched::PerformanceVector performance_vector(const platform::Cluster& cluster,
                                            Count max_scenarios, Count months,
                                            sched::Heuristic heuristic) {
  OAGRID_REQUIRE(max_scenarios >= 1, "need at least one scenario");
  const auto ns = static_cast<std::size_t>(max_scenarios);
  // All NS knapsack groupings come out of one shared DP sweep instead of NS
  // independent solves (bit-identical schedules, see
  // sched::knapsack_grouping_family); only the DES evaluation stays per-k.
  std::vector<sched::GroupSchedule> family;
  if (heuristic == sched::Heuristic::kKnapsack)
    family = sched::knapsack_grouping_family(
        cluster, appmodel::Ensemble{max_scenarios, months});
  // The k entries are independent simulations over the same cluster — cached
  // and evaluated in parallel. The service's DES estimator calls this per
  // request, so a warm cache turns repeated estimates into pure lookups. A
  // k-scenario DES costs about k times a one-scenario one, so the costliest
  // entry is claimed first.
  sched::PerformanceVector performance(ns);
  shared_pool().parallel_for(0, ns, [&](std::size_t j) {
    const std::size_t i = ns - 1 - j;  // k - 1
    const appmodel::Ensemble ensemble{static_cast<Count>(i) + 1, months};
    performance[i] =
        family.empty()
            ? cached_makespan(
                  cluster, sched::make_schedule(heuristic, cluster, ensemble),
                  ensemble)
            : cached_makespan(cluster, family[i], ensemble);
  });
  return performance;
}

}  // namespace oagrid::sim
