#include "sim/perf_vector.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "platform/profiles.hpp"
#include "sim/eval_cache.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::sim {
namespace {

/// The pre-family reference: one independent schedule + DES evaluation per
/// scenario count, serially. The family-solve fast path must reproduce these
/// doubles exactly.
sched::PerformanceVector reference_vector(const platform::Cluster& cluster,
                                          Count max_scenarios, Count months,
                                          sched::Heuristic heuristic) {
  sched::PerformanceVector vec;
  for (Count k = 1; k <= max_scenarios; ++k) {
    const appmodel::Ensemble ensemble{k, months};
    const sched::GroupSchedule schedule =
        sched::make_schedule(heuristic, cluster, ensemble);
    vec.push_back(cached_makespan(cluster, schedule, ensemble));
  }
  return vec;
}

TEST(PerfVector, KnapsackFamilyPathBitIdenticalToPerKSchedules) {
  // EXPECT_EQ on doubles, deliberately: the shared-DP schedules must be the
  // very same groupings, so the simulated makespans cannot drift at all.
  for (const ProcCount r : {11, 40, 53, 77}) {
    const auto cluster = platform::make_builtin_cluster(1, r);
    eval_cache().clear();  // cold: the DES runs really execute
    const sched::PerformanceVector fast =
        performance_vector(cluster, 10, 60, sched::Heuristic::kKnapsack);
    const sched::PerformanceVector ref =
        reference_vector(cluster, 10, 60, sched::Heuristic::kKnapsack);
    ASSERT_EQ(fast.size(), ref.size()) << "R=" << r;
    for (std::size_t k = 0; k < ref.size(); ++k)
      EXPECT_EQ(fast[k], ref[k]) << "R=" << r << " k=" << k + 1;
  }
}

TEST(PerfVector, WarmCacheReturnsTheSameVector) {
  const auto cluster = platform::make_builtin_cluster(2, 40);
  eval_cache().clear();
  const sched::PerformanceVector cold =
      performance_vector(cluster, 8, 24, sched::Heuristic::kKnapsack);
  const sched::PerformanceVector warm =
      performance_vector(cluster, 8, 24, sched::Heuristic::kKnapsack);
  EXPECT_EQ(cold, warm);
}

TEST(PerfVector, NonKnapsackHeuristicsUnaffectedByFamilyPath) {
  const auto cluster = platform::make_builtin_cluster(0, 53);
  for (const auto h : {sched::Heuristic::kBasic, sched::Heuristic::kRedistribute,
                       sched::Heuristic::kAllForMain}) {
    eval_cache().clear();
    const sched::PerformanceVector fast = performance_vector(cluster, 6, 60, h);
    const sched::PerformanceVector ref = reference_vector(cluster, 6, 60, h);
    EXPECT_EQ(fast, ref) << to_string(h);
  }
}

TEST(PerfVector, GridSimulationInvariantInThreadCount) {
  // The family solve happens per cluster before the parallel DES fan-out, so
  // the worker count must not leak into any result.
  const auto grid = platform::make_builtin_grid(35);
  const appmodel::Ensemble ensemble{10, 60};
  eval_cache().clear();
  const GridSimResult one =
      simulate_grid(grid, ensemble, sched::Heuristic::kKnapsack, 1);
  eval_cache().clear();
  const GridSimResult three =
      simulate_grid(grid, ensemble, sched::Heuristic::kKnapsack, 3);
  EXPECT_EQ(one.repartition.dags_per_cluster,
            three.repartition.dags_per_cluster);
  EXPECT_EQ(one.repartition.assignment, three.repartition.assignment);
  EXPECT_EQ(one.makespan, three.makespan);
  EXPECT_EQ(one.cluster_makespans, three.cluster_makespans);
  EXPECT_EQ(one.performance, three.performance);
}

TEST(PerfVector, ConcurrentCallersGetTheSerialVectors) {
  // Figure 9's step 3: five SeDs ask for their cold vectors at once, so
  // their regions share the pool. Each must get its serial vector exactly.
  const auto grid = platform::make_builtin_grid(40);
  const std::size_t n = grid.clusters().size();
  ASSERT_EQ(n, 5u);
  eval_cache().clear();
  std::vector<sched::PerformanceVector> serial;
  for (const platform::Cluster& cluster : grid.clusters())
    serial.push_back(
        reference_vector(cluster, 10, 60, sched::Heuristic::kKnapsack));
  eval_cache().clear();
  std::vector<sched::PerformanceVector> concurrent(n);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < n; ++c)
    callers.emplace_back([&, c] {
      concurrent[c] = performance_vector(grid.clusters()[c], 10, 60,
                                         sched::Heuristic::kKnapsack);
    });
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < n; ++c)
    EXPECT_EQ(concurrent[c], serial[c]) << grid.clusters()[c].name();
}

}  // namespace
}  // namespace oagrid::sim
