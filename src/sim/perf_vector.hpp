#pragma once
/// \file perf_vector.hpp
/// \brief Step 2 of the Figure 9 protocol: each cluster computes "a vector
/// containing the time needed to execute from 1 to NS simulations".

#include "appmodel/ensemble.hpp"
#include "platform/cluster.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"

namespace oagrid::sim {

/// performance[k-1] = simulated makespan of k scenarios x `months` months on
/// `cluster` under `heuristic`, for k = 1..max_scenarios. The entries run on
/// shared_pool(), claimed costliest-first (k = NS down to 1) and stored by
/// index, so the vector is bit-identical at any pool width.
[[nodiscard]] sched::PerformanceVector performance_vector(
    const platform::Cluster& cluster, Count max_scenarios, Count months,
    sched::Heuristic heuristic);

}  // namespace oagrid::sim
