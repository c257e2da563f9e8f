#pragma once
/// \file local_search.hpp
/// \brief Simulation-driven local search over group multisets — an extension
/// closing the gap between the knapsack heuristic and the exhaustive oracle.
///
/// The knapsack objective (steady-state throughput) ignores set-boundary and
/// post-processing effects; the oracle (optimal_search.hpp) prices them but
/// costs thousands of simulations. Hill climbing from the knapsack solution
/// over six natural moves — grow/shrink a group, split/merge groups,
/// add/remove a group — typically reaches the oracle's makespan in a few
/// dozen simulations (bench_optimality quantifies this).
///
/// Each neighborhood is evaluated in parallel on the shared thread pool and
/// every simulated makespan is memoized in the process-wide eval cache
/// (sim/eval_cache.hpp), so repeated searches over the same cluster family
/// get cheaper as the cache warms. The search trajectory itself is
/// deterministic regardless of the pool's width or cache state: candidates
/// are simulated independently and reduced sequentially in candidate order,
/// and the evaluation budget is charged against a search-local memo that is
/// oblivious to global-cache warmth. A call from inside a region of a
/// zero-worker pool evaluates every neighborhood serially, in order.

#include "appmodel/ensemble.hpp"
#include "platform/cluster.hpp"
#include "sched/group_schedule.hpp"

namespace oagrid::sim {

struct LocalSearchOptions {
  int max_accepted_moves = 100;      ///< hill-climbing step budget
  std::size_t max_evaluations = 5000;  ///< total simulations allowed
};

struct LocalSearchResult {
  sched::GroupSchedule best;
  Seconds makespan = kInfiniteTime;
  int accepted_moves = 0;
  std::size_t evaluations = 0;
};

/// Multi-start best-improvement hill climbing. The group-count dimension is
/// where single moves get stuck (with as many groups as scenarios, the
/// slowest group binds the makespan and no one-step change escapes), so one
/// climb starts from the knapsack solution restricted to at most k groups,
/// for every k in [1, NS]; the best local optimum wins. Evaluations are
/// memoized across starts.
[[nodiscard]] LocalSearchResult local_search_grouping(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble,
    const LocalSearchOptions& options = {});

}  // namespace oagrid::sim
