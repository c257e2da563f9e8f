#include "sim/optimal_search.hpp"

#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"
#include "sim/eval_cache.hpp"

namespace oagrid::sim {
namespace {

/// Enumerates multisets as non-increasing size sequences; `visit` is called
/// with the current sizes for every non-empty candidate.
template <typename Visit>
void enumerate(const platform::Cluster& cluster, ProcCount size,
               ProcCount budget, Count groups_left,
               std::vector<ProcCount>& sizes, const Visit& visit) {
  if (!sizes.empty()) visit(sizes);
  if (groups_left == 0) return;
  for (ProcCount g = size; g >= cluster.min_group(); --g) {
    if (g > budget) continue;
    sizes.push_back(g);
    enumerate(cluster, g, budget - g, groups_left - 1, sizes, visit);
    sizes.pop_back();
  }
}

}  // namespace

std::size_t count_grouping_candidates(const platform::Cluster& cluster,
                                      Count max_groups) {
  std::size_t count = 0;
  std::vector<ProcCount> sizes;
  enumerate(cluster, cluster.max_group(), cluster.resources(), max_groups,
            sizes, [&](const std::vector<ProcCount>&) { ++count; });
  return count;
}

GroupingSearchResult optimal_grouping_search(const platform::Cluster& cluster,
                                             const appmodel::Ensemble& ensemble,
                                             std::size_t max_candidates) {
  ensemble.validate();
  const std::size_t count =
      count_grouping_candidates(cluster, ensemble.scenarios);
  if (count > max_candidates)
    throw std::invalid_argument(
        "oagrid: grouping search space has " + std::to_string(count) +
        " candidates, above the cap of " + std::to_string(max_candidates));

  // Materialize the enumeration so candidates can be costed in parallel;
  // enumeration order is the serial search's visiting order and drives the
  // tie-break below.
  std::vector<std::vector<ProcCount>> candidates;
  candidates.reserve(count);
  std::vector<ProcCount> sizes;
  enumerate(cluster, cluster.max_group(), cluster.resources(),
            ensemble.scenarios, sizes,
            [&](const std::vector<ProcCount>& gs) { candidates.push_back(gs); });
  OAGRID_REQUIRE(!candidates.empty(), "no feasible grouping exists");

  auto schedule_for = [&](const std::vector<ProcCount>& gs) {
    sched::GroupSchedule schedule;
    schedule.group_sizes = gs;
    schedule.post_pool = cluster.resources() - schedule.main_resources();
    return schedule;
  };

  // Independent deterministic simulations: safe at any thread count.
  const std::vector<Seconds> makespans =
      parallel_transform(shared_pool(), candidates.size(), [&](std::size_t i) {
        return cached_makespan(cluster, schedule_for(candidates[i]), ensemble);
      });

  // Sequential first-min in enumeration order — identical winner (including
  // ties) to the serial scan.
  GroupingSearchResult result;
  result.evaluated = candidates.size();
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < makespans.size(); ++i) {
    if (makespans[i] < result.makespan) {
      result.makespan = makespans[i];
      best_index = i;
    }
  }
  result.best = schedule_for(candidates[best_index]);
  return result;
}

}  // namespace oagrid::sim
