#include "sched/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hpp"

namespace oagrid::sched {
namespace {

/// Spreads `extra` processors over `sizes` one at a time (round-robin over
/// the groups, largest-first so growth stays balanced), never exceeding
/// `cap`. Returns the number of processors that could not be placed.
ProcCount spread_over_groups(std::vector<ProcCount>& sizes, ProcCount extra,
                             ProcCount cap) {
  if (sizes.empty()) return extra;
  bool progress = true;
  while (extra > 0 && progress) {
    progress = false;
    for (ProcCount& size : sizes) {
      if (extra == 0) break;
      if (size < cap) {
        ++size;
        --extra;
        progress = true;
      }
    }
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return extra;
}

/// Smallest dedicated pool able to absorb one set's posts within one set
/// (ceil(nbmax / floor(TG/TP))); falls back to the basic pool when a post
/// outlasts a main task (floor = 0, impossible with the paper's durations
/// but reachable with synthetic tables).
ProcCount steady_state_pool(const platform::Cluster& cluster,
                            const UniformChoice& choice) {
  const Seconds tg = cluster.main_time(choice.group_size);
  const auto per_proc =
      static_cast<Count>(std::floor(tg / cluster.post_time() + 1e-9));
  if (per_proc <= 0) return choice.estimate.r2;
  const Count pool = (choice.estimate.nbmax + per_proc - 1) / per_proc;
  return static_cast<ProcCount>(std::min<Count>(pool, choice.estimate.r2));
}

}  // namespace

const char* to_string(Heuristic heuristic) noexcept {
  switch (heuristic) {
    case Heuristic::kBasic: return "basic";
    case Heuristic::kRedistribute: return "redistribute (imp.1)";
    case Heuristic::kAllForMain: return "all-for-main (imp.2)";
    case Heuristic::kKnapsack: return "knapsack (imp.3)";
  }
  return "?";
}

GroupSchedule basic_grouping(const platform::Cluster& cluster,
                             const appmodel::Ensemble& ensemble) {
  const UniformChoice choice = best_uniform_grouping(cluster, ensemble);
  GroupSchedule schedule;
  schedule.group_sizes.assign(static_cast<std::size_t>(choice.estimate.nbmax),
                              choice.group_size);
  schedule.post_pool = choice.estimate.r2;
  schedule.post_policy = PostPolicy::kPoolThenRetired;
  schedule.validate(cluster);
  return schedule;
}

GroupSchedule redistribute_grouping(const platform::Cluster& cluster,
                                    const appmodel::Ensemble& ensemble) {
  const UniformChoice choice = best_uniform_grouping(cluster, ensemble);
  GroupSchedule schedule;
  schedule.group_sizes.assign(static_cast<std::size_t>(choice.estimate.nbmax),
                              choice.group_size);
  const ProcCount pool = steady_state_pool(cluster, choice);
  ProcCount spare = choice.estimate.r2 - pool;
  spare = spread_over_groups(schedule.group_sizes, spare, cluster.max_group());
  // Whatever the saturated groups could not take stays with the pool.
  schedule.post_pool = pool + spare;
  schedule.post_policy = PostPolicy::kPoolThenRetired;
  schedule.validate(cluster);
  return schedule;
}

GroupSchedule all_for_main_grouping(const platform::Cluster& cluster,
                                    const appmodel::Ensemble& ensemble) {
  const UniformChoice choice = best_uniform_grouping(cluster, ensemble);
  GroupSchedule schedule;
  schedule.group_sizes.assign(static_cast<std::size_t>(choice.estimate.nbmax),
                              choice.group_size);
  spread_over_groups(schedule.group_sizes, choice.estimate.r2,
                     cluster.max_group());
  schedule.post_pool = 0;
  schedule.post_policy = PostPolicy::kAllAtEnd;
  schedule.validate(cluster);
  return schedule;
}

knapsack::Problem grouping_knapsack(const platform::Cluster& cluster,
                                    Count max_groups) {
  knapsack::Problem problem;
  for (ProcCount g = cluster.min_group(); g <= cluster.max_group(); ++g)
    problem.items.push_back(knapsack::Item{g, 1.0 / cluster.main_time(g)});
  problem.capacity = cluster.resources();
  problem.max_items = max_groups;
  return problem;
}

namespace {

/// DP state space (k <= capacity/min_weight cardinality rows, capacity+1
/// weight columns, one relaxation per item kind) — the work a DP sweep does.
void count_dp_cells(const knapsack::Problem& problem, ProcCount min_group) {
  const long long k_rows =
      std::min<long long>(problem.max_items, problem.capacity / min_group) + 1;
  obs::metrics()
      .counter("sched.knapsack.dp_cells")
      .add(static_cast<std::uint64_t>(
          k_rows * (static_cast<long long>(problem.capacity) + 1) *
          static_cast<long long>(problem.items.size())));
}

/// Turns one knapsack solution into the paper's grouping decision: one group
/// per selected item (sizes descending), leftovers to the post pool.
GroupSchedule schedule_from_solution(const platform::Cluster& cluster,
                                     const knapsack::Solution& solution) {
  GroupSchedule schedule;
  for (std::size_t i = 0; i < solution.counts.size(); ++i) {
    const ProcCount size = cluster.min_group() + static_cast<ProcCount>(i);
    for (Count c = 0; c < solution.counts[i]; ++c)
      schedule.group_sizes.push_back(size);
  }
  std::sort(schedule.group_sizes.begin(), schedule.group_sizes.end(),
            std::greater<>());
  schedule.post_pool = cluster.resources() - solution.weight_used;
  schedule.post_policy = PostPolicy::kPoolThenRetired;
  schedule.validate(cluster);
  return schedule;
}

}  // namespace

GroupSchedule knapsack_grouping(const platform::Cluster& cluster,
                                const appmodel::Ensemble& ensemble) {
  ensemble.validate();
  OAGRID_REQUIRE(cluster.resources() >= cluster.min_group(),
                 "cluster too small for any group");
  const knapsack::Problem problem =
      grouping_knapsack(cluster, ensemble.scenarios);
  if (obs::enabled()) count_dp_cells(problem, cluster.min_group());
  return schedule_from_solution(cluster, knapsack::solve_dp(problem));
}

std::vector<GroupSchedule> knapsack_grouping_family(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble) {
  ensemble.validate();
  OAGRID_REQUIRE(cluster.resources() >= cluster.min_group(),
                 "cluster too small for any group");
  const knapsack::Problem problem =
      grouping_knapsack(cluster, ensemble.scenarios);
  if (obs::enabled()) {
    count_dp_cells(problem, cluster.min_group());
    // Solves the per-k route would have paid but the shared sweep does not.
    obs::metrics()
        .counter("sched.knapsack.family_reuse")
        .add(static_cast<std::uint64_t>(ensemble.scenarios - 1));
  }
  const std::vector<knapsack::Solution> family =
      knapsack::solve_dp_family(problem);
  std::vector<GroupSchedule> schedules;
  schedules.reserve(family.size());
  for (const knapsack::Solution& solution : family)
    schedules.push_back(schedule_from_solution(cluster, solution));
  return schedules;
}

namespace {

/// Metric-name slug per heuristic ("knapsack (imp.3)" is no metric name).
const char* metric_slug(Heuristic heuristic) noexcept {
  switch (heuristic) {
    case Heuristic::kBasic: return "basic";
    case Heuristic::kRedistribute: return "redistribute";
    case Heuristic::kAllForMain: return "all_for_main";
    case Heuristic::kKnapsack: return "knapsack";
  }
  return "unknown";
}

}  // namespace

GroupSchedule make_schedule(Heuristic heuristic,
                            const platform::Cluster& cluster,
                            const appmodel::Ensemble& ensemble) {
  const bool observed = obs::enabled();
  obs::ScopedTimer timer(
      observed ? &obs::metrics().histogram(std::string("sched.") +
                                           metric_slug(heuristic) + "_us")
               : nullptr);
  if (observed)
    obs::metrics()
        .counter(std::string("sched.") + metric_slug(heuristic) + ".schedules")
        .add();
  switch (heuristic) {
    case Heuristic::kBasic: return basic_grouping(cluster, ensemble);
    case Heuristic::kRedistribute: return redistribute_grouping(cluster, ensemble);
    case Heuristic::kAllForMain: return all_for_main_grouping(cluster, ensemble);
    case Heuristic::kKnapsack: return knapsack_grouping(cluster, ensemble);
  }
  throw std::invalid_argument("oagrid: unknown heuristic");
}

}  // namespace oagrid::sched
