#pragma once
/// \file heuristics.hpp
/// \brief The paper's four grouping heuristics (§4.1 and the three
/// improvements of §4.2), each producing a GroupSchedule.

#include "appmodel/ensemble.hpp"
#include "knapsack/knapsack.hpp"
#include "sched/group_schedule.hpp"
#include "sched/makespan_model.hpp"

namespace oagrid::sched {

/// Heuristic selector used by benches and the middleware.
enum class Heuristic {
  kBasic,         ///< §4.1 — uniform G, leftovers to the post pool
  kRedistribute,  ///< Improvement 1 — idle leftovers spread over the groups
  kAllForMain,    ///< Improvement 2 — everything to groups, posts at the end
  kKnapsack,      ///< Improvement 3 — group multiset chosen by knapsack
};

[[nodiscard]] const char* to_string(Heuristic heuristic) noexcept;

/// §4.1: nbmax identical groups of the best uniform size; R2 leftover
/// processors form the dedicated post pool.
[[nodiscard]] GroupSchedule basic_grouping(const platform::Cluster& cluster,
                                           const appmodel::Ensemble& ensemble);

/// Improvement 1: compute the basic grouping, shrink the post pool to the
/// smallest size that keeps up with one set's posts (ceil(nbmax /
/// floor(TG/TP)) processors), and hand the freed processors to the groups,
/// one each in round-robin, never exceeding the cluster's max group size.
/// Reproduces the paper's example: R = 53, NS = 10 -> 3x8 + 4x7, pool 1.
[[nodiscard]] GroupSchedule redistribute_grouping(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble);

/// Improvement 2: like redistribute, but the pool is emptied entirely (posts
/// wait for the end of all main tasks and then run on the whole cluster).
[[nodiscard]] GroupSchedule all_for_main_grouping(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble);

/// The §4.2 knapsack instance of `cluster`: one item per admissible group
/// size g, weighing g processors and worth 1/T[g], capacity R, and at most
/// `max_groups` groups. Every knapsack over a cluster's table is built here.
[[nodiscard]] knapsack::Problem grouping_knapsack(
    const platform::Cluster& cluster, Count max_groups);

/// Improvement 3: the knapsack formulation — maximize sum n_i / T[i] with
/// sum i*n_i <= R and sum n_i <= NS (never more groups than runnable
/// scenarios); leftover processors form the post pool.
[[nodiscard]] GroupSchedule knapsack_grouping(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble);

/// Family form of Improvement 3: the knapsack grouping for *every* scenario
/// count k = 1..ensemble.scenarios, all extracted from a single DP sweep
/// (knapsack::solve_dp_family). result[k-1] is bit-identical to
/// knapsack_grouping on an ensemble of k scenarios; one call replaces NS
/// independent DP solves when building a §5 performance vector. Emits the
/// `sched.knapsack.family_reuse` counter (solves avoided) when observability
/// is on.
[[nodiscard]] std::vector<GroupSchedule> knapsack_grouping_family(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble);

/// Dispatch by enum.
[[nodiscard]] GroupSchedule make_schedule(Heuristic heuristic,
                                          const platform::Cluster& cluster,
                                          const appmodel::Ensemble& ensemble);

}  // namespace oagrid::sched
