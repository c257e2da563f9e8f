#pragma once
/// \file optimal_search.hpp
/// \brief Brute-force grouping oracle: enumerate every group-size multiset
/// and evaluate each with the discrete-event simulator.
///
/// The paper never reports how far its heuristics sit from the true optimum
/// of its own model; this oracle answers that (bench_optimality). The search
/// space is every multiset of sizes in [min_group, max_group] with total
/// processors <= R and cardinality <= NS — a few thousand candidates at
/// paper scale, each costed by one exact simulation.

#include "appmodel/ensemble.hpp"
#include "platform/cluster.hpp"
#include "sched/group_schedule.hpp"

namespace oagrid::sim {

struct GroupingSearchResult {
  sched::GroupSchedule best;
  Seconds makespan = kInfiniteTime;
  std::size_t evaluated = 0;  ///< candidate multisets simulated
};

/// Exhaustive search over group multisets; the processors left over become
/// the post pool (kPoolThenRetired). Throws if enumeration would exceed
/// `max_candidates` (guard against accidental R = 1000 calls). Months can be
/// scaled down: the grouping ranking is months-stable once past a few sets.
///
/// Candidates are evaluated in parallel on the shared thread pool through
/// the process-wide eval cache; the winner is picked by a sequential
/// first-min scan in enumeration order, so the result is bit-identical to
/// the serial search (a call from inside a zero-worker pool's region) at any
/// pool width.
[[nodiscard]] GroupingSearchResult optimal_grouping_search(
    const platform::Cluster& cluster, const appmodel::Ensemble& ensemble,
    std::size_t max_candidates = 200000);

/// Counts the candidate multisets without simulating (cost preview).
[[nodiscard]] std::size_t count_grouping_candidates(
    const platform::Cluster& cluster, Count max_groups);

}  // namespace oagrid::sim
