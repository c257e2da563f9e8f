#include "sim/optimal_search.hpp"

#include <gtest/gtest.h>

#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sched/lower_bounds.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;

TEST(OptimalSearch, CandidateCountMatchesEnumeration) {
  const auto c = platform::make_builtin_cluster(1, 11);
  // Multisets from sizes 4..11 with total <= 11, <= 2 parts:
  // singles: 4..11 (8); pairs: {4,4} {4,5} {4,6} {4,7} {5,5} {5,6} -> 6.
  EXPECT_EQ(count_grouping_candidates(c, 2), 14u);
}

TEST(OptimalSearch, CapGuards) {
  const auto c = platform::make_builtin_cluster(1, 90);
  EXPECT_THROW((void)optimal_grouping_search(c, Ensemble{10, 4}, 10),
               std::invalid_argument);
}

TEST(OptimalSearch, FindsExactOptimumOnTinyCase) {
  // R = 11, NS = 2, NM = 4: small enough to reason about. The oracle must be
  // at least as good as every heuristic.
  const auto c = platform::make_builtin_cluster(1, 11);
  const Ensemble e{2, 4};
  const GroupingSearchResult best = optimal_grouping_search(c, e);
  EXPECT_GT(best.evaluated, 0u);
  for (const auto h :
       {sched::Heuristic::kBasic, sched::Heuristic::kRedistribute,
        sched::Heuristic::kAllForMain, sched::Heuristic::kKnapsack}) {
    const Seconds ms = simulate_with_heuristic(c, h, e).makespan;
    EXPECT_GE(ms, best.makespan - 1e-6) << to_string(h);
  }
}

TEST(OptimalSearch, RespectsLowerBound) {
  const auto c = platform::make_builtin_cluster(1, 23);
  const Ensemble e{3, 6};
  const GroupingSearchResult best = optimal_grouping_search(c, e);
  EXPECT_GE(best.makespan,
            sched::ensemble_lower_bounds(c, e).combined() - 1e-6);
}

TEST(OptimalSearch, KnapsackCloseToOracleAcrossSmallSweep) {
  // The headline optimality-gap result: knapsack within a few percent of the
  // exhaustive optimum of the model.
  const Ensemble e{4, 8};
  for (const ProcCount r : {13, 19, 26, 33}) {
    const auto c = platform::make_builtin_cluster(1, r);
    const GroupingSearchResult best = optimal_grouping_search(c, e);
    const Seconds knap =
        simulate_with_heuristic(c, sched::Heuristic::kKnapsack, e).makespan;
    EXPECT_LE(knap / best.makespan, 1.08) << "R=" << r;
  }
}

TEST(OptimalSearch, BestScheduleIsValid) {
  const auto c = platform::make_builtin_cluster(2, 20);
  const Ensemble e{3, 5};
  const GroupingSearchResult best = optimal_grouping_search(c, e);
  EXPECT_NO_THROW(best.best.validate(c));
  // Re-simulating the reported schedule reproduces the reported makespan.
  EXPECT_DOUBLE_EQ(simulate_ensemble(c, best.best, e).makespan, best.makespan);
}

}  // namespace
}  // namespace oagrid::sim
