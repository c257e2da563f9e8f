/// \file test_randomized_properties.cpp
/// \brief Randomized cross-validation: the closed-form model, the DES, the
/// knapsack machinery and the heuristics agree on their contracts for
/// arbitrary (not just built-in) platforms.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/makespan_model.hpp"
#include "sched/throughput.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;

/// Random cluster with a *divisible* table (TG multiples of TP) so the
/// closed form is exact.
platform::Cluster random_divisible_cluster(Rng& rng) {
  const Seconds tp = rng.uniform(5.0, 50.0);
  std::vector<Seconds> tg;
  Count multiple = rng.uniform_int(20, 60);
  for (int i = 0; i < 8; ++i) {
    tg.push_back(tp * static_cast<double>(multiple));
    // Non-increasing but with random plateaus and drops.
    multiple -= rng.uniform_int(0, 4);
    multiple = std::max<Count>(multiple, 2);
  }
  const auto r = static_cast<ProcCount>(rng.uniform_int(11, 120));
  return platform::Cluster("rand", r, 4, std::move(tg), tp);
}

TEST(RandomizedProperties, FormulaMatchesSimulationOnDivisibleTables) {
  Rng rng(4242);
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const platform::Cluster cluster = random_divisible_cluster(rng);
    const Ensemble ensemble{rng.uniform_int(1, 10), rng.uniform_int(1, 20)};
    for (ProcCount g = 4; g <= 11 && g <= cluster.resources(); ++g) {
      const auto analytic =
          sched::evaluate_uniform_grouping(cluster, ensemble, g);
      if (analytic.regime == sched::MakespanRegime::kInfeasible) continue;
      sched::GroupSchedule schedule;
      schedule.group_sizes.assign(
          static_cast<std::size_t>(analytic.nbmax), g);
      schedule.post_pool = analytic.r2;
      const SimResult simulated =
          simulate_ensemble(cluster, schedule, ensemble);
      ASSERT_NEAR(simulated.makespan, analytic.makespan,
                  1e-6 * analytic.makespan)
          << "trial " << trial << " R=" << cluster.resources() << " G=" << g
          << " NS=" << ensemble.scenarios << " NM=" << ensemble.months
          << " regime " << to_string(analytic.regime);
      ++checked;
    }
  }
  EXPECT_GT(checked, 200);  // the sweep actually exercised many regimes
}

TEST(RandomizedProperties, HeuristicsRespectBoundsOnRandomGrids) {
  Rng rng(777);
  for (int trial = 0; trial < 25; ++trial) {
    const auto grid = platform::make_random_grid(1, 11, 120, rng);
    const auto& cluster = grid.cluster(0);
    const Ensemble ensemble{rng.uniform_int(2, 10), rng.uniform_int(2, 12)};
    const Seconds bound =
        sched::ensemble_lower_bounds(cluster, ensemble).combined();
    for (const auto h :
         {sched::Heuristic::kBasic, sched::Heuristic::kRedistribute,
          sched::Heuristic::kAllForMain, sched::Heuristic::kKnapsack}) {
      const SimResult result =
          simulate_with_heuristic(cluster, h, ensemble);
      EXPECT_GE(result.makespan, bound - 1e-6)
          << to_string(h) << " trial " << trial;
      EXPECT_EQ(result.mains_executed, ensemble.total_tasks());
      EXPECT_EQ(result.posts_executed, ensemble.total_tasks());
    }
  }
}

TEST(RandomizedProperties, KnapsackThroughputDominatesBasic) {
  // The knapsack objective is by construction >= the basic grouping's
  // throughput on every platform.
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const auto grid = platform::make_random_grid(1, 11, 120, rng);
    const auto& cluster = grid.cluster(0);
    const Ensemble ensemble{rng.uniform_int(1, 10), 30};
    const auto basic = sched::basic_grouping(cluster, ensemble);
    double basic_value = 0.0;
    for (const ProcCount g : basic.group_sizes)
      basic_value += 1.0 / cluster.main_time(g);
    EXPECT_GE(sched::best_throughput(cluster, ensemble.scenarios),
              basic_value - 1e-12)
        << "trial " << trial;
  }
}

TEST(RandomizedProperties, TraceInvariantsOnRandomPlatforms) {
  Rng rng(999);
  for (int trial = 0; trial < 15; ++trial) {
    const auto grid = platform::make_random_grid(1, 11, 80, rng);
    const Ensemble ensemble{rng.uniform_int(2, 6), rng.uniform_int(2, 8)};
    SimOptions options;
    options.capture_trace = true;
    const SimResult result = simulate_with_heuristic(
        grid.cluster(0), sched::Heuristic::kKnapsack, ensemble, options);
    EXPECT_EQ(result.trace.verify(), "") << "trial " << trial;
  }
}

TEST(RandomizedProperties, PerturbedRunsStillConserveWork) {
  Rng rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    const auto grid = platform::make_random_grid(1, 15, 60, rng);
    const Ensemble ensemble{3, 6};
    SimOptions options;
    options.perturbation.duration_jitter = rng.uniform(0.0, 0.3);
    options.perturbation.failure_probability = rng.uniform(0.0, 0.4);
    options.perturbation.seed = static_cast<std::uint64_t>(trial) + 1;
    const SimResult result = simulate_with_heuristic(
        grid.cluster(0), sched::Heuristic::kKnapsack, ensemble, options);
    EXPECT_EQ(result.mains_executed, 18) << "trial " << trial;
    EXPECT_EQ(result.posts_executed, 18) << "trial " << trial;
  }
}

}  // namespace
}  // namespace oagrid::sim
