#include "service/estimator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/checkpoint.hpp"
#include "platform/profiles.hpp"
#include "service/service.hpp"

namespace oagrid::service {
namespace {

platform::Grid test_grid() { return platform::make_builtin_grid(25).prefix(3); }

TEST(FailureAwareEstimator, InactiveModelPassesThroughExactly) {
  const platform::Grid grid = test_grid();
  AnalyticEstimator analytic;
  FailureAwareEstimator estimator(analytic, grid,
                                  fault::FailureModel(grid.cluster_count()));

  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const auto inner =
        analytic.vector(grid.cluster(c), 8, 24, sched::Heuristic::kKnapsack);
    const auto wrapped =
        estimator.vector(grid.cluster(c), 8, 24, sched::Heuristic::kKnapsack);
    ASSERT_EQ(wrapped.size(), inner.size());
    for (std::size_t k = 0; k < inner.size(); ++k)
      EXPECT_EQ(wrapped[k], inner[k]);  // exact pass-through, not NEAR
  }
}

TEST(FailureAwareEstimator, UnknownClusterNamePassesThrough) {
  const platform::Grid grid = test_grid();
  AnalyticEstimator analytic;
  fault::FailureModel model =
      fault::FailureModel::uniform_exponential(grid.cluster_count(), 30000.0,
                                               2000.0);
  FailureAwareEstimator estimator(analytic, grid, model);

  const auto stranger = platform::make_builtin_cluster(4, 25)
                            .with_resources(20);  // not in the grid
  const auto inner =
      analytic.vector(stranger, 6, 12, sched::Heuristic::kKnapsack);
  const auto wrapped =
      estimator.vector(stranger, 6, 12, sched::Heuristic::kKnapsack);
  ASSERT_EQ(wrapped.size(), inner.size());
  for (std::size_t k = 0; k < inner.size(); ++k)
    EXPECT_EQ(wrapped[k], inner[k]);
}

TEST(FailureAwareEstimator, InflationMatchesExpectedMakespan) {
  const platform::Grid grid = test_grid();
  const Count scenarios = 6, months = 24;
  const MonthIndex cadence = 3;

  fault::FailureModel model(grid.cluster_count());
  model.set_exponential(0, 40000.0, 2000.0);

  AnalyticEstimator analytic;
  FailureAwareEstimator estimator(analytic, grid, model, cadence);

  const auto inner = analytic.vector(grid.cluster(0), scenarios, months,
                                     sched::Heuristic::kKnapsack);
  const auto wrapped = estimator.vector(grid.cluster(0), scenarios, months,
                                        sched::Heuristic::kKnapsack);
  ASSERT_EQ(wrapped.size(), inner.size());
  for (std::size_t i = 0; i < inner.size(); ++i) {
    const double k = static_cast<double>(i) + 1.0;
    const Seconds period = inner[i] * static_cast<double>(cadence) /
                           (k * static_cast<double>(months));
    EXPECT_EQ(wrapped[i],
              fault::expected_makespan(inner[i], model.process(0), period));
    EXPECT_GT(wrapped[i], inner[i]);  // failures only ever cost time
  }

  // Clusters without a process stay exact.
  const auto quiet_inner = analytic.vector(grid.cluster(1), scenarios, months,
                                           sched::Heuristic::kKnapsack);
  const auto quiet = estimator.vector(grid.cluster(1), scenarios, months,
                                      sched::Heuristic::kKnapsack);
  for (std::size_t i = 0; i < quiet.size(); ++i)
    EXPECT_EQ(quiet[i], quiet_inner[i]);
}

TEST(FailureAwareEstimator, DeadClusterBecomesUnavailable) {
  const platform::Grid grid = test_grid();
  fault::FailureModel model(grid.cluster_count());
  model.set_down(2);

  AnalyticEstimator analytic;
  FailureAwareEstimator estimator(analytic, grid, model);
  const auto vec =
      estimator.vector(grid.cluster(2), 6, 24, sched::Heuristic::kKnapsack);
  for (const Seconds entry : vec) EXPECT_EQ(entry, fault::kUnavailableTime);
}

TEST(FailureAwareEstimator, RejectsMismatchedModelAndCadence) {
  const platform::Grid grid = test_grid();
  AnalyticEstimator analytic;
  EXPECT_THROW(FailureAwareEstimator(analytic, grid, fault::FailureModel(1)),
               std::invalid_argument);
  EXPECT_THROW(FailureAwareEstimator(analytic, grid,
                                     fault::FailureModel(grid.cluster_count()),
                                     0),
               std::invalid_argument);
  // Processes are found by cluster name, so a repeated name would alias
  // the second cluster's process onto the first.
  const platform::Grid aliased({platform::make_builtin_cluster(0, 20),
                                platform::make_builtin_cluster(0, 20)});
  EXPECT_THROW(FailureAwareEstimator(analytic, aliased, fault::FailureModel(2)),
               std::invalid_argument);
}

TEST(FailureAwareEstimator, ServiceCompletesWithDeadCluster) {
  // The deadlock regression: a campaign whose lease plan includes a dead
  // cluster must still finish — the estimator marks the cluster unavailable,
  // Algorithm 1 places nothing there, and the service degrades the lease.
  const platform::Grid grid = test_grid();
  fault::FailureModel model(grid.cluster_count());
  model.set_down(0);  // kill the *fastest* cluster

  AnalyticEstimator analytic;
  FailureAwareEstimator estimator(analytic, grid, model);

  ServiceOptions options;
  options.max_active = 2;
  options.estimator = &estimator;
  CampaignService service(grid, options);

  CampaignSpec spec;
  spec.owner = "alice";
  spec.scenarios = 8;
  spec.months = 24;
  const auto a = service.submit(spec, 0.0);
  spec.owner = "bob";
  const auto b = service.submit(spec, 100.0);

  ASSERT_TRUE(service.run());
  EXPECT_GT(service.campaign(a).makespan(), 0.0);
  EXPECT_GT(service.campaign(b).makespan(), 0.0);
  EXPECT_LT(service.campaign(a).makespan(), fault::kUnavailableTime);
  EXPECT_LT(service.campaign(b).makespan(), fault::kUnavailableTime);
}

}  // namespace
}  // namespace oagrid::service
