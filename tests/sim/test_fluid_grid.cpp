#include "sim/fluid_grid.hpp"

#include <gtest/gtest.h>

#include "platform/profiles.hpp"
#include "sched/throughput.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;

TEST(FluidCluster, AssignAndDrain) {
  FluidCluster cluster(platform::make_builtin_cluster(1, 22), 10);
  EXPECT_TRUE(cluster.idle());
  cluster.assign(0);
  cluster.assign(1);
  EXPECT_EQ(cluster.resident(), 2);
  EXPECT_DOUBLE_EQ(cluster.months_remaining(), 20.0);
  EXPECT_TRUE(cluster.has_unstarted());

  // Drain completely with a huge epoch: used time equals the projection.
  const double projection = cluster.projected_drain(1.0);
  const double used = cluster.advance(1e12, 1.0);
  EXPECT_TRUE(cluster.idle());
  EXPECT_NEAR(used, projection, 1e-6 * projection);
}

TEST(FluidCluster, ThroughputMatchesKnapsack) {
  const auto base = platform::make_builtin_cluster(1, 30);
  FluidCluster cluster(base, 12);
  cluster.assign(0);
  cluster.assign(1);
  cluster.assign(2);
  EXPECT_DOUBLE_EQ(cluster.throughput(), sched::best_throughput(base, 3));
}

TEST(FluidCluster, SpeedScalesDrainTime) {
  const auto base = platform::make_builtin_cluster(1, 22);
  FluidCluster slow(base, 10), fast(base, 10);
  slow.assign(0);
  fast.assign(0);
  EXPECT_NEAR(slow.projected_drain(0.5), 2.0 * fast.projected_drain(1.0),
              1e-9);
}

TEST(FluidCluster, PartialAdvanceTracksProgress) {
  FluidCluster cluster(platform::make_builtin_cluster(1, 22), 10);
  cluster.assign(0);
  const double half = cluster.projected_drain(1.0) / 2.0;
  EXPECT_DOUBLE_EQ(cluster.advance(half, 1.0), half);
  EXPECT_NEAR(cluster.months_remaining(), 5.0, 1e-9);
  EXPECT_FALSE(cluster.has_unstarted());
}

TEST(FluidCluster, RemoveUnstartedOnlyRemovesFresh) {
  FluidCluster cluster(platform::make_builtin_cluster(1, 22), 10);
  cluster.assign(0);
  cluster.advance(10.0, 1.0);  // starts it
  EXPECT_FALSE(cluster.has_unstarted());
  EXPECT_THROW(cluster.remove_unstarted(), std::invalid_argument);
  cluster.assign(1);
  EXPECT_TRUE(cluster.has_unstarted());
  cluster.remove_unstarted();
  EXPECT_EQ(cluster.resident(), 1);
}

TEST(DynamicGrid, NoDriftMatchesAnalyticRepartition) {
  const auto grid = platform::make_builtin_grid(30);
  const Ensemble ensemble{10, 60};
  DriftModel drift;
  drift.sigma = 0.0;
  drift.epoch_length = 3600.0;
  const auto result =
      simulate_dynamic_grid(grid, ensemble, GridPolicy::kStatic, drift);

  // Fluid makespan must match the analytic performance-vector makespan (both
  // are steady-state throughput models) within the post-tail slack.
  std::vector<sched::PerformanceVector> perf;
  for (const auto& c : grid.clusters())
    perf.push_back(sched::throughput_performance_vector(c, 10, 60));
  const auto repartition = sched::greedy_repartition(perf, 10);
  EXPECT_NEAR(result.makespan, repartition.makespan,
              0.02 * repartition.makespan);
  EXPECT_EQ(result.migrations, 0);
}

TEST(DynamicGrid, NoDriftPoliciesAgree) {
  const auto grid = platform::make_builtin_grid(25).prefix(3);
  const Ensemble ensemble{8, 24};
  DriftModel drift;
  drift.sigma = 0.0;
  const auto fixed =
      simulate_dynamic_grid(grid, ensemble, GridPolicy::kStatic, drift);
  const auto dynamic = simulate_dynamic_grid(
      grid, ensemble, GridPolicy::kRebalanceUnstarted, drift);
  // With Algorithm 1's optimal initial placement and no drift, migration
  // never helps meaningfully.
  EXPECT_NEAR(fixed.makespan, dynamic.makespan, 0.02 * fixed.makespan);
}

TEST(DynamicGrid, UnstartedRebalanceNeverHurtsOnAggregate) {
  // The free relaxation only acts before the first month starts, so its
  // effect is small — but must not be negative in aggregate.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{10, 120};
  double static_total = 0.0, dynamic_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DriftModel drift;
    drift.sigma = 0.25;
    drift.epoch_length = 4.0 * 3600.0;
    drift.seed = seed;
    static_total +=
        simulate_dynamic_grid(grid, ensemble, GridPolicy::kStatic, drift)
            .makespan;
    dynamic_total += simulate_dynamic_grid(
                         grid, ensemble, GridPolicy::kRebalanceUnstarted, drift)
                         .makespan;
  }
  EXPECT_LE(dynamic_total, static_total * 1.01);
}

TEST(DynamicGrid, StatefulMigrationHelpsUnderDrift) {
  // With restart-file migration the whole run is correctable: the dynamic
  // policy must beat the paper's static placement on aggregate and on most
  // seeds.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{10, 120};
  double static_total = 0.0, dynamic_total = 0.0;
  int helped = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DriftModel drift;
    drift.sigma = 0.25;
    drift.epoch_length = 4.0 * 3600.0;
    drift.seed = seed;
    const auto fixed =
        simulate_dynamic_grid(grid, ensemble, GridPolicy::kStatic, drift);
    const auto dynamic = simulate_dynamic_grid(
        grid, ensemble, GridPolicy::kMigrateWithState, drift);
    static_total += fixed.makespan;
    dynamic_total += dynamic.makespan;
    helped += dynamic.makespan < fixed.makespan - 1.0;
  }
  EXPECT_LT(dynamic_total, 0.97 * static_total);
  EXPECT_GE(helped, 6);
}

TEST(DynamicGrid, MigrationsOnlyWithDynamicPolicies) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{10, 120};
  DriftModel drift;
  drift.sigma = 0.3;
  drift.seed = 3;
  const auto fixed =
      simulate_dynamic_grid(grid, ensemble, GridPolicy::kStatic, drift);
  EXPECT_EQ(fixed.migrations, 0);
  const auto stateful = simulate_dynamic_grid(
      grid, ensemble, GridPolicy::kMigrateWithState, drift);
  EXPECT_GT(stateful.migrations, 0);
}

TEST(DynamicGrid, HigherMigrationCostMeansFewerMigrations) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{10, 120};
  DriftModel cheap;
  cheap.sigma = 0.25;
  cheap.seed = 5;
  cheap.migration_cost_override = 60.0;
  DriftModel expensive = cheap;
  expensive.migration_cost_override = 4.0 * 3600.0;
  const auto many = simulate_dynamic_grid(
      grid, ensemble, GridPolicy::kMigrateWithState, cheap);
  const auto few = simulate_dynamic_grid(
      grid, ensemble, GridPolicy::kMigrateWithState, expensive);
  EXPECT_GE(many.migrations, few.migrations);
}

TEST(DynamicGrid, NetworkPricesMigrationCost) {
  // With a network attached the per-pair cost is the state's transfer_time.
  DriftModel drift;
  drift.network = net::renater_network(3);
  drift.migration_state_mb = 120.0;
  EXPECT_DOUBLE_EQ(drift.migration_cost(0, 1),
                   drift.network.transfer_time(0, 1, 120.0));
  // The scalar override wins even with a network attached.
  drift.migration_cost_override = 42.0;
  EXPECT_DOUBLE_EQ(drift.migration_cost(0, 1), 42.0);
  // No network, no override: the legacy flat stall.
  DriftModel legacy;
  EXPECT_DOUBLE_EQ(legacy.migration_cost(0, 2), kLegacyMigrationCost);
}

TEST(DynamicGrid, BandwidthMovesTheMigrationBreakEven) {
  // The ISSUE's acceptance scenario: the same drifting campaign migrates
  // freely over a fat network and falls back toward static behavior when
  // the restart file must crawl over a skinny link.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{10, 120};

  int fat_migrations = 0, skinny_migrations = 0;
  double fat_total = 0.0, skinny_total = 0.0, static_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DriftModel fat;
    fat.sigma = 0.25;
    fat.epoch_length = 4.0 * 3600.0;
    fat.seed = seed;
    fat.network = net::uniform_network(
        static_cast<int>(grid.cluster_count()), net::LinkSpec{1000.0, 0.001});
    DriftModel skinny = fat;
    // ~0.01 MB/s: shipping 120 MB stalls the scenario for ~3.3 hours.
    skinny.network = net::uniform_network(
        static_cast<int>(grid.cluster_count()), net::LinkSpec{0.01, 0.1});

    const auto fat_run = simulate_dynamic_grid(
        grid, ensemble, GridPolicy::kMigrateWithState, fat);
    const auto skinny_run = simulate_dynamic_grid(
        grid, ensemble, GridPolicy::kMigrateWithState, skinny);
    const auto static_run =
        simulate_dynamic_grid(grid, ensemble, GridPolicy::kStatic, fat);
    fat_migrations += fat_run.migrations;
    skinny_migrations += skinny_run.migrations;
    fat_total += fat_run.makespan;
    skinny_total += skinny_run.makespan;
    static_total += static_run.makespan;
    // Stall accounting is consistent with the migration count.
    if (fat_run.migrations > 0) {
      EXPECT_GT(fat_run.migration_seconds, 0.0);
    }
    if (skinny_run.migrations == 0) {
      EXPECT_EQ(skinny_run.migration_seconds, 0.0);
    }
  }
  // Cheap state shipping -> migrate more; expensive -> migrate less.
  EXPECT_GT(fat_migrations, skinny_migrations);
  // And the fat network actually converts those migrations into makespan.
  EXPECT_LT(fat_total, 0.99 * static_total);
  // The skinny network never does worse than ~static (the policy only
  // migrates when the priced move still wins).
  EXPECT_LE(skinny_total, 1.02 * static_total);
}

TEST(DynamicGrid, NetworkClusterCountValidated) {
  const auto grid = platform::make_builtin_grid(20);  // 5 clusters
  DriftModel drift;
  drift.network = net::renater_network(2);
  EXPECT_THROW((void)simulate_dynamic_grid(grid, Ensemble{4, 12},
                                           GridPolicy::kMigrateWithState,
                                           drift),
               std::invalid_argument);
}

TEST(DynamicGrid, DeterministicInSeed) {
  const auto grid = platform::make_builtin_grid(20).prefix(3);
  const Ensemble ensemble{6, 36};
  DriftModel drift;
  drift.sigma = 0.2;
  drift.seed = 11;
  const auto a = simulate_dynamic_grid(grid, ensemble,
                                       GridPolicy::kRebalanceUnstarted, drift);
  const auto b = simulate_dynamic_grid(grid, ensemble,
                                       GridPolicy::kRebalanceUnstarted, drift);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.migrations, b.migrations);
}

TEST(DynamicGrid, Validation) {
  const auto grid = platform::make_builtin_grid(20);
  DriftModel bad;
  bad.epoch_length = 0.0;
  EXPECT_THROW((void)simulate_dynamic_grid(grid, Ensemble{2, 2},
                                           GridPolicy::kStatic, bad),
               std::invalid_argument);
  const platform::Grid empty;
  EXPECT_THROW((void)simulate_dynamic_grid(empty, Ensemble{2, 2},
                                           GridPolicy::kStatic, DriftModel{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::sim
