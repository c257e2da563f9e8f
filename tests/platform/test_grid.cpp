#include "platform/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/rng.hpp"
#include "platform/profiles.hpp"

namespace oagrid::platform {
namespace {

TEST(Grid, AddAndLookup) {
  Grid grid;
  EXPECT_EQ(grid.cluster_count(), 0);
  const ClusterId id = grid.add_cluster(Cluster("a", 10, 4, {5.0}, 1.0));
  EXPECT_EQ(id, 0);
  EXPECT_EQ(grid.cluster(0).name(), "a");
  EXPECT_THROW((void)grid.cluster(1), std::invalid_argument);
  EXPECT_THROW((void)grid.cluster(-1), std::invalid_argument);
}

TEST(Grid, TotalResources) {
  Grid grid;
  grid.add_cluster(Cluster("a", 10, 4, {5.0}, 1.0));
  grid.add_cluster(Cluster("b", 25, 4, {5.0}, 1.0));
  EXPECT_EQ(grid.total_resources(), 35);
}

TEST(Grid, Prefix) {
  const Grid grid = make_builtin_grid(32);
  EXPECT_EQ(grid.prefix(2).cluster_count(), 2);
  EXPECT_EQ(grid.prefix(0).cluster_count(), 0);
  EXPECT_EQ(grid.prefix(2).cluster(1).name(), grid.cluster(1).name());
  EXPECT_THROW((void)grid.prefix(6), std::invalid_argument);
}

TEST(Grid, BuiltinGridHasFiveClusters) {
  const Grid grid = make_builtin_grid(53);
  EXPECT_EQ(grid.cluster_count(), 5);
  EXPECT_EQ(grid.total_resources(), 5 * 53);
}

TEST(Grid, RandomGridRespectsBounds) {
  Rng rng(1);
  const Grid grid = make_random_grid(8, 15, 60, rng);
  EXPECT_EQ(grid.cluster_count(), 8);
  for (const auto& c : grid.clusters()) {
    EXPECT_GE(c.resources(), 15);
    EXPECT_LE(c.resources(), 60);
    EXPECT_TRUE(std::is_sorted(c.main_times().begin(), c.main_times().end(),
                               std::greater<>()));
    EXPECT_EQ(c.min_group(), 4);
    EXPECT_EQ(c.max_group(), 11);
  }
}

TEST(Grid, RandomGridDeterministicPerSeed) {
  Rng rng1(7), rng2(7);
  const Grid a = make_random_grid(3, 20, 40, rng1);
  const Grid b = make_random_grid(3, 20, 40, rng2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.cluster(i).resources(), b.cluster(i).resources());
    EXPECT_DOUBLE_EQ(a.cluster(i).main_time(7), b.cluster(i).main_time(7));
  }
}

TEST(Grid, RandomGridValidation) {
  Rng rng(1);
  EXPECT_THROW((void)make_random_grid(0, 10, 20, rng), std::invalid_argument);
  EXPECT_THROW((void)make_random_grid(2, 20, 10, rng), std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::platform
