#include "platform/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "platform/profiles.hpp"

namespace oagrid::platform {
namespace {

Cluster simple() { return Cluster("c", 40, 4, {100, 90, 80, 70}, 10); }

TEST(Cluster, Accessors) {
  const Cluster c = simple();
  EXPECT_EQ(c.name(), "c");
  EXPECT_EQ(c.resources(), 40);
  EXPECT_EQ(c.min_group(), 4);
  EXPECT_EQ(c.max_group(), 7);
  EXPECT_DOUBLE_EQ(c.main_time(4), 100);
  EXPECT_DOUBLE_EQ(c.main_time(7), 70);
  EXPECT_DOUBLE_EQ(c.post_time(), 10);
}

TEST(Cluster, MainTimeRangeEnforced) {
  const Cluster c = simple();
  EXPECT_THROW((void)c.main_time(3), std::invalid_argument);
  EXPECT_THROW((void)c.main_time(8), std::invalid_argument);
}

TEST(Cluster, Validation) {
  EXPECT_THROW(Cluster("x", 0, 4, {1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(Cluster("x", 10, 0, {1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(Cluster("x", 10, 4, {}, 1.0), std::invalid_argument);
  EXPECT_THROW(Cluster("x", 10, 4, {-1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(Cluster("x", 10, 4, {1.0}, -1.0), std::invalid_argument);
}

TEST(Cluster, ZeroPostTimeAllowedForSyntheticWorkloads) {
  const Cluster c("tailless", 10, 4, {5.0}, 0.0);
  EXPECT_DOUBLE_EQ(c.post_time(), 0.0);
}

TEST(Cluster, WithResources) {
  const Cluster c = simple().with_resources(99);
  EXPECT_EQ(c.resources(), 99);
  EXPECT_DOUBLE_EQ(c.main_time(4), 100);  // times unchanged
  EXPECT_THROW((void)simple().with_resources(0), std::invalid_argument);
}

TEST(Profiles, FiveProfilesSpanPaperAnchors) {
  ASSERT_EQ(make_builtin_grid(64).cluster_count(), 5);
  const Cluster fastest = make_builtin_cluster(0, 64);
  const Cluster slowest = make_builtin_cluster(4, 64);
  // §6: fastest runs one main task on 11 resources in 1177 s, slowest 1622 s.
  EXPECT_NEAR(fastest.main_time(11), 1177.0, 10.0);
  EXPECT_NEAR(slowest.main_time(11), 1622.0, 10.0);
}

TEST(Profiles, AllMonotoneAndOrderedBySpeed) {
  for (int i = 0; i < 5; ++i) {
    const Cluster c = make_builtin_cluster(i, 32);
    EXPECT_TRUE(std::is_sorted(c.main_times().begin(), c.main_times().end(),
                               std::greater<>()))
        << i;
  }
  for (int i = 0; i + 1 < 5; ++i)
    EXPECT_LT(make_builtin_cluster(i, 32).main_time(11),
              make_builtin_cluster(i + 1, 32).main_time(11));
}

TEST(Profiles, PostTimeScalesWithProfile) {
  const Cluster reference = make_builtin_cluster(1, 32);
  EXPECT_NEAR(reference.post_time(), 180.0, 1e-9);
  const Cluster slowest = make_builtin_cluster(4, 32);
  EXPECT_GT(slowest.post_time(), reference.post_time());
}

TEST(Profiles, IndexRangeEnforced) {
  EXPECT_THROW((void)make_builtin_cluster(-1, 32), std::invalid_argument);
  EXPECT_THROW((void)make_builtin_cluster(5, 32), std::invalid_argument);
}

TEST(Profiles, PaperRatioMainOverPost) {
  // Figure 1's 1260 s pcr vs 180 s post gives the exact 7:1 ratio the paper's
  // worked example relies on; the reference profile must preserve it.
  const Cluster reference = make_builtin_cluster(1, 32);
  EXPECT_NEAR(reference.main_time(11) / reference.post_time(), 7.0, 0.05);
}

}  // namespace
}  // namespace oagrid::platform
