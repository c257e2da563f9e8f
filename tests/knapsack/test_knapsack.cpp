#include "knapsack/knapsack.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "common/rng.hpp"

namespace oagrid::knapsack {
namespace {

Problem paper_items(int capacity, Count max_items) {
  // The paper's item universe: group sizes 4..11, value 1/T[G] from the
  // reference coupled table.
  const double times[] = {4724, 2904, 2177, 1854, 1662, 1539, 1456, 1260};
  Problem p;
  for (int i = 0; i < 8; ++i) p.items.push_back(Item{4 + i, 1.0 / times[i]});
  p.capacity = capacity;
  p.max_items = max_items;
  return p;
}

TEST(Knapsack, ValidationRejectsBadInstances) {
  Problem p;
  EXPECT_THROW(validate(p), std::invalid_argument);  // no items
  p.items.push_back(Item{0, 1.0});
  EXPECT_THROW(validate(p), std::invalid_argument);  // zero weight
  p.items[0] = Item{1, -1.0};
  EXPECT_THROW(validate(p), std::invalid_argument);  // negative value
  p.items[0] = Item{1, 1.0};
  p.capacity = -1;
  EXPECT_THROW(validate(p), std::invalid_argument);
  p.capacity = 1;
  p.max_items = -1;
  EXPECT_THROW(validate(p), std::invalid_argument);
}

TEST(Knapsack, ZeroCapacityYieldsEmptySolution) {
  const Problem p = paper_items(0, 10);
  for (const auto& solver : {solve_dp, solve_exhaustive}) {
    const Solution s = solver(p);
    EXPECT_EQ(s.items_used, 0);
    EXPECT_DOUBLE_EQ(s.value, 0.0);
  }
}

TEST(Knapsack, ZeroCardinalityYieldsEmptySolution) {
  const Problem p = paper_items(100, 0);
  const Solution s = solve_dp(p);
  EXPECT_EQ(s.items_used, 0);
}

TEST(Knapsack, CapacityBelowSmallestItem) {
  const Problem p = paper_items(3, 10);
  const Solution s = solve_dp(p);
  EXPECT_EQ(s.items_used, 0);
  EXPECT_EQ(s.weight_used, 0);
}

TEST(Knapsack, ElevenProcessorsPreferTwoSmallGroups) {
  const Problem p = paper_items(11, 10);
  const Solution s = solve_dp(p);
  // A nice non-obvious optimum: {5, 6} yields 1/2904 + 1/2177 ~ 8.04e-4,
  // beating the single group of 11 (1/1260 ~ 7.94e-4). The knapsack grouping
  // genuinely trades group efficiency for group count here.
  EXPECT_EQ(s.items_used, 2);
  EXPECT_EQ(s.weight_used, 11);
  EXPECT_EQ(s.counts[1], 1);  // one group of 5
  EXPECT_EQ(s.counts[2], 1);  // one group of 6
  EXPECT_GT(s.value, 1.0 / 1260.0);
}

TEST(Knapsack, CardinalityCapBinds) {
  // Plenty of capacity, but at most 2 groups: take the two most valuable.
  const Problem p = paper_items(1000, 2);
  const Solution s = solve_dp(p);
  EXPECT_EQ(s.items_used, 2);
  EXPECT_EQ(s.counts[7], 2);  // two groups of 11
  EXPECT_TRUE(is_feasible(p, s));
}

TEST(Knapsack, AbundantResourcesGiveMaxGroups) {
  // R >= 11 * NS: the optimum is NS groups of 11 (the paper's observation
  // that "with a lot of resources, there are NS groups of 11 resources").
  const Problem p = paper_items(11 * 10, 10);
  const Solution s = solve_dp(p);
  EXPECT_EQ(s.items_used, 10);
  EXPECT_EQ(s.counts[7], 10);
}

TEST(Knapsack, PaperExampleR53) {
  // R = 53, NS = 10: the knapsack uses all 53 processors (e.g. 7 groups
  // mixing sizes) and beats the basic heuristic's 7x7 grouping in value.
  const Problem p = paper_items(53, 10);
  const Solution s = solve_dp(p);
  EXPECT_TRUE(is_feasible(p, s));
  const double basic_value = 7.0 / 1854.0;  // 7 groups of 7
  EXPECT_GT(s.value, basic_value);
  EXPECT_LE(s.weight_used, 53);
}

TEST(Knapsack, FeasibilityCheckerCatchesLies) {
  const Problem p = paper_items(20, 5);
  Solution s = solve_dp(p);
  ASSERT_TRUE(is_feasible(p, s));
  Solution wrong = s;
  wrong.value += 1.0;
  EXPECT_FALSE(is_feasible(p, wrong));
  wrong = s;
  wrong.counts[0] = -1;
  EXPECT_FALSE(is_feasible(p, wrong));
  wrong = s;
  wrong.counts.pop_back();
  EXPECT_FALSE(is_feasible(p, wrong));
}

TEST(Knapsack, BetterSolutionOrdering) {
  Solution a, b;
  a.value = 2.0;
  b.value = 1.0;
  EXPECT_TRUE(better_solution(a, b));
  EXPECT_FALSE(better_solution(b, a));
  b.value = 2.0;
  a.weight_used = 5;
  b.weight_used = 7;
  EXPECT_TRUE(better_solution(a, b));  // same value, fewer processors
  b.weight_used = 5;
  a.items_used = 1;
  b.items_used = 2;
  EXPECT_TRUE(better_solution(a, b));  // same value+weight, fewer groups
}

struct SweepCase {
  int capacity;
  Count max_items;
};

// Without this gtest prints the struct as raw bytes, padding included, and
// ctest names its tests after that print — names that change build to build.
void PrintTo(const SweepCase& sweep, std::ostream* os) {
  *os << "R" << sweep.capacity << "_max" << sweep.max_items;
}

class KnapsackSolverAgreement : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KnapsackSolverAgreement, AllSolversEquallyGood) {
  const auto [capacity, max_items] = GetParam();
  const Problem p = paper_items(capacity, max_items);
  const Solution dp = solve_dp(p);
  const Solution ex = solve_exhaustive(p);
  EXPECT_TRUE(is_feasible(p, dp));
  EXPECT_TRUE(is_feasible(p, ex));
  // Both must be mutually non-better (equal under the tie-break order).
  EXPECT_FALSE(better_solution(ex, dp)) << "dp suboptimal at R=" << capacity;
  EXPECT_FALSE(better_solution(dp, ex));
}

INSTANTIATE_TEST_SUITE_P(
    PaperItemSweep, KnapsackSolverAgreement,
    ::testing::Values(SweepCase{4, 1}, SweepCase{11, 3}, SweepCase{15, 2},
                      SweepCase{23, 4}, SweepCase{31, 5}, SweepCase{40, 4},
                      SweepCase{53, 10}, SweepCase{64, 6}, SweepCase{77, 7},
                      SweepCase{90, 9}, SweepCase{110, 10}, SweepCase{120, 10}));

TEST(Knapsack, RandomInstancesDpMatchesExhaustive) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    Problem p;
    const int kinds = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < kinds; ++i)
      p.items.push_back(Item{static_cast<int>(rng.uniform_int(1, 9)),
                             rng.uniform(0.0, 2.0)});
    p.capacity = static_cast<int>(rng.uniform_int(0, 30));
    p.max_items = rng.uniform_int(0, 6);
    const Solution dp = solve_dp(p);
    const Solution ex = solve_exhaustive(p);
    EXPECT_TRUE(is_feasible(p, dp));
    EXPECT_NEAR(dp.value, ex.value, 1e-9 + 1e-9 * ex.value) << "trial " << trial;
  }
}

TEST(Knapsack, DeterministicAcrossCalls) {
  const Problem p = paper_items(53, 10);
  const Solution a = solve_dp(p);
  const Solution b = solve_dp(p);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(KnapsackFamily, EveryPrefixMatchesSolveDpExactly) {
  // family[k-1] must be *bit-identical* to an independent solve with
  // max_items = k — the contract sim::performance_vector relies on.
  for (const int r : {4, 11, 23, 53, 77, 110}) {
    const Problem p = paper_items(r, 10);
    const std::vector<Solution> family = solve_dp_family(p);
    ASSERT_EQ(family.size(), 10u) << "R=" << r;
    for (Count k = 1; k <= 10; ++k) {
      Problem capped = p;
      capped.max_items = k;
      const Solution direct = solve_dp(capped);
      const Solution& fam = family[static_cast<std::size_t>(k) - 1];
      EXPECT_EQ(fam.counts, direct.counts) << "R=" << r << " k=" << k;
      EXPECT_EQ(fam.value, direct.value) << "R=" << r << " k=" << k;
      EXPECT_EQ(fam.weight_used, direct.weight_used) << "R=" << r << " k=" << k;
      EXPECT_EQ(fam.items_used, direct.items_used) << "R=" << r << " k=" << k;
    }
  }
}

TEST(KnapsackFamily, RandomInstancesMatchPerCapSolves) {
  Rng rng(4096);
  for (int trial = 0; trial < 60; ++trial) {
    Problem p;
    const int kinds = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < kinds; ++i)
      p.items.push_back(Item{static_cast<int>(rng.uniform_int(1, 9)),
                             rng.uniform(0.0, 2.0)});
    p.capacity = static_cast<int>(rng.uniform_int(0, 30));
    p.max_items = rng.uniform_int(1, 8);
    const std::vector<Solution> family = solve_dp_family(p);
    ASSERT_EQ(family.size(), static_cast<std::size_t>(p.max_items))
        << "trial " << trial;
    for (Count k = 1; k <= p.max_items; ++k) {
      Problem capped = p;
      capped.max_items = k;
      const Solution direct = solve_dp(capped);
      const Solution& fam = family[static_cast<std::size_t>(k) - 1];
      EXPECT_EQ(fam.counts, direct.counts) << "trial " << trial << " k=" << k;
      EXPECT_EQ(fam.value, direct.value) << "trial " << trial << " k=" << k;
    }
  }
}

TEST(KnapsackFamily, FamilyValuesAreMonotoneInTheCap) {
  // Relaxing the cardinality cap can only help (the feasible set grows).
  const Problem p = paper_items(53, 10);
  const std::vector<Solution> family = solve_dp_family(p);
  for (std::size_t k = 1; k < family.size(); ++k)
    EXPECT_GE(family[k].value, family[k - 1].value) << "k=" << k + 1;
}

}  // namespace
}  // namespace oagrid::knapsack
