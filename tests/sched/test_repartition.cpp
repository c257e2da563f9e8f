#include "sched/repartition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace oagrid::sched {
namespace {

/// Linear performance vectors: cluster c runs k scenarios in k * unit[c]
/// (what a cluster with perfect scaling and fixed per-scenario cost gives).
std::vector<PerformanceVector> linear_perf(std::vector<Seconds> units,
                                           Count ns) {
  std::vector<PerformanceVector> perf;
  for (const Seconds u : units) {
    PerformanceVector v;
    for (Count k = 1; k <= ns; ++k) v.push_back(u * static_cast<double>(k));
    perf.push_back(std::move(v));
  }
  return perf;
}

TEST(Repartition, ValidationErrors) {
  EXPECT_THROW((void)greedy_repartition({}, 3), std::invalid_argument);
  const auto perf = linear_perf({1.0}, 2);
  EXPECT_THROW((void)greedy_repartition(perf, 0), std::invalid_argument);
  EXPECT_THROW((void)greedy_repartition(perf, 5), std::invalid_argument);
}

TEST(Repartition, SingleClusterTakesEverything) {
  const auto perf = linear_perf({10.0}, 4);
  const Repartition r = greedy_repartition(perf, 4);
  EXPECT_EQ(r.dags_per_cluster, std::vector<Count>{4});
  EXPECT_DOUBLE_EQ(r.makespan, 40.0);
  EXPECT_EQ(r.assignment.size(), 4u);
}

TEST(Repartition, EqualClustersSplitEvenly) {
  const auto perf = linear_perf({10.0, 10.0}, 6);
  const Repartition r = greedy_repartition(perf, 6);
  EXPECT_EQ(r.dags_per_cluster, (std::vector<Count>{3, 3}));
  EXPECT_DOUBLE_EQ(r.makespan, 30.0);
}

TEST(Repartition, FasterClusterGetsMoreDags) {
  // Paper §7: "The faster, the more DAGs it has to execute."
  const auto perf = linear_perf({10.0, 20.0}, 6);
  const Repartition r = greedy_repartition(perf, 6);
  EXPECT_GT(r.dags_per_cluster[0], r.dags_per_cluster[1]);
  EXPECT_EQ(r.total_dags(), 6);
}

TEST(Repartition, TiesGoToLowestClusterId) {
  const auto perf = linear_perf({10.0, 10.0}, 1);
  const Repartition r = greedy_repartition(perf, 1);
  EXPECT_EQ(r.dags_per_cluster, (std::vector<Count>{1, 0}));
  EXPECT_EQ(r.assignment, std::vector<ClusterId>{0});
}

TEST(Repartition, MakespanHelperIgnoresEmptyClusters) {
  const auto perf = linear_perf({10.0, 99.0}, 3);
  const std::vector<Count> dist{3, 0};
  EXPECT_DOUBLE_EQ(repartition_makespan(perf, dist), 30.0);
}

TEST(Repartition, MakespanHelperValidates) {
  const auto perf = linear_perf({10.0}, 2);
  const std::vector<Count> too_many{5};
  EXPECT_THROW((void)repartition_makespan(perf, too_many),
               std::invalid_argument);
  const std::vector<Count> wrong_width{1, 1};
  EXPECT_THROW((void)repartition_makespan(perf, wrong_width),
               std::invalid_argument);
}

TEST(Repartition, GreedyOptimalOnLinearVectors) {
  // With monotone "linear" vectors the greedy matches the brute force.
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Seconds> units;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int c = 0; c < n; ++c) units.push_back(rng.uniform(1.0, 30.0));
    const Count ns = rng.uniform_int(1, 8);
    const auto perf = linear_perf(units, ns);
    const Repartition greedy = greedy_repartition(perf, ns);
    const Repartition best = brute_force_repartition(perf, ns);
    EXPECT_NEAR(greedy.makespan, best.makespan, 1e-9) << "trial " << trial;
  }
}

TEST(Repartition, GreedyLocallyOptimalOnMonotoneVectors) {
  // The paper's claim: once placed, moving one scenario cannot help. Verify
  // on random *monotone* vectors (the shape real simulations produce).
  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    const Count ns = rng.uniform_int(2, 8);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(1.0, 20.0);  // strictly increasing
      }
    }
    const Repartition greedy = greedy_repartition(perf, ns);
    EXPECT_TRUE(is_locally_optimal(perf, greedy)) << "trial " << trial;
  }
}

TEST(Repartition, GreedyGloballyOptimalOnRandomMonotoneVectors) {
  // Stronger than the paper's local-optimality claim: with non-decreasing
  // performance vectors (the shape real simulations produce) the greedy is
  // globally optimal — a threshold/exchange argument shows any distribution
  // below the greedy's makespan would need more capacity than exists.
  Rng rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    const Count ns = rng.uniform_int(2, 7);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(0.0, 20.0);  // non-decreasing
      }
    }
    const Repartition greedy = greedy_repartition(perf, ns);
    const Repartition best = brute_force_repartition(perf, ns);
    EXPECT_NEAR(greedy.makespan, best.makespan, 1e-9) << "trial " << trial;
  }
}

TEST(Repartition, GreedyCanMissOptimumOnNonMonotoneVectors) {
  // The optimality argument needs monotone vectors. A (pathological)
  // decreasing vector defeats the greedy: cluster 0 runs two scenarios
  // faster than one (imagine a grouping that only clicks at k = 2).
  std::vector<PerformanceVector> perf{
      {10.0, 5.0},  // cluster 0 — non-monotone
      {6.0, 100.0}, // cluster 1
  };
  const Repartition greedy = greedy_repartition(perf, 2);
  const Repartition best = brute_force_repartition(perf, 2);
  EXPECT_DOUBLE_EQ(greedy.makespan, 10.0);  // d1 -> c1 (6), d2 -> c0 (10)
  EXPECT_DOUBLE_EQ(best.makespan, 5.0);     // both on c0
  EXPECT_LT(best.makespan, greedy.makespan);
}

TEST(ChargedRepartition, NullChargeIsBitIdentical) {
  const auto perf = linear_perf({10.0, 13.0, 17.0}, 7);
  const Repartition plain = greedy_repartition(perf, 7);
  const Repartition charged = greedy_repartition_charged(perf, 7, nullptr);
  EXPECT_EQ(charged.dags_per_cluster, plain.dags_per_cluster);
  EXPECT_EQ(charged.assignment, plain.assignment);
  EXPECT_EQ(charged.makespan, plain.makespan);  // exact, not NEAR
}

TEST(ChargedRepartition, ZeroChargeIsBitIdentical) {
  // 0.0 + x == x in IEEE arithmetic, so even tie-breaks are preserved.
  const auto perf = linear_perf({10.0, 10.0, 25.0}, 6);
  const Repartition plain = greedy_repartition(perf, 6);
  const Repartition charged = greedy_repartition_charged(
      perf, 6, [](std::size_t, Count) { return 0.0; });
  EXPECT_EQ(charged.dags_per_cluster, plain.dags_per_cluster);
  EXPECT_EQ(charged.assignment, plain.assignment);
  EXPECT_EQ(charged.makespan, plain.makespan);
}

TEST(ChargedRepartition, ChargeSteersPlacementAwayFromExpensiveCluster) {
  // Two equal clusters; without charges the scenarios split evenly. Make
  // placing anything on cluster 1 cost more than the whole campaign and the
  // greedy keeps everything at cluster 0.
  const auto perf = linear_perf({10.0, 10.0}, 4);
  const Repartition plain = greedy_repartition(perf, 4);
  EXPECT_EQ(plain.dags_per_cluster, (std::vector<Count>{2, 2}));

  const Repartition charged = greedy_repartition_charged(
      perf, 4, [](std::size_t cluster, Count k) {
        return cluster == 1 ? 1000.0 * static_cast<double>(k) : 0.0;
      });
  EXPECT_EQ(charged.dags_per_cluster, (std::vector<Count>{4, 0}));
  EXPECT_DOUBLE_EQ(charged.makespan, 40.0);
}

TEST(ChargedRepartition, MakespanIncludesTheCharge) {
  const auto perf = linear_perf({10.0}, 3);
  const Repartition charged = greedy_repartition_charged(
      perf, 3, [](std::size_t, Count k) { return 5.0 * static_cast<double>(k); });
  EXPECT_EQ(charged.dags_per_cluster, std::vector<Count>{3});
  EXPECT_DOUBLE_EQ(charged.makespan, 30.0 + 15.0);
}

TEST(ChargedRepartition, ModerateChargeShiftsTheSplit) {
  // A per-file shipping cost on the remote cluster shifts load toward the
  // home cluster without emptying the remote one — the break-even behavior
  // the network-aware scheduler relies on.
  const auto perf = linear_perf({10.0, 10.0}, 8);
  const Repartition charged = greedy_repartition_charged(
      perf, 8, [](std::size_t cluster, Count k) {
        return cluster == 1 ? 8.0 * static_cast<double>(k) : 0.0;
      });
  EXPECT_EQ(charged.total_dags(), 8);
  EXPECT_GT(charged.dags_per_cluster[0], charged.dags_per_cluster[1]);
  EXPECT_GT(charged.dags_per_cluster[1], 0);
}

/// The pre-heap Algorithm 1: a full-cluster strict-'<' scan per scenario.
/// Kept as the reference oracle for the heap implementation's byte-for-byte
/// equivalence claim.
Repartition reference_scan_repartition(
    std::span<const PerformanceVector> performance, Count scenarios,
    const PlacementCharge& charge) {
  Repartition result;
  result.dags_per_cluster.assign(performance.size(), 0);
  for (Count dag = 0; dag < scenarios; ++dag) {
    Seconds best = std::numeric_limits<Seconds>::infinity();
    std::size_t best_cluster = 0;
    for (std::size_t c = 0; c < performance.size(); ++c) {
      const auto next = static_cast<std::size_t>(result.dags_per_cluster[c]);
      Seconds candidate = performance[c][next];
      if (charge) candidate += charge(c, static_cast<Count>(next) + 1);
      if (candidate < best) {
        best = candidate;
        best_cluster = c;
      }
    }
    ++result.dags_per_cluster[best_cluster];
    result.assignment.push_back(static_cast<ClusterId>(best_cluster));
  }
  for (std::size_t c = 0; c < performance.size(); ++c) {
    const Count k = result.dags_per_cluster[c];
    if (k > 0) {
      Seconds load = performance[c][static_cast<std::size_t>(k) - 1];
      if (charge) load += charge(c, k);
      result.makespan = std::max(result.makespan, load);
    }
  }
  return result;
}

TEST(Repartition, HeapMatchesReferenceScanOnRandomVectors) {
  // The heap rewrite must reproduce the scan's assignments byte for byte on
  // arbitrary monotone vectors — same dag order, same cluster ids, same
  // makespan (EXPECT_EQ, not NEAR).
  Rng rng(0x48454150);  // "HEAP"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const Count ns = rng.uniform_int(1, 20);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(0.0, 20.0);  // non-decreasing
      }
    }
    const Repartition heap = greedy_repartition(perf, ns);
    const Repartition ref = reference_scan_repartition(perf, ns, nullptr);
    EXPECT_EQ(heap.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(heap.dags_per_cluster, ref.dags_per_cluster) << "trial " << trial;
    EXPECT_EQ(heap.makespan, ref.makespan) << "trial " << trial;
  }
}

TEST(Repartition, HeapMatchesReferenceScanUnderExactTies) {
  // Values drawn from a tiny discrete set force frequent exact double ties;
  // the heap's (value, cluster id) order must still pick the same first
  // argmin the scan does.
  Rng rng(0x54494553);  // "TIES"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const Count ns = rng.uniform_int(2, 16);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = static_cast<double>(rng.uniform_int(1, 3));
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += static_cast<double>(rng.uniform_int(0, 2));  // many plateaus
      }
    }
    const Repartition heap = greedy_repartition(perf, ns);
    const Repartition ref = reference_scan_repartition(perf, ns, nullptr);
    EXPECT_EQ(heap.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(heap.makespan, ref.makespan) << "trial " << trial;
  }
}

TEST(ChargedRepartition, HeapMatchesReferenceScanWithCharges) {
  Rng rng(0x43484752);  // "CHGR"
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const Count ns = rng.uniform_int(2, 16);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(0.0, 20.0);
      }
    }
    const double rate = rng.uniform(0.0, 10.0);
    const PlacementCharge charge = [rate](std::size_t cluster, Count k) {
      return rate * static_cast<double>(cluster) * static_cast<double>(k);
    };
    const Repartition heap = greedy_repartition_charged(perf, ns, charge);
    const Repartition ref = reference_scan_repartition(perf, ns, charge);
    EXPECT_EQ(heap.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(heap.dags_per_cluster, ref.dags_per_cluster) << "trial " << trial;
    EXPECT_EQ(heap.makespan, ref.makespan) << "trial " << trial;
  }
}

TEST(Repartition, HeapPopsOncePerScenario) {
  // The heap holds exactly one current entry per cluster, so every placement
  // costs one pop, with or without a charge (bench/e2e reads the counter).
  obs::set_enabled(true);
  obs::reset();
  obs::Counter& pops = obs::metrics().counter("sched.repartition.heap_pops");
  Rng rng(0x504F5053);  // "POPS"
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const Count ns = rng.uniform_int(1, 24);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t = std::max(1.0, t + rng.uniform(-5.0, 20.0));  // not monotone
      }
    }
    const double rate = rng.uniform(0.0, 10.0);
    const PlacementCharge charge = [rate](std::size_t cluster, Count k) {
      return rate * static_cast<double>(cluster) * static_cast<double>(k);
    };
    pops.reset();
    (void)greedy_repartition(perf, ns);
    EXPECT_EQ(pops.value(), static_cast<std::uint64_t>(ns)) << "trial " << trial;
    pops.reset();
    (void)greedy_repartition_charged(perf, ns, charge);
    EXPECT_EQ(pops.value(), static_cast<std::uint64_t>(ns)) << "trial " << trial;
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(Repartition, BruteForceAssignmentConsistent) {
  const auto perf = linear_perf({10.0, 15.0}, 5);
  const Repartition best = brute_force_repartition(perf, 5);
  EXPECT_EQ(best.assignment.size(), 5u);
  std::vector<Count> counted(2, 0);
  for (const ClusterId c : best.assignment)
    ++counted[static_cast<std::size_t>(c)];
  EXPECT_EQ(counted, best.dags_per_cluster);
}

}  // namespace
}  // namespace oagrid::sched
