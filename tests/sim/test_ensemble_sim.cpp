#include "sim/ensemble_sim.hpp"

#include <gtest/gtest.h>

#include "platform/profiles.hpp"
#include "sched/makespan_model.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;
using platform::Cluster;
using sched::GroupSchedule;
using sched::PostPolicy;

/// Cluster whose TG is an exact multiple of TP for every G, so the paper's
/// closed-form model is exact (no set-boundary rounding).
Cluster divisible_cluster(ProcCount resources, Seconds tp = 10.0) {
  // TG: decreasing multiples of tp.
  std::vector<Seconds> tg;
  for (int i = 0; i < 8; ++i) tg.push_back(tp * static_cast<double>(40 - 3 * i));
  return Cluster("divisible", resources, 4, std::move(tg), tp);
}

GroupSchedule uniform_schedule(const Cluster& c, const Ensemble& e,
                               ProcCount g) {
  const auto est = sched::evaluate_uniform_grouping(c, e, g);
  GroupSchedule s;
  s.group_sizes.assign(static_cast<std::size_t>(est.nbmax), g);
  s.post_pool = est.r2;
  s.post_policy = PostPolicy::kPoolThenRetired;
  return s;
}

TEST(EnsembleSim, SingleScenarioSingleMonth) {
  const Cluster c = divisible_cluster(15);
  GroupSchedule s;
  s.group_sizes = {4};
  s.post_pool = 1;
  const SimResult r = simulate_ensemble(c, s, Ensemble{1, 1});
  EXPECT_EQ(r.mains_executed, 1);
  EXPECT_EQ(r.posts_executed, 1);
  EXPECT_DOUBLE_EQ(r.main_phase_end, c.main_time(4));
  EXPECT_DOUBLE_EQ(r.makespan, c.main_time(4) + c.post_time());
}

TEST(EnsembleSim, TaskConservation) {
  const Cluster c = divisible_cluster(30);
  const Ensemble e{4, 7};
  const SimResult r =
      simulate_ensemble(c, uniform_schedule(c, e, 5), e);
  EXPECT_EQ(r.mains_executed, 28);
  EXPECT_EQ(r.posts_executed, 28);
}

TEST(EnsembleSim, TraceInvariantsHold) {
  const Cluster c = divisible_cluster(23);
  const Ensemble e{3, 5};
  SimOptions opt;
  opt.capture_trace = true;
  for (const auto policy : {PostPolicy::kPoolThenRetired, PostPolicy::kAllAtEnd}) {
    GroupSchedule s = uniform_schedule(c, e, 5);
    s.post_policy = policy;
    if (policy == PostPolicy::kAllAtEnd) s.post_pool = 0;
    const SimResult r = simulate_ensemble(c, s, e, opt);
    EXPECT_EQ(r.trace.verify(), "") << sched::to_string(policy);
    EXPECT_EQ(r.trace.entries().size(), 30u);
  }
}

TEST(EnsembleSim, ChainOrderWithinScenario) {
  const Cluster c = divisible_cluster(8);
  const Ensemble e{2, 6};
  SimOptions opt;
  opt.capture_trace = true;
  const SimResult r = simulate_ensemble(c, uniform_schedule(c, e, 4), e, opt);
  EXPECT_EQ(r.trace.verify(), "");
}

TEST(EnsembleSim, AllAtEndDefersEveryPost) {
  const Cluster c = divisible_cluster(16);
  const Ensemble e{2, 4};
  GroupSchedule s = uniform_schedule(c, e, 4);
  s.post_policy = PostPolicy::kAllAtEnd;
  s.post_pool = 0;
  SimOptions opt;
  opt.capture_trace = true;
  const SimResult r = simulate_ensemble(c, s, e, opt);
  for (const auto& entry : r.trace.entries()) {
    if (entry.unit_kind == UnitKind::kPostWorker) {
      EXPECT_GE(entry.start, r.main_phase_end - 1e-9);
    }
  }
}

TEST(EnsembleSim, PoolRunsPostsConcurrently) {
  const Cluster c = divisible_cluster(20);
  const Ensemble e{2, 4};
  GroupSchedule s;
  s.group_sizes = {4, 4};
  s.post_pool = 2;
  SimOptions opt;
  opt.capture_trace = true;
  const SimResult r = simulate_ensemble(c, s, e, opt);
  bool post_during_mains = false;
  for (const auto& entry : r.trace.entries())
    if (entry.unit_kind == UnitKind::kPostWorker &&
        entry.end < r.main_phase_end)
      post_during_mains = true;
  EXPECT_TRUE(post_during_mains);
}

TEST(EnsembleSim, UtilizationWithinBounds) {
  const Cluster c = divisible_cluster(31);
  const Ensemble e{4, 8};
  const SimResult r = simulate_ensemble(c, uniform_schedule(c, e, 6), e);
  EXPECT_GT(r.group_utilization, 0.0);
  EXPECT_LE(r.group_utilization, 1.0 + 1e-9);
}

TEST(EnsembleSim, FasterGroupsDoMoreMonths) {
  // Heterogeneous groups: an 11-group is faster than a 4-group, so it should
  // complete more months of the workload.
  const auto c = platform::make_builtin_cluster(1, 15);
  GroupSchedule s;
  s.group_sizes = {11, 4};
  s.post_pool = 0;
  const Ensemble e{4, 10};
  SimOptions opt;
  opt.capture_trace = true;
  const SimResult r = simulate_ensemble(c, s, e, opt);
  int fast = 0, slow = 0;
  for (const auto& entry : r.trace.entries()) {
    if (entry.unit_kind != UnitKind::kGroup) continue;
    (entry.unit == 0 ? fast : slow) += 1;
  }
  EXPECT_GT(fast, slow);
  EXPECT_EQ(fast + slow, 40);
}

// ---------------------------------------------------------------------------
// Closed-form (Equations 1-5) vs discrete-event cross-validation.
// ---------------------------------------------------------------------------

struct FormulaCase {
  ProcCount resources;
  ProcCount group;
  Count scenarios;
  Count months;
};

// Without this gtest prints the struct as raw bytes, padding included, and
// ctest names its tests after that print.
void PrintTo(const FormulaCase& c, std::ostream* os) {
  *os << "R" << c.resources << "_G" << c.group << "_NS" << c.scenarios
      << "_NM" << c.months;
}

class FormulaVsSimulationExact : public ::testing::TestWithParam<FormulaCase> {};

TEST_P(FormulaVsSimulationExact, AgreeWhenTpDividesTg) {
  const auto [resources, group, scenarios, months] = GetParam();
  const Cluster c = divisible_cluster(resources);
  const Ensemble e{scenarios, months};
  const auto analytic = sched::evaluate_uniform_grouping(c, e, group);
  ASSERT_NE(analytic.regime, sched::MakespanRegime::kInfeasible);
  const SimResult simulated =
      simulate_ensemble(c, uniform_schedule(c, e, group), e);
  EXPECT_NEAR(simulated.main_phase_end, analytic.main_phase, 1e-6)
      << to_string(analytic.regime);
  EXPECT_NEAR(simulated.makespan, analytic.makespan, 1e-6)
      << to_string(analytic.regime);
}

INSTANTIATE_TEST_SUITE_P(
    AllFourRegimes, FormulaVsSimulationExact,
    ::testing::Values(
        // R2 = 0, nbused = 0 (Eq 2): R = G * nbmax, tasks divisible.
        FormulaCase{8, 4, 2, 4}, FormulaCase{20, 5, 4, 6},
        FormulaCase{44, 11, 4, 10},
        // R2 = 0, nbused != 0 (Eq 3).
        FormulaCase{8, 4, 3, 3}, FormulaCase{20, 5, 4, 3},
        // R2 != 0, nbused = 0 (Eq 4).
        FormulaCase{9, 4, 2, 4}, FormulaCase{23, 5, 4, 5},
        FormulaCase{30, 7, 4, 7},
        // R2 != 0, nbused != 0 (Eq 5).
        FormulaCase{9, 4, 3, 3}, FormulaCase{23, 5, 3, 4},
        FormulaCase{38, 6, 5, 7}));

class FormulaVsSimulationSweep
    : public ::testing::TestWithParam<std::tuple<ProcCount, Count, Count>> {};

TEST_P(FormulaVsSimulationSweep, ExactAgreementAcrossGroupSizes) {
  const auto [resources, scenarios, months] = GetParam();
  const Cluster c = divisible_cluster(resources);
  const Ensemble e{scenarios, months};
  for (ProcCount g = 4; g <= 11 && g <= resources; ++g) {
    const auto analytic = sched::evaluate_uniform_grouping(c, e, g);
    if (analytic.regime == sched::MakespanRegime::kInfeasible) continue;
    const SimResult simulated =
        simulate_ensemble(c, uniform_schedule(c, e, g), e);
    EXPECT_NEAR(simulated.makespan, analytic.makespan, 1e-6)
        << "R=" << resources << " G=" << g << " regime "
        << to_string(analytic.regime);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DenseSweep, FormulaVsSimulationSweep,
    ::testing::Combine(::testing::Values<ProcCount>(11, 16, 21, 27, 34, 41, 53,
                                                    68, 87, 104, 120),
                       ::testing::Values<Count>(2, 3, 5, 10),
                       ::testing::Values<Count>(4, 9, 16)));

TEST(FormulaVsSimulation, AnalyticUpperBoundsSimulationOnRealTables) {
  // With the real (non-divisible) benchmark tables the closed form may only
  // over-approximate: the DES can start a post inside the final set window
  // where the formula re-buckets it. Never the other way around.
  const Ensemble e{10, 30};
  for (int profile = 0; profile < 5; ++profile) {
    for (ProcCount r = 11; r <= 120; r += 7) {
      const auto c = platform::make_builtin_cluster(profile, r);
      for (ProcCount g = 4; g <= 11 && g <= r; ++g) {
        const auto analytic = sched::evaluate_uniform_grouping(c, e, g);
        if (analytic.regime == sched::MakespanRegime::kInfeasible) continue;
        const SimResult simulated =
            simulate_ensemble(c, uniform_schedule(c, e, g), e);
        EXPECT_LE(simulated.makespan, analytic.makespan + 1e-6)
            << "profile=" << profile << " R=" << r << " G=" << g;
        // And the bound is tight to within a couple of post tasks.
        EXPECT_GE(simulated.makespan,
                  analytic.makespan - 3.0 * c.post_time() - 1e-6)
            << "profile=" << profile << " R=" << r << " G=" << g;
      }
    }
  }
}

TEST(EnsembleSim, LeastAdvancedKeepsScenariosBalanced) {
  const Cluster c = divisible_cluster(12);
  const Ensemble e{4, 6};
  SimOptions opt;
  opt.capture_trace = true;
  GroupSchedule s;
  s.group_sizes = {4, 4, 4};
  s.post_pool = 0;
  const SimResult r = simulate_ensemble(c, s, e, opt);
  // After each "era" of the run, completed months across scenarios differ by
  // at most 1 — check the final trace supports full completion.
  EXPECT_EQ(r.trace.verify(), "");
  EXPECT_EQ(r.mains_executed, 24);
}

TEST(EnsembleSim, InvalidScheduleRejected) {
  const Cluster c = divisible_cluster(10);
  GroupSchedule s;  // empty groups
  EXPECT_THROW((void)simulate_ensemble(c, s, Ensemble{1, 1}),
               std::invalid_argument);
  s.group_sizes = {20};  // bigger than table range
  EXPECT_THROW((void)simulate_ensemble(c, s, Ensemble{1, 1}),
               std::invalid_argument);
}

TEST(EnsembleSim, HeuristicConvenienceWrapper) {
  const auto c = platform::make_builtin_cluster(1, 53);
  const Ensemble e{10, 12};
  const SimResult r =
      simulate_with_heuristic(c, sched::Heuristic::kKnapsack, e);
  EXPECT_EQ(r.mains_executed, 120);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(EnsembleSim, MoreResourcesNeverHurtKnapsack) {
  const Ensemble e{10, 12};
  Seconds prev = kInfiniteTime;
  for (ProcCount r = 11; r <= 120; r += 11) {
    const auto c = platform::make_builtin_cluster(1, r);
    const SimResult result =
        simulate_with_heuristic(c, sched::Heuristic::kKnapsack, e);
    EXPECT_LE(result.makespan, prev + 1e-6) << "R=" << r;
    prev = result.makespan;
  }
}

TEST(EnsembleSim, ZeroRestartHandoffIsBitIdentical) {
  const Cluster c = divisible_cluster(25);
  const Ensemble e{4, 8};
  SimOptions plain;
  SimOptions explicit_zero;
  explicit_zero.restart_handoff = 0.0;
  const SimResult a = simulate_ensemble(c, uniform_schedule(c, e, 5), e, plain);
  const SimResult b =
      simulate_ensemble(c, uniform_schedule(c, e, 5), e, explicit_zero);
  EXPECT_EQ(a.makespan, b.makespan);  // exact, not NEAR
  EXPECT_EQ(a.main_phase_end, b.main_phase_end);
}

TEST(EnsembleSim, RestartHandoffStallsEveryLaterMonth) {
  // One scenario, one group: months run strictly in sequence, so each of
  // the NM-1 inter-month boundaries pays exactly one hand-off.
  const Cluster c = divisible_cluster(15);
  const Ensemble e{1, 6};
  GroupSchedule s;
  s.group_sizes = {4};
  s.post_pool = 1;
  const SimResult base = simulate_ensemble(c, s, e);
  SimOptions opt;
  opt.restart_handoff = 12.5;
  const SimResult stalled = simulate_ensemble(c, s, e, opt);
  EXPECT_DOUBLE_EQ(stalled.makespan, base.makespan + 5 * 12.5);
  EXPECT_EQ(stalled.mains_executed, base.mains_executed);
}

TEST(EnsembleSim, RestartHandoffRejectsNegative) {
  const Cluster c = divisible_cluster(15);
  GroupSchedule s;
  s.group_sizes = {4};
  s.post_pool = 1;
  SimOptions opt;
  opt.restart_handoff = -1.0;
  EXPECT_THROW((void)simulate_ensemble(c, s, Ensemble{1, 2}, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::sim
