#include "sim/ensemble_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

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

TEST(EnsembleSim, AllAtEndRunsPostsOnTheClusterOnly) {
  // Improvement 2 gives every processor to the groups and runs the posts at
  // the end on the whole cluster. A dedicated pool's processors are part of
  // that cluster, not extra ones.
  const Cluster c = platform::make_builtin_cluster(1, 16);
  const Ensemble e{2, 40};
  GroupSchedule s;
  s.group_sizes = {4, 4};
  s.post_policy = PostPolicy::kAllAtEnd;
  SimOptions opt;
  opt.capture_trace = true;
  s.post_pool = 0;
  const SimResult without_pool = simulate_ensemble(c, s, e, opt);
  s.post_pool = 8;
  const SimResult with_pool = simulate_ensemble(c, s, e, opt);
  EXPECT_EQ(with_pool.makespan, without_pool.makespan);
  EXPECT_EQ(with_pool.trace.verify(), "");
  // Sweep the post intervals: an end at t frees its processor for a start
  // at t, so ends sort first.
  std::vector<std::pair<Seconds, int>> edges;
  for (const auto& entry : with_pool.trace.entries()) {
    if (entry.unit_kind != UnitKind::kPostWorker) continue;
    edges.emplace_back(entry.start, 1);
    edges.emplace_back(entry.end, -1);
  }
  std::sort(edges.begin(), edges.end());
  int running = 0;
  int peak = 0;
  for (const auto& [t, delta] : edges) peak = std::max(peak, running += delta);
  EXPECT_EQ(peak, c.resources());
}

TEST(EnsembleSim, MainsNeverDependOnThePostPool) {
  // Posts are sinks: two clusters with the same main times but different
  // post times, run with different post pools and policies, execute the
  // same mains, with jitter and task failures on and under node failures.
  const Cluster base = platform::make_builtin_cluster(2, 40);
  const std::vector<Seconds> tg(base.main_times().begin(),
                                base.main_times().end());
  const Cluster fast_posts("fast", 40, base.min_group(), tg, 60.0);
  const Cluster slow_posts("slow", 40, base.min_group(), tg, 2400.0);
  const Ensemble e{5, 14};
  GroupSchedule pooled;
  pooled.group_sizes = {9, 7, 5, 5, 4};
  pooled.post_pool = 10;
  pooled.post_policy = PostPolicy::kPoolThenRetired;
  GroupSchedule at_end = pooled;
  at_end.post_pool = 0;
  at_end.post_policy = PostPolicy::kAllAtEnd;
  const auto model = fault::FailureModel::uniform_exponential(
      1, 6.0 * base.main_time(4), base.main_time(4), 5);

  std::vector<SimOptions> variants;
  SimOptions perturbed;
  perturbed.capture_trace = true;
  perturbed.perturbation.duration_jitter = 0.15;
  perturbed.perturbation.failure_probability = 0.1;
  perturbed.perturbation.seed = 23;
  variants.push_back(perturbed);
  for (const auto recovery : {fault::RecoveryPolicy::kWaitForRepair,
                              fault::RecoveryPolicy::kRescheduleInCluster,
                              fault::RecoveryPolicy::kMigrateWithState}) {
    SimOptions faulty = perturbed;
    faulty.fault.model = &model;
    faulty.fault.recovery = recovery;
    faulty.fault.checkpoint_months = 2;
    faulty.fault.migrate_staging = 30.0;
    variants.push_back(faulty);
  }
  const auto mains = [](const SimResult& r) {
    std::vector<TraceEntry> out;
    for (const auto& entry : r.trace.entries())
      if (entry.unit_kind == UnitKind::kGroup) out.push_back(entry);
    return out;
  };
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const SimResult a = simulate_ensemble(fast_posts, pooled, e, variants[v]);
    const SimResult b = simulate_ensemble(slow_posts, at_end, e, variants[v]);
    EXPECT_EQ(a.trace.verify(), "") << "variant " << v;
    EXPECT_EQ(b.trace.verify(), "") << "variant " << v;
    EXPECT_NE(a.makespan, b.makespan) << "variant " << v;
    EXPECT_GT(a.retries, 0) << "variant " << v;
    if (v > 0) {
      EXPECT_GT(a.fault.kills, 0) << "variant " << v;
    }
    EXPECT_EQ(a.main_phase_end, b.main_phase_end) << "variant " << v;
    EXPECT_EQ(a.mains_executed, b.mains_executed) << "variant " << v;
    EXPECT_EQ(a.retries, b.retries) << "variant " << v;
    EXPECT_EQ(a.fault.outages, b.fault.outages) << "variant " << v;
    EXPECT_EQ(a.fault.kills, b.fault.kills) << "variant " << v;
    EXPECT_EQ(a.fault.rewound_months, b.fault.rewound_months)
        << "variant " << v;
    EXPECT_EQ(a.fault.downtime_seconds, b.fault.downtime_seconds)
        << "variant " << v;
    EXPECT_EQ(a.fault.lost_seconds, b.fault.lost_seconds) << "variant " << v;
    const std::vector<TraceEntry> ma = mains(a);
    const std::vector<TraceEntry> mb = mains(b);
    ASSERT_EQ(ma.size(), mb.size()) << "variant " << v;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].unit, mb[i].unit) << "variant " << v << " entry " << i;
      EXPECT_EQ(ma[i].scenario, mb[i].scenario) << "variant " << v;
      EXPECT_EQ(ma[i].month, mb[i].month) << "variant " << v;
      EXPECT_EQ(ma[i].start, mb[i].start) << "variant " << v;
      EXPECT_EQ(ma[i].end, mb[i].end) << "variant " << v;
      EXPECT_EQ(ma[i].outcome, mb[i].outcome) << "variant " << v;
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
