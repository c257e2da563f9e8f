#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "platform/profiles.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;

SimOptions perturbed(double jitter, double failure, std::uint64_t seed) {
  SimOptions options;
  options.perturbation.duration_jitter = jitter;
  options.perturbation.failure_probability = failure;
  options.perturbation.seed = seed;
  return options;
}

TEST(Perturbation, InactiveModelReproducesExactRun) {
  const auto c = platform::make_builtin_cluster(1, 30);
  const Ensemble e{4, 10};
  const auto schedule = sched::knapsack_grouping(c, e);
  const SimResult clean = simulate_ensemble(c, schedule, e);
  const SimResult noiseless = simulate_ensemble(c, schedule, e, perturbed(0, 0, 7));
  EXPECT_DOUBLE_EQ(clean.makespan, noiseless.makespan);
  EXPECT_EQ(noiseless.retries, 0);
}

TEST(Perturbation, DeterministicInSeed) {
  const auto c = platform::make_builtin_cluster(1, 30);
  const Ensemble e{4, 10};
  const auto schedule = sched::knapsack_grouping(c, e);
  const SimResult a = simulate_ensemble(c, schedule, e, perturbed(0.1, 0.05, 42));
  const SimResult b = simulate_ensemble(c, schedule, e, perturbed(0.1, 0.05, 42));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.retries, b.retries);
  const SimResult other = simulate_ensemble(c, schedule, e, perturbed(0.1, 0.05, 43));
  EXPECT_NE(a.makespan, other.makespan);
}

TEST(Perturbation, JitterMovesMakespanModestly) {
  const auto c = platform::make_builtin_cluster(1, 40);
  const Ensemble e{6, 12};
  const auto schedule = sched::knapsack_grouping(c, e);
  const Seconds clean = simulate_ensemble(c, schedule, e).makespan;
  const Seconds noisy =
      simulate_ensemble(c, schedule, e, perturbed(0.05, 0, 1)).makespan;
  EXPECT_GT(noisy / clean, 0.85);
  EXPECT_LT(noisy / clean, 1.20);
}

TEST(Perturbation, AllWorkStillCompletesUnderFailures) {
  const auto c = platform::make_builtin_cluster(1, 30);
  const Ensemble e{4, 10};
  const auto schedule = sched::knapsack_grouping(c, e);
  const SimResult r = simulate_ensemble(c, schedule, e, perturbed(0, 0.2, 11));
  EXPECT_EQ(r.mains_executed, 40);  // every month eventually succeeds
  EXPECT_EQ(r.posts_executed, 40);
  EXPECT_GT(r.retries, 0);
}

TEST(Perturbation, FailuresLengthenTheCampaign) {
  const auto c = platform::make_builtin_cluster(1, 30);
  const Ensemble e{4, 10};
  const auto schedule = sched::knapsack_grouping(c, e);
  const Seconds clean = simulate_ensemble(c, schedule, e).makespan;
  const Seconds failing =
      simulate_ensemble(c, schedule, e, perturbed(0, 0.25, 3)).makespan;
  EXPECT_GT(failing, clean);
}

TEST(Perturbation, TraceRecordsOnlySuccessesAndStaysConsistent) {
  const auto c = platform::make_builtin_cluster(1, 25);
  const Ensemble e{3, 6};
  auto options = perturbed(0.05, 0.15, 5);
  options.capture_trace = true;
  const auto schedule = sched::knapsack_grouping(c, e);
  const SimResult r = simulate_ensemble(c, schedule, e, options);
  EXPECT_EQ(r.trace.verify(), "");
  Count done = 0;
  Count retried = 0;
  for (const auto& entry : r.trace.entries()) {
    if (entry.unit_kind != UnitKind::kGroup) continue;
    if (entry.outcome == Outcome::kDone) ++done;
    if (entry.outcome == Outcome::kRetry) ++retried;
  }
  EXPECT_EQ(done, 18);
  EXPECT_GT(r.retries, 0);
  EXPECT_EQ(retried, r.retries);
}

TEST(Perturbation, HighFailureRateStressTest) {
  const auto c = platform::make_builtin_cluster(1, 15);
  const Ensemble e{2, 5};
  const auto schedule = sched::knapsack_grouping(c, e);
  const SimResult r = simulate_ensemble(c, schedule, e, perturbed(0.1, 0.6, 9));
  EXPECT_EQ(r.mains_executed, 10);
  EXPECT_GT(r.retries, 5);
}

TEST(Perturbation, OutOfRangeModelsAreRejected) {
  const auto c = platform::make_builtin_cluster(1, 30);
  const Ensemble e{2, 4};
  const auto schedule = sched::knapsack_grouping(c, e);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A main that always fails re-runs forever; the check must throw first.
  for (const double failure : {1.0, 1.5, -0.5, nan, inf})
    EXPECT_THROW((void)simulate_ensemble(c, schedule, e, perturbed(0, failure, 1)),
                 std::invalid_argument)
        << "failure probability " << failure;
  for (const double jitter : {-1.0, nan, inf})
    EXPECT_THROW((void)simulate_ensemble(c, schedule, e, perturbed(jitter, 0, 1)),
                 std::invalid_argument)
        << "jitter " << jitter;
  // The edges of the valid ranges still run.
  EXPECT_EQ(simulate_ensemble(c, schedule, e, perturbed(0, 0.99, 1)).mains_executed, 8);
  EXPECT_EQ(simulate_ensemble(c, schedule, e, perturbed(0, 0, 1)).retries, 0);
}

TEST(Perturbation, KnapsackAdvantageSurvivesNoise) {
  // The headline robustness claim: the grouping decision made on clean
  // benchmark numbers still pays off under 10% duration noise.
  const Ensemble e{10, 30};
  const auto c = platform::make_builtin_cluster(1, 26);
  double basic_sum = 0, knap_sum = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    basic_sum += simulate_ensemble(c, sched::basic_grouping(c, e), e,
                                   perturbed(0.10, 0.0, seed))
                     .makespan;
    knap_sum += simulate_ensemble(c, sched::knapsack_grouping(c, e), e,
                                  perturbed(0.10, 0.0, seed))
                    .makespan;
  }
  EXPECT_LT(knap_sum, basic_sum);
}

}  // namespace
}  // namespace oagrid::sim
