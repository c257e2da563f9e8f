#include <gtest/gtest.h>

#include "fault/failure.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/eval_cache.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;

const Ensemble kEnsemble{5, 18};

TEST(FaultCache, KeyFaultSigZeroWheneverInactive) {
  const auto cluster = platform::make_builtin_cluster(1, 30);
  const auto schedule = sched::knapsack_grouping(cluster, kEnsemble);

  // No model at all.
  EXPECT_EQ(make_eval_key(cluster, schedule, kEnsemble).fault_sig, 0u);

  // Model attached but with no process anywhere: still the clean key.
  const fault::FailureModel inactive(1);
  SimOptions gated;
  gated.fault.model = &inactive;
  const EvalKey gated_key = make_eval_key(cluster, schedule, kEnsemble, gated);
  EXPECT_EQ(gated_key.fault_sig, 0u);
  EXPECT_EQ(gated_key, make_eval_key(cluster, schedule, kEnsemble));
}

TEST(FaultCache, KeyFaultSigCoversInjectionParameters) {
  const auto cluster = platform::make_builtin_cluster(1, 30);
  const auto schedule = sched::knapsack_grouping(cluster, kEnsemble);
  const auto model =
      fault::FailureModel::uniform_exponential(1, 40000.0, 2000.0, 7);

  SimOptions options;
  options.fault.model = &model;
  const EvalKey base = make_eval_key(cluster, schedule, kEnsemble, options);
  EXPECT_NE(base.fault_sig, 0u);

  // Recovery policy, cadence, staging cost and the model seed all separate
  // cache entries.
  SimOptions recovery = options;
  recovery.fault.recovery = fault::RecoveryPolicy::kWaitForRepair;
  EXPECT_NE(make_eval_key(cluster, schedule, kEnsemble, recovery).fault_sig,
            base.fault_sig);

  SimOptions cadence = options;
  cadence.fault.checkpoint_months = 6;
  EXPECT_NE(make_eval_key(cluster, schedule, kEnsemble, cadence).fault_sig,
            base.fault_sig);

  SimOptions staging = options;
  staging.fault.migrate_staging = 300.0;
  EXPECT_NE(make_eval_key(cluster, schedule, kEnsemble, staging).fault_sig,
            base.fault_sig);

  auto reseeded = model;
  reseeded.set_seed(8);
  SimOptions seeded = options;
  seeded.fault.model = &reseeded;
  EXPECT_NE(make_eval_key(cluster, schedule, kEnsemble, seeded).fault_sig,
            base.fault_sig);

  // Identical injection -> identical key (the memo still works).
  EXPECT_EQ(make_eval_key(cluster, schedule, kEnsemble, options), base);
}

TEST(FaultCache, FailureRunsNeverPoisonCleanEntries) {
  // The regression the eval cache must never re-grow: a failure-injected
  // makespan served for a clean query (or vice versa) because the key
  // ignored the injection.
  const auto cluster = platform::make_builtin_cluster(1, 30);
  const auto schedule = sched::knapsack_grouping(cluster, kEnsemble);
  const auto model =
      fault::FailureModel::uniform_exponential(1, 20000.0, 2000.0, 3);

  eval_cache().clear();
  eval_cache().reset_stats();

  const Seconds clean = cached_makespan(cluster, schedule, kEnsemble);

  SimOptions injected;
  injected.fault.model = &model;
  const Seconds faulty =
      cached_makespan(cluster, schedule, kEnsemble, injected);
  ASSERT_NE(faulty, clean);  // this workload does get hit by failures

  // Re-asking the clean question must return the clean answer, byte for
  // byte, even though the failure run populated the cache in between.
  EXPECT_EQ(cached_makespan(cluster, schedule, kEnsemble), clean);
  // And the failure question keeps its own entry.
  EXPECT_EQ(cached_makespan(cluster, schedule, kEnsemble, injected), faulty);

  const EvalCacheStats stats = eval_cache().stats();
  EXPECT_EQ(stats.hits, 2u);    // one clean re-ask, one faulty re-ask
  EXPECT_EQ(stats.misses, 2u);  // the two distinct first questions
}

TEST(FaultCache, CachedMakespanMatchesDirectSimulationUnderInjection) {
  const auto cluster = platform::make_builtin_cluster(1, 30);
  const auto schedule = sched::knapsack_grouping(cluster, kEnsemble);
  const auto model =
      fault::FailureModel::uniform_exponential(1, 20000.0, 2000.0, 3);

  SimOptions injected;
  injected.fault.model = &model;
  eval_cache().clear();

  const Seconds via_cache =
      cached_makespan(cluster, schedule, kEnsemble, injected);
  const Seconds direct =
      simulate_ensemble(cluster, schedule, kEnsemble, injected).makespan;
  EXPECT_EQ(via_cache, direct);
}

}  // namespace
}  // namespace oagrid::sim
