#include "sim/eval_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/local_search.hpp"
#include "sim/optimal_search.hpp"

namespace oagrid {
namespace {

using appmodel::Ensemble;

platform::Cluster test_cluster(ProcCount resources = 64) {
  return platform::make_builtin_cluster(1, resources);
}

TEST(EvalKey, GroupOrderIsCanonicalized) {
  const auto cluster = test_cluster();
  sched::GroupSchedule a;
  a.group_sizes = {7, 8, 9};
  a.post_pool = 4;
  sched::GroupSchedule b;
  b.group_sizes = {9, 7, 8};
  b.post_pool = 4;
  const Ensemble ensemble{10, 150};
  EXPECT_EQ(sim::make_eval_key(cluster, a, ensemble),
            sim::make_eval_key(cluster, b, ensemble));
}

TEST(EvalKey, DistinguishesPartitionMonthsPolicyAndPool) {
  const auto cluster = test_cluster();
  sched::GroupSchedule schedule;
  schedule.group_sizes = {8, 8};
  schedule.post_pool = 4;
  const Ensemble ensemble{10, 150};
  const auto base = sim::make_eval_key(cluster, schedule, ensemble);

  sched::GroupSchedule other = schedule;
  other.group_sizes = {8, 7};
  EXPECT_NE(base, sim::make_eval_key(cluster, other, ensemble));

  EXPECT_NE(base, sim::make_eval_key(cluster, schedule, Ensemble{10, 151}));
  EXPECT_NE(base, sim::make_eval_key(cluster, schedule, Ensemble{9, 150}));

  other = schedule;
  other.post_pool = 5;
  EXPECT_NE(base, sim::make_eval_key(cluster, other, ensemble));

  other = schedule;
  other.post_policy = sched::PostPolicy::kAllAtEnd;
  EXPECT_NE(base, sim::make_eval_key(cluster, other, ensemble));
}

TEST(EvalKey, RestartHandoffKeys) {
  // The hand-off stall changes every makespan; caching across different
  // values would poison network-aware sweeps.
  const auto cluster = test_cluster();
  sched::GroupSchedule schedule;
  schedule.group_sizes = {8, 8};
  const Ensemble ensemble{10, 150};
  const auto base = sim::make_eval_key(cluster, schedule, ensemble);

  sim::SimOptions stalled;
  stalled.restart_handoff = 0.96;
  EXPECT_NE(base, sim::make_eval_key(cluster, schedule, ensemble, stalled));

  sim::SimOptions zero;
  zero.restart_handoff = 0.0;
  EXPECT_EQ(base, sim::make_eval_key(cluster, schedule, ensemble, zero));
}

TEST(EvalKey, ClusterSignatureIgnoresNameOnly) {
  const std::vector<Seconds> times{100, 60, 45, 40};
  const platform::Cluster a("alpha", 32, 4, times, 20.0);
  const platform::Cluster b("beta", 32, 4, times, 20.0);
  EXPECT_EQ(a.signature(), b.signature());

  const platform::Cluster fewer("alpha", 24, 4, times, 20.0);
  EXPECT_NE(a.signature(), fewer.signature());

  const platform::Cluster slower_post("alpha", 32, 4, times, 25.0);
  EXPECT_NE(a.signature(), slower_post.signature());
}

TEST(EvalKey, SeedIsNormalizedWhenPerturbationInactive) {
  const auto cluster = test_cluster();
  sched::GroupSchedule schedule;
  schedule.group_sizes = {8, 8};
  const Ensemble ensemble{10, 150};

  sim::SimOptions seed_one;
  seed_one.perturbation.seed = 1;
  sim::SimOptions seed_nine;
  seed_nine.perturbation.seed = 9;
  EXPECT_EQ(sim::make_eval_key(cluster, schedule, ensemble, seed_one),
            sim::make_eval_key(cluster, schedule, ensemble, seed_nine));

  // With the model active the seed changes the execution and must key.
  seed_one.perturbation.duration_jitter = 0.1;
  seed_nine.perturbation.duration_jitter = 0.1;
  EXPECT_NE(sim::make_eval_key(cluster, schedule, ensemble, seed_one),
            sim::make_eval_key(cluster, schedule, ensemble, seed_nine));
}

TEST(EvalCache, CountsHitsMissesAndInsertions) {
  sim::EvalCache cache(1024);
  const auto cluster = test_cluster();
  sched::GroupSchedule schedule;
  schedule.group_sizes = {8, 8};
  const auto key = sim::make_eval_key(cluster, schedule, Ensemble{10, 150});

  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, 42.0);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42.0);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(EvalCache, BoundedCapacityEvicts) {
  // One entry per shard: residency can never exceed kShardCount.
  sim::EvalCache cache(sim::EvalCache::kShardCount);
  const auto cluster = test_cluster();
  sched::GroupSchedule schedule;
  schedule.group_sizes = {8, 8};
  sim::EvalKey key = sim::make_eval_key(cluster, schedule, Ensemble{10, 150});
  for (std::uint64_t i = 0; i < 500; ++i) {
    key.seed = i + 1;  // distinct keys
    cache.insert(key, static_cast<Seconds>(i));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 500u);
  EXPECT_LE(stats.entries, sim::EvalCache::kShardCount);
  EXPECT_EQ(stats.evictions, stats.insertions - stats.entries);
}

TEST(EvalCache, ClearDropsEntriesKeepsStats) {
  sim::EvalCache cache(1024);
  sim::EvalKey key;
  key.sizes = {8};
  cache.insert(key, 1.0);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(EvalCache, ThreadedMixedTrafficStaysConsistent) {
  sim::EvalCache cache(256);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      sim::EvalKey key;
      key.sizes = {8, 8};
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        key.seed = (static_cast<std::uint64_t>(t) * kOpsPerThread + i) % 64;
        if (const auto hit = cache.lookup(key)) {
          ASSERT_EQ(*hit, static_cast<Seconds>(key.seed));
        } else {
          cache.insert(key, static_cast<Seconds>(key.seed));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
  EXPECT_LE(stats.entries, 64u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(CachedMakespan, MatchesDirectSimulationColdAndWarm) {
  const auto cluster = test_cluster();
  const appmodel::Ensemble ensemble{10, 30};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);
  const Seconds direct =
      sim::simulate_ensemble(cluster, schedule, ensemble).makespan;
  const Seconds cold = sim::cached_makespan(cluster, schedule, ensemble);
  const Seconds warm = sim::cached_makespan(cluster, schedule, ensemble);
  EXPECT_EQ(direct, cold);
  EXPECT_EQ(direct, warm);
}

TEST(CachedMakespan, SideEffectRequestsBypassTheCache) {
  const auto cluster = test_cluster();
  const appmodel::Ensemble ensemble{4, 6};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);

  sim::SimOptions traced;
  traced.capture_trace = true;
  const auto before = sim::eval_cache().stats();
  const Seconds makespan = sim::cached_makespan(
      cluster, schedule, ensemble, traced);
  const auto after = sim::eval_cache().stats();
  EXPECT_EQ(makespan,
            sim::simulate_ensemble(cluster, schedule, ensemble).makespan);
  EXPECT_EQ(before.hits + before.misses, after.hits + after.misses);
}

TEST(CachedMakespan, MirrorsCountersIntoObsMetrics) {
  obs::set_enabled(true);
  const std::uint64_t hits_before =
      obs::metrics().counter("evalcache.hits").value();
  const std::uint64_t misses_before =
      obs::metrics().counter("evalcache.misses").value();

  sim::EvalCache cache(64);
  sim::EvalKey key;
  key.sizes = {8};
  (void)cache.lookup(key);  // miss
  cache.insert(key, 5.0);
  (void)cache.lookup(key);  // hit

  EXPECT_EQ(obs::metrics().counter("evalcache.hits").value(), hits_before + 1);
  EXPECT_EQ(obs::metrics().counter("evalcache.misses").value(),
            misses_before + 1);
  obs::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Determinism regression tests: the parallel evaluation engine must produce
// the serial run's schedules and makespans byte for byte on the whole shared
// pool, on a cold or a warm cache. These are the acceptance tests of the
// parallel-search work — EXPECT_EQ on doubles is deliberate.
// ---------------------------------------------------------------------------

void expect_same_search(const sim::LocalSearchResult& a,
                        const sim::LocalSearchResult& b) {
  EXPECT_EQ(a.best.group_sizes, b.best.group_sizes);
  EXPECT_EQ(a.best.post_pool, b.best.post_pool);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

/// The serial reference: `search` called from inside a region of a
/// zero-worker pool, so every shared_pool() region it opens runs inline, in
/// index order.
template <typename Search>
auto serially(const Search& search) -> decltype(search()) {
  ThreadPool serial(0);
  decltype(search()) result;
  serial.parallel_for(0, 1, [&](std::size_t) { result = search(); });
  return result;
}

TEST(EvalEngineDeterminism, LocalSearchIdenticalAcrossThreadCounts) {
  const auto cluster = test_cluster(64);
  const appmodel::Ensemble ensemble{10, 20};
  const auto search = [&] {
    return sim::local_search_grouping(cluster, ensemble);
  };

  sim::eval_cache().clear();
  const auto reference = serially(search);
  EXPECT_GT(reference.evaluations, 0u);

  // On the whole shared pool, from a cold cache and then a warm one.
  sim::eval_cache().clear();
  expect_same_search(reference, search());
  expect_same_search(reference, search());

  // The cache is now fully warm for this workload; results (including the
  // evaluation count, which is charged against a search-local memo) must not
  // change.
  expect_same_search(reference, serially(search));
}

TEST(EvalEngineDeterminism, LocalSearchTightBudgetIdenticalAcrossThreadCounts) {
  // A budget that dries up mid-neighborhood exercises the truncation logic:
  // the parallel walk must charge and cut the candidate list exactly where
  // the serial scan would.
  const auto cluster = test_cluster(48);
  const appmodel::Ensemble ensemble{8, 15};

  for (const std::size_t budget : {std::size_t{1}, std::size_t{7},
                                   std::size_t{40}}) {
    sim::LocalSearchOptions options;
    options.max_evaluations = budget;
    const auto search = [&] {
      return sim::local_search_grouping(cluster, ensemble, options);
    };
    sim::eval_cache().clear();
    const auto reference = serially(search);
    sim::eval_cache().clear();
    expect_same_search(reference, search());  // cold cache
    expect_same_search(reference, search());  // warm cache
  }
}

TEST(EvalEngineDeterminism, OptimalSearchIdenticalAcrossThreadCounts) {
  const auto cluster = test_cluster(24);
  const appmodel::Ensemble ensemble{4, 8};
  const auto search = [&] {
    return sim::optimal_grouping_search(cluster, ensemble);
  };

  sim::eval_cache().clear();
  const auto reference = serially(search);
  sim::eval_cache().clear();
  for (int warmth = 0; warmth < 2; ++warmth) {  // cold cache, then warm
    const auto run = search();
    EXPECT_EQ(reference.best.group_sizes, run.best.group_sizes);
    EXPECT_EQ(reference.best.post_pool, run.best.post_pool);
    EXPECT_EQ(reference.makespan, run.makespan);
    EXPECT_EQ(reference.evaluated, run.evaluated);
  }
}

}  // namespace
}  // namespace oagrid
