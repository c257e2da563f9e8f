/// \file bench_eval_cache.cpp
/// \brief Microbenchmarks of the shared evaluation cache (sim/eval_cache):
/// key construction, hit/miss probe latency, eviction churn, and the
/// end-to-end payoff — cached_makespan and local search on a warm cache over
/// the (R=64, NS=10) reference workload. Each bench exports its measured
/// cache hit rate as a user counter, which `--benchmark_out` carries into
/// the machine-readable records.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sim/eval_cache.hpp"
#include "sim/local_search.hpp"

namespace {

using namespace oagrid;

/// The reference workload of the perf acceptance criteria: 64 processors,
/// 10 scenarios.
platform::Cluster reference_cluster() {
  return platform::make_builtin_cluster(1, 64);
}

void BM_EvalKeyBuild(benchmark::State& state) {
  const auto cluster = reference_cluster();
  const appmodel::Ensemble ensemble{10, 150};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::make_eval_key(cluster, schedule, ensemble));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvalKeyBuild);

void BM_CacheLookupHit(benchmark::State& state) {
  sim::EvalCache cache(1 << 16);
  const auto cluster = reference_cluster();
  const appmodel::Ensemble ensemble{10, 150};
  const auto key = sim::make_eval_key(
      cluster, sched::knapsack_grouping(cluster, ensemble), ensemble);
  cache.insert(key, 1234.5);
  for (auto _ : state) benchmark::DoNotOptimize(cache.lookup(key));
  state.counters["hit_rate"] = cache.stats().hit_rate();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheLookupMiss(benchmark::State& state) {
  sim::EvalCache cache(1 << 16);
  const auto cluster = reference_cluster();
  const appmodel::Ensemble ensemble{10, 150};
  sim::EvalKey key = sim::make_eval_key(
      cluster, sched::knapsack_grouping(cluster, ensemble), ensemble);
  std::uint64_t salt = 0;
  for (auto _ : state) {
    key.seed = ++salt;  // every probe unique -> guaranteed miss
    benchmark::DoNotOptimize(cache.lookup(key));
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupMiss);

void BM_CacheInsertEvict(benchmark::State& state) {
  // Capacity of one entry per shard: almost every insert evicts, measuring
  // the worst-case write path.
  sim::EvalCache cache(sim::EvalCache::kShardCount);
  const auto cluster = reference_cluster();
  const appmodel::Ensemble ensemble{10, 150};
  sim::EvalKey key = sim::make_eval_key(
      cluster, sched::knapsack_grouping(cluster, ensemble), ensemble);
  std::uint64_t salt = 0;
  for (auto _ : state) {
    key.seed = ++salt;
    cache.insert(key, static_cast<Seconds>(salt));
  }
  const auto stats = cache.stats();
  state.counters["evictions"] =
      static_cast<double>(stats.evictions) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheInsertEvict);

void BM_CachedMakespanWarm(benchmark::State& state) {
  const auto cluster = reference_cluster();
  const appmodel::Ensemble ensemble{10, state.range(0)};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);
  const auto before = sim::eval_cache().stats();
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::cached_makespan(cluster, schedule, ensemble));
  const auto after = sim::eval_cache().stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  state.counters["hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CachedMakespanWarm)->Arg(150)->Arg(1800);

void BM_LocalSearchWarmCache(benchmark::State& state) {
  const auto cluster = reference_cluster();
  const appmodel::Ensemble ensemble{10, 150};
  // Warm-up pass outside the timing loop so every timed iteration runs
  // against a fully populated cache, even when min_time admits only one.
  benchmark::DoNotOptimize(sim::local_search_grouping(cluster, ensemble));
  const auto before = sim::eval_cache().stats();
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const auto result = sim::local_search_grouping(cluster, ensemble);
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.makespan);
  }
  const auto after = sim::eval_cache().stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  state.counters["hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  state.counters["evaluations"] = static_cast<double>(evaluations);
}
BENCHMARK(BM_LocalSearchWarmCache);

}  // namespace

BENCHMARK_MAIN();
