/// \file bench_perfvector.cpp
/// \brief Planning-path benchmark for step 2 of Figure 9: building the
/// per-cluster performance vector ("the time needed to execute from 1 to NS
/// simulations"). Google-benchmark binary.
///
/// The cold-cache series is the acceptance gauge of the single-pass knapsack
/// family solve: historically every k = 1..NS entry re-ran the §4.2 bounded
/// knapsack DP from scratch before its (cached) DES evaluation, so the
/// planning cost grew as NS independent DP solves per cluster. The family
/// solve extracts all NS groupings from one DP sweep, leaving the DES
/// evaluations as the only per-k work. The analytic series measures
/// sched::throughput_performance_vector, which collapses the same way.

#include <benchmark/benchmark.h>

#include <barrier>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sched/throughput.hpp"
#include "sim/eval_cache.hpp"
#include "sim/perf_vector.hpp"

namespace {

using namespace oagrid;

/// Args: {R, NS, NM}. Cold cache: every iteration drops the process-global
/// eval cache, so each DES entry is simulated (not looked up) and the DP
/// share of the cost is not hidden behind warm hits. The NS=200 case runs a
/// short campaign (NM=1) on purpose: the DES share of a cold build is
/// irreducible per-k work, and keeping it small makes this series a gauge of
/// the planning cost proper.
void BM_PerfVectorColdCache(benchmark::State& state) {
  const auto cluster = platform::make_builtin_cluster(
      1, static_cast<ProcCount>(state.range(0)));
  const Count ns = state.range(1);
  const Count months = state.range(2);
  for (auto _ : state) {
    state.PauseTiming();
    sim::eval_cache().clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        sim::performance_vector(cluster, ns, months, sched::Heuristic::kKnapsack));
  }
  state.SetItemsProcessed(state.iterations() * ns);
}
BENCHMARK(BM_PerfVectorColdCache)
    ->Args({53, 10, 60})
    ->Args({120, 40, 24})
    ->Args({1024, 200, 1})
    ->Unit(benchmark::kMillisecond);

/// Figure 9's step 3: five callers (the SeDs of a built-in grid, R = arg 0)
/// each ask for a cold NS = 10 vector of their own cluster at once, over
/// `months` = arg 1. Their regions share the pool, so this times how well
/// independent regions overlap. The callers are persistent threads, as the
/// SeDs are, released together by a barrier; real time is what counts (the
/// timing thread only waits, so its CPU time says nothing here), and the
/// `/real_time` suffix makes the regression gate judge these rows on it.
void BM_PerfVectorConcurrentCallers(benchmark::State& state) {
  const auto grid =
      platform::make_builtin_grid(static_cast<ProcCount>(state.range(0)));
  const Count months = state.range(1);
  const std::span<const platform::Cluster> clusters = grid.clusters();
  std::barrier start(static_cast<std::ptrdiff_t>(clusters.size()) + 1);
  std::barrier done(static_cast<std::ptrdiff_t>(clusters.size()) + 1);
  bool stop = false;
  std::vector<std::thread> callers;
  for (const platform::Cluster& cluster : clusters)
    callers.emplace_back([&, months] {
      for (;;) {
        start.arrive_and_wait();
        if (stop) return;
        benchmark::DoNotOptimize(sim::performance_vector(
            cluster, 10, months, sched::Heuristic::kKnapsack));
        done.arrive_and_wait();
      }
    });
  for (auto _ : state) {
    state.PauseTiming();
    sim::eval_cache().clear();
    state.ResumeTiming();
    start.arrive_and_wait();
    done.arrive_and_wait();
  }
  stop = true;
  start.arrive_and_wait();
  for (std::thread& caller : callers) caller.join();
  state.SetItemsProcessed(state.iterations() * 10 *
                          static_cast<std::int64_t>(clusters.size()));
}
BENCHMARK(BM_PerfVectorConcurrentCallers)
    ->Args({53, 60})
    ->Args({53, 600})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Warm cache: the DES entries are pure lookups, so this isolates the
/// per-call planning overhead (schedule construction per k).
void BM_PerfVectorWarmCache(benchmark::State& state) {
  const auto cluster = platform::make_builtin_cluster(
      1, static_cast<ProcCount>(state.range(0)));
  const Count ns = state.range(1);
  const Count months = state.range(2);
  benchmark::DoNotOptimize(
      sim::performance_vector(cluster, ns, months, sched::Heuristic::kKnapsack));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::performance_vector(cluster, ns, months, sched::Heuristic::kKnapsack));
  state.SetItemsProcessed(state.iterations() * ns);
}
BENCHMARK(BM_PerfVectorWarmCache)
    ->Args({120, 40, 24})
    ->Args({1024, 200, 1})
    ->Unit(benchmark::kMillisecond);

/// The analytic §5 vector (knapsack-optimal steady-state throughput per k) —
/// the AnalyticEstimator's hot path in the service control plane.
void BM_AnalyticPerfVector(benchmark::State& state) {
  const auto cluster = platform::make_builtin_cluster(
      1, static_cast<ProcCount>(state.range(0)));
  const Count ns = state.range(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::throughput_performance_vector(cluster, ns, 12));
  state.SetItemsProcessed(state.iterations() * ns);
}
BENCHMARK(BM_AnalyticPerfVector)
    ->Args({53, 10})
    ->Args({120, 40})
    ->Args({512, 200})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
