/// \file bench_knapsack.cpp
/// \brief Microbenchmarks of the knapsack DP and its exhaustive oracle over
/// the paper's item universe (group sizes 4..11), plus the grouping
/// heuristics end to end. Google-benchmark binary: run with
/// --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>


#include "appmodel/ensemble.hpp"
#include "knapsack/knapsack.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sched/makespan_model.hpp"

namespace {

using namespace oagrid;

knapsack::Problem paper_problem(int capacity, Count max_items) {
  return sched::grouping_knapsack(platform::make_builtin_cluster(1, capacity),
                                  max_items);
}

void BM_KnapsackDP(benchmark::State& state) {
  const auto problem =
      paper_problem(static_cast<int>(state.range(0)), state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(knapsack::solve_dp(problem));
}
BENCHMARK(BM_KnapsackDP)
    ->Args({53, 10})
    ->Args({120, 10})
    ->Args({512, 40})
    ->Args({2048, 100});

void BM_KnapsackExhaustive(benchmark::State& state) {
  const auto problem =
      paper_problem(static_cast<int>(state.range(0)), state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(knapsack::solve_exhaustive(problem));
}
BENCHMARK(BM_KnapsackExhaustive)->Args({53, 10})->Args({64, 6});

void BM_BestUniformGrouping(benchmark::State& state) {
  const auto cluster =
      platform::make_builtin_cluster(1, static_cast<ProcCount>(state.range(0)));
  const appmodel::Ensemble ensemble{10, 1800};
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::best_uniform_grouping(cluster, ensemble));
}
BENCHMARK(BM_BestUniformGrouping)->Arg(53)->Arg(120);

void BM_KnapsackGroupingEndToEnd(benchmark::State& state) {
  const auto cluster =
      platform::make_builtin_cluster(1, static_cast<ProcCount>(state.range(0)));
  const appmodel::Ensemble ensemble{10, 1800};
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::knapsack_grouping(cluster, ensemble));
}
BENCHMARK(BM_KnapsackGroupingEndToEnd)->Arg(53)->Arg(120);

}  // namespace

BENCHMARK_MAIN();
