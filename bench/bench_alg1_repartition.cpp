/// \file bench_alg1_repartition.cpp
/// \brief Microbenchmarks of Algorithm 1 (greedy DAG repartition over
/// heterogeneous clusters) on synthetic monotone performance vectors — the
/// shape real simulations produce. Google-benchmark binary.
///
/// The greedy series measures the heap-driven O(NS log C) placement loop
/// (historically an O(NS * C) rescan of every cluster per scenario); the
/// charged series adds a per-placement network/failure charge; the brute
/// force series keeps the exhaustive oracle honest at a size where its
/// exponential enumeration is still affordable.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "sched/repartition.hpp"

namespace {

using namespace oagrid;

/// Random strictly-monotone vectors: cluster c runs k scenarios in an
/// increasing time, like every simulated performance vector.
std::vector<sched::PerformanceVector> monotone_vectors(int clusters, Count ns,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sched::PerformanceVector> perf(
      static_cast<std::size_t>(clusters));
  for (auto& vec : perf) {
    Seconds t = rng.uniform(100.0, 2000.0);
    vec.reserve(static_cast<std::size_t>(ns));
    for (Count k = 0; k < ns; ++k) {
      vec.push_back(t);
      t += rng.uniform(10.0, 500.0);
    }
  }
  return perf;
}

/// Args: {clusters, scenarios}.
void BM_GreedyRepartition(benchmark::State& state) {
  const auto perf = monotone_vectors(static_cast<int>(state.range(0)),
                                     state.range(1), 314);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::greedy_repartition(perf, state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_GreedyRepartition)
    ->Args({4, 200})
    ->Args({32, 2000})
    ->Args({256, 10000});

/// Same loop with a placement charge folded into every candidate (the
/// network-aware scheduler's path).
void BM_GreedyRepartitionCharged(benchmark::State& state) {
  const auto perf = monotone_vectors(static_cast<int>(state.range(0)),
                                     state.range(1), 159);
  const sched::PlacementCharge charge = [](std::size_t cluster, Count k) {
    return 0.25 * static_cast<double>(cluster + 1) * static_cast<double>(k);
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::greedy_repartition_charged(perf, state.range(1), charge));
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_GreedyRepartitionCharged)->Args({32, 2000})->Args({256, 10000});

/// The exhaustive oracle at a small size (compositions of NS into C parts),
/// for scale against the greedy above.
void BM_BruteForceRepartition(benchmark::State& state) {
  const auto perf = monotone_vectors(static_cast<int>(state.range(0)),
                                     state.range(1), 265);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::brute_force_repartition(perf, state.range(1)));
}
BENCHMARK(BM_BruteForceRepartition)->Args({4, 12});

}  // namespace

BENCHMARK_MAIN();
