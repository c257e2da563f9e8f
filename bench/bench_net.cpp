/// \file bench_net.cpp
/// \brief Microbenchmarks of the net subsystem: link-table lookups, the
/// fair-share transfer allocator at campaign scale, network-file parsing,
/// and the cost of pricing Algorithm 1's placements over a network. These
/// guard the hot paths the network-aware schedulers hit once per candidate
/// placement, so they must stay cheap relative to a simulation evaluation.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "net/parser.hpp"
#include "sched/repartition.hpp"

namespace {

using namespace oagrid;

constexpr int kClusters = 8;

/// Campaign-shaped batch: `per_cluster` restart files staged from home to
/// each remote cluster at t = 0 — the deployment burst of §5.
std::vector<net::TransferRequest> staging_batch(int clusters,
                                                int per_cluster) {
  std::vector<net::TransferRequest> reqs;
  for (ClusterId c = 1; c < clusters; ++c)
    for (int i = 0; i < per_cluster; ++i)
      reqs.push_back({0, c, 120.0, 0.0});
  return reqs;
}

void BM_TransferTimeLookup(benchmark::State& state) {
  const auto model = net::renater_network(kClusters);
  ClusterId src = 0;
  for (auto _ : state) {
    src = (src + 1) % kClusters;
    benchmark::DoNotOptimize(
        model.transfer_time(src, (src + 3) % kClusters, 120.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TransferTimeLookup);

void BM_FairShareStagingBatch(benchmark::State& state) {
  // The allocator's common case: a deployment burst over distinct links
  // (one per destination), sized like a real campaign.
  const auto model = net::renater_network(kClusters);
  const auto reqs =
      staging_batch(kClusters, static_cast<int>(state.range(0)));
  net::TransferPlan plan;
  for (auto _ : state)
    benchmark::DoNotOptimize(plan = net::simulate_transfers(model, reqs));
  state.counters["transfers"] = static_cast<double>(reqs.size());
  state.counters["makespan_s"] = plan.makespan;
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(reqs.size()));
}
BENCHMARK(BM_FairShareStagingBatch)->Arg(4)->Arg(32);

void BM_FairShareContendedLink(benchmark::State& state) {
  // Worst case: every transfer fights for one directed link with staggered
  // arrivals, so each event rescales every share (O(E * A) path).
  const auto model = net::renater_network(2);
  std::vector<net::TransferRequest> reqs;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i)
    reqs.push_back({0, 1, 40.0 + static_cast<double>(i % 7),
                    0.25 * static_cast<double>(i)});
  net::TransferPlan plan;
  for (auto _ : state)
    benchmark::DoNotOptimize(plan = net::simulate_transfers(model, reqs));
  state.counters["makespan_s"] = plan.makespan;
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(reqs.size()));
}
BENCHMARK(BM_FairShareContendedLink)->Arg(16)->Arg(128);

void BM_ParseNetworkFile(benchmark::State& state) {
  std::ostringstream text;
  net::write_network(text, net::renater_network(kClusters));
  const std::string file = text.str();
  for (auto _ : state)
    benchmark::DoNotOptimize(net::parse_network_string(file));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseNetworkFile);

void BM_ChargedRepartition(benchmark::State& state) {
  // Algorithm 1 with each candidate placement priced over the network —
  // the per-campaign scheduling cost of network awareness.
  const auto model = net::renater_network(kClusters);
  const Count scenarios = 32;
  std::vector<sched::PerformanceVector> perf(kClusters);
  for (int c = 0; c < kClusters; ++c)
    for (Count k = 1; k <= scenarios; ++k)
      perf[static_cast<std::size_t>(c)].push_back(
          (3600.0 + 400.0 * c) * static_cast<double>(k));
  const sched::PlacementCharge charge = [&model](std::size_t cluster,
                                                 Count k) {
    const auto dst = static_cast<ClusterId>(cluster);
    const double files = static_cast<double>(k);
    return model.transfer_time(0, dst, files * 120.0) +
           model.transfer_time(dst, 0, files * 184.0);
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::greedy_repartition_charged(perf, scenarios, charge));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChargedRepartition);

}  // namespace

BENCHMARK_MAIN();
