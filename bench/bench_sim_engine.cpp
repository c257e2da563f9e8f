/// \file bench_sim_engine.cpp
/// \brief Throughput microbenchmarks of the ensemble simulator
/// (events/second, full-campaign latency), sizing the sweeps the figure
/// benches can afford.
///
/// The custom main() additionally gates the observability overhead: the
/// same campaign is simulated with obs off and obs on (metrics recording) in
/// pairs whose order alternates, to cancel frequency drift and run-order
/// effects, and the binary fails (exit 1) if the median instrumented run is
/// more than 5% slower.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/obs.hpp"
#include "platform/profiles.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/exporters.hpp"
#include "sim/grid_sim.hpp"

namespace {

using namespace oagrid;

void BM_EnsembleSimulation(benchmark::State& state) {
  const auto cluster = platform::make_builtin_cluster(1, 53);
  const appmodel::Ensemble ensemble{10, state.range(0)};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_ensemble(cluster, schedule, ensemble));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          ensemble.total_tasks() * 2);
}
BENCHMARK(BM_EnsembleSimulation)->Arg(150)->Arg(1800);

void BM_GridCampaign(benchmark::State& state) {
  const auto grid = platform::make_builtin_grid(40);
  const appmodel::Ensemble ensemble{10, state.range(0)};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_grid(grid, ensemble, sched::Heuristic::kKnapsack));
}
BENCHMARK(BM_GridCampaign)->Arg(60);

/// One full campaign simulation; the workload of the overhead gate.
double timed_campaign_us(const platform::Cluster& cluster,
                         const sched::GroupSchedule& schedule,
                         const appmodel::Ensemble& ensemble) {
  const auto start = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sim::simulate_ensemble(cluster, schedule, ensemble));
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Measures obs-off vs obs-on (metrics) vs obs-on (metrics + trace) on the
/// paper's reference campaign. Returns false if metrics overhead > 5%.
bool check_obs_overhead() {
  const auto cluster = platform::make_builtin_cluster(1, 53);
  const appmodel::Ensemble ensemble{10, 150};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);
  // A campaign takes about 0.1 ms: 201 pairs steady the medians and still
  // cost well under a second.
  constexpr int kRounds = 201;

  // Warm-up: page in code and the allocator.
  obs::set_enabled(false);
  (void)timed_campaign_us(cluster, schedule, ensemble);

  // Paired rounds, the side that runs first alternating: a campaign runs
  // faster or slower depending on what ran just before it, and a fixed
  // order would charge that to one side.
  std::vector<double> off_us, metrics_us, trace_us;
  for (int round = 0; round < kRounds; ++round) {
    const bool metrics_first = round % 2 == 0;
    for (const bool metrics : {metrics_first, !metrics_first}) {
      obs::set_enabled(metrics);
      (metrics ? metrics_us : off_us)
          .push_back(timed_campaign_us(cluster, schedule, ensemble));
    }
  }
  // The traced campaigns fill the trace buffer and free it again, so they
  // run in their own loop, after the pairs.
  sim::SimOptions traced;
  traced.capture_trace = true;
  obs::set_enabled(true);
  for (int round = 0; round < kRounds; ++round) {
    const auto start = std::chrono::steady_clock::now();
    sim::export_sim_timeline(
        sim::simulate_ensemble(cluster, schedule, ensemble, traced).trace,
        obs::trace_buffer(), 0, cluster.name());
    trace_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    obs::reset();
  }
  obs::set_enabled(false);
  obs::reset();

  const double off = median(off_us);
  const double with_metrics = median(metrics_us);
  const double with_trace = median(trace_us);
  const double metrics_overhead = (with_metrics - off) / off * 100.0;
  const double trace_overhead = (with_trace - off) / off * 100.0;
  std::printf("\nobservability overhead (median of %d campaigns, NS=10 NM=150, "
              "53 procs)\n",
              kRounds);
  std::printf("  obs off:             %10.1f us\n", off);
  std::printf("  obs on (metrics):    %10.1f us  (%+.2f%%)\n", with_metrics,
              metrics_overhead);
  std::printf("  obs on (+trace):     %10.1f us  (%+.2f%%, informational)\n",
              with_trace, trace_overhead);
  if (metrics_overhead > 5.0) {
    std::printf("FAIL: metrics overhead %.2f%% exceeds the 5%% budget\n",
                metrics_overhead);
    return false;
  }
  std::printf("OK: metrics overhead within the 5%% budget\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return check_obs_overhead() ? 0 : 1;
}
