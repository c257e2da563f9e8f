/// \file bench_fault.cpp
/// \brief Microbenchmarks of the fault subsystem: outage-stream draws, the
/// fluid availability tracker, failure-file parsing, the failure-aware
/// placement charge, and a failure-injected DES run. The streams and the
/// charge sit on paths the schedulers and simulators hit once per unit or
/// per candidate placement, so they must stay cheap relative to an
/// evaluation; the DES run guards the cost of the kill/rewind machinery
/// itself.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "fault/failure.hpp"
#include "fault/parser.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"
#include "sim/ensemble_sim.hpp"

namespace {

using namespace oagrid;

constexpr int kClusters = 8;

fault::FailureModel mixed_model() {
  fault::FailureModel model(kClusters);
  for (ClusterId c = 0; c < kClusters; ++c) {
    if (c % 3 == 0)
      model.set_weibull(c, 0.7, 40000.0 + 5000.0 * c, 2000.0);
    else
      model.set_exponential(c, 40000.0 + 5000.0 * c, 2000.0);
    model.add_outage(c, 10000.0 * (c + 1), 1800.0);
  }
  return model;
}

void BM_OutageStreamDraw(benchmark::State& state) {
  // One stream draw ~ one kNodeDown event scheduled in the DES.
  const fault::FailureModel model = mixed_model();
  int unit = 0;
  for (auto _ : state) {
    fault::OutageStream stream(model, static_cast<ClusterId>(unit % kClusters),
                               unit);
    ++unit;
    Seconds t = 0.0;
    for (int i = 0; i < 64; ++i) {
      const auto outage = stream.next(t);
      if (!outage) break;
      benchmark::DoNotOptimize(outage->start);
      t = outage->start + outage->duration;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_OutageStreamDraw);

void BM_AvailabilityTracker(benchmark::State& state) {
  // The fluid grid's per-epoch query: down fraction of consecutive windows.
  const fault::FailureModel model = mixed_model();
  int unit = 0;
  for (auto _ : state) {
    fault::AvailabilityTracker tracker(
        model, static_cast<ClusterId>(unit % kClusters), unit);
    ++unit;
    double total = 0.0;
    for (int epoch = 0; epoch < 64; ++epoch)
      total += tracker.down_fraction(21600.0 * epoch, 21600.0 * (epoch + 1));
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AvailabilityTracker);

void BM_ParseFailureFile(benchmark::State& state) {
  std::ostringstream text;
  fault::write_failures(text, mixed_model());
  const std::string file = text.str();
  for (auto _ : state)
    benchmark::DoNotOptimize(fault::parse_failures_string(file));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseFailureFile);

void BM_FailureChargedRepartition(benchmark::State& state) {
  // Algorithm 1 with every candidate placement charged its expected failure
  // inflation — the scheduling-time cost of failure awareness.
  const fault::FailureModel model = mixed_model();
  const Count scenarios = 32;
  const Count months = 60;
  std::vector<sched::PerformanceVector> perf(kClusters);
  for (int c = 0; c < kClusters; ++c)
    for (Count k = 1; k <= scenarios; ++k)
      perf[static_cast<std::size_t>(c)].push_back(
          (3600.0 + 400.0 * c) * static_cast<double>(k));
  const sched::PlacementCharge charge =
      fault::make_failure_charge(model, perf, months, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sched::greedy_repartition_charged(perf, scenarios, charge));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FailureChargedRepartition);

void BM_FaultInjectedSim(benchmark::State& state) {
  // Full failure-injected DES of one cluster's campaign: outage scheduling,
  // in-flight kills, checkpoint rewinds and redispatch all included.
  const auto cluster = platform::make_builtin_cluster(1, 34);
  const appmodel::Ensemble ensemble{10, 60};
  const auto schedule =
      sched::make_schedule(sched::Heuristic::kKnapsack, cluster, ensemble);
  const fault::FailureModel model =
      fault::FailureModel::uniform_exponential(1, 30000.0, 1500.0, 7);
  sim::SimOptions options;
  options.fault.model = &model;
  options.fault.recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  options.fault.checkpoint_months = 3;
  sim::SimResult result;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        result = sim::simulate_ensemble(cluster, schedule, ensemble, options));
  state.counters["outages"] = static_cast<double>(result.fault.outages);
  state.counters["kills"] = static_cast<double>(result.fault.kills);
  state.counters["rewound_months"] =
      static_cast<double>(result.fault.rewound_months);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultInjectedSim);

void BM_ZeroFailureGate(benchmark::State& state) {
  // The same campaign with fault injection compiled in but *inactive*: what
  // every pre-existing caller pays for the fault gate in the DES hot loop
  // (must track bench_sim_engine, not BM_FaultInjectedSim).
  const auto cluster = platform::make_builtin_cluster(1, 34);
  const appmodel::Ensemble ensemble{10, 60};
  const auto schedule =
      sched::make_schedule(sched::Heuristic::kKnapsack, cluster, ensemble);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim::simulate_ensemble(cluster, schedule, ensemble));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZeroFailureGate);

}  // namespace

BENCHMARK_MAIN();
