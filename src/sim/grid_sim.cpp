#include "sim/grid_sim.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "fault/checkpoint.hpp"
#include "net/fairshare.hpp"
#include "obs/obs.hpp"
#include "sim/perf_vector.hpp"

namespace oagrid::sim {
namespace {

/// Algorithm 1's placement charge: each candidate cluster pays the
/// serialized cost of moving its k scenarios' files over the home link
/// (when a network is attached) plus its expected failure inflation (when a
/// failure model is). Null when neither is active.
sched::PlacementCharge placement_charge(
    const GridNetworkOptions& net_options,
    const GridFaultOptions& fault_options,
    std::span<const sched::PerformanceVector> performance, Count months) {
  sched::PlacementCharge net_charge;
  if (net_options.active()) {
    // k simultaneous files fair-share one directed link and drain together
    // at latency + k * size / bw; exactly 0.0 over a free link.
    net_charge = [&net_options](std::size_t c, Count k) -> Seconds {
      const auto batch = [&](ClusterId src, ClusterId dst, double size_mb) {
        return size_mb > 0.0 ? net_options.network.transfer_time(
                                   src, dst, static_cast<double>(k) * size_mb)
                             : 0.0;
      };
      const auto remote = static_cast<ClusterId>(c);
      return batch(net_options.home, remote,
                   net_options.stage_mb_per_scenario) +
             batch(remote, net_options.home,
                   net_options.collect_mb_per_scenario);
    };
  }
  sched::PlacementCharge failure_charge = fault::make_failure_charge(
      fault_options.model, performance, months,
      fault_options.checkpoint_months);
  if (!net_charge || !failure_charge)
    return net_charge ? net_charge : failure_charge;
  return [net_charge, failure_charge](std::size_t c, Count k) -> Seconds {
    return net_charge(c, k) + failure_charge(c, k);
  };
}

/// Step 4 over the clusters that answered (non-empty vectors): Algorithm 1
/// on their vectors in cluster order, mapped back to platform ids. A null
/// charge runs the paper's uncharged greedy.
sched::Repartition place(std::span<const sched::PerformanceVector> performance,
                         Count scenarios,
                         const sched::PlacementCharge& charge) {
  std::vector<std::size_t> ids;
  std::vector<sched::PerformanceVector> answered;
  for (std::size_t c = 0; c < performance.size(); ++c) {
    if (performance[c].empty()) continue;
    ids.push_back(c);
    answered.push_back(performance[c]);
  }
  OAGRID_REQUIRE(!ids.empty(), "no cluster to place scenarios on");
  sched::PlacementCharge mapped;
  if (charge)
    mapped = [&](std::size_t i, Count k) { return charge(ids[i], k); };
  sched::Repartition placed =
      sched::greedy_repartition_charged(answered, scenarios, mapped);
  std::vector<Count> dags(performance.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i)
    dags[ids[i]] = placed.dags_per_cluster[i];
  placed.dags_per_cluster = std::move(dags);
  for (ClusterId& c : placed.assignment)
    c = static_cast<ClusterId>(ids[static_cast<std::size_t>(c)]);
  return placed;
}

/// Simulates one batch of per-scenario transfers between home and every
/// cluster c with shares[c] > 0, injected at start[c] (outbound from home
/// when `to_home` is false). Returns each cluster's longest transfer.
std::vector<Seconds> ship(const GridNetworkOptions& net_options, bool to_home,
                          double size_mb, std::span<const Count> shares,
                          std::span<const Seconds> start,
                          GridSimResult& result,
                          std::vector<Seconds>* transfer_seconds) {
  std::vector<net::TransferRequest> requests;
  for (std::size_t c = 0; c < shares.size() && size_mb > 0.0; ++c) {
    const auto remote = static_cast<ClusterId>(c);
    for (Count s = 0; s < shares[c]; ++s)
      requests.push_back(
          to_home ? net::TransferRequest{remote, net_options.home, size_mb,
                                         start[c]}
                  : net::TransferRequest{net_options.home, remote, size_mb,
                                         start[c]});
  }
  const net::TransferPlan plan =
      net::simulate_transfers(net_options.network, requests);
  result.transfer_mb += plan.total_mb;
  std::vector<Seconds> longest(shares.size(), 0.0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto c = static_cast<std::size_t>(to_home ? requests[i].src
                                                    : requests[i].dst);
    const Seconds took = plan.results[i].finish - requests[i].start;
    longest[c] = std::max(longest[c], took);
    if (transfer_seconds != nullptr) transfer_seconds->push_back(took);
  }
  return longest;
}

}  // namespace

GridNetworkOptions campaign_network_options(
    net::NetworkModel network, const appmodel::Ensemble& ensemble,
    const appmodel::VolumeParams& volumes, ClusterId home) {
  ensemble.validate();
  GridNetworkOptions options;
  options.network = std::move(network);
  options.home = home;
  options.stage_mb_per_scenario = volumes.restart_mb;
  options.collect_mb_per_scenario =
      static_cast<double>(ensemble.months) * volumes.raw_diag_mb /
          volumes.compression_ratio +
      volumes.restart_mb;
  return options;
}

GridSimResult run_campaign(const EstimateStep& estimate,
                           const ExecuteStep& execute,
                           const appmodel::Ensemble& ensemble,
                           const GridNetworkOptions& net_options,
                           const GridFaultOptions& fault_options,
                           std::vector<Seconds>* transfer_seconds) {
  GridSimResult result;
  result.performance = estimate();
  const std::size_t n = result.performance.size();
  const auto clusters = static_cast<int>(n);
  if (net_options.active()) {
    OAGRID_REQUIRE(net_options.network.cluster_count() == clusters,
                   "network model does not cover the grid's clusters");
    OAGRID_REQUIRE(net_options.home >= 0 && net_options.home < clusters,
                   "home cluster outside the grid");
    OAGRID_REQUIRE(net_options.stage_mb_per_scenario >= 0.0 &&
                       net_options.collect_mb_per_scenario >= 0.0,
                   "transfer volumes must be >= 0");
  }
  if (fault_options.active())
    OAGRID_REQUIRE(fault_options.model.cluster_count() == clusters,
                   "failure model does not cover the grid's clusters");

  result.repartition = place(
      result.performance, ensemble.scenarios,
      placement_charge(net_options, fault_options, result.performance,
                       ensemble.months));
  const std::vector<Count>& shares = result.repartition.dags_per_cluster;

  // Input staging: every scenario's files leave home at t = 0. Migration
  // re-staging ships one scenario's restart state from home again.
  result.staging_seconds.assign(n, 0.0);
  result.collection_seconds.assign(n, 0.0);
  std::vector<Seconds> migrate_staging(n, 0.0);
  if (net_options.active()) {
    result.staging_seconds =
        ship(net_options, false, net_options.stage_mb_per_scenario, shares,
             std::vector<Seconds>(n, 0.0), result, transfer_seconds);
    if (net_options.stage_mb_per_scenario > 0.0)
      for (std::size_t c = 0; c < n; ++c)
        migrate_staging[c] = net_options.network.transfer_time(
            net_options.home, static_cast<ClusterId>(c),
            net_options.stage_mb_per_scenario);
  }

  const std::vector<std::optional<ShareRun>> runs =
      execute(result, migrate_staging);

  // Result collection: each executed cluster ships its archives home the
  // moment its staging-delayed compute drains.
  if (net_options.active()) {
    std::vector<Count> executed(n, 0);
    std::vector<Seconds> done(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
      if (!runs[c]) continue;
      executed[c] = shares[c];
      done[c] = result.staging_seconds[c] + runs[c]->compute;
    }
    result.collection_seconds =
        ship(net_options, true, net_options.collect_mb_per_scenario, executed,
             done, result, transfer_seconds);
  }

  result.cluster_makespans.assign(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    if (!runs[c]) continue;
    result.cluster_makespans[c] = result.staging_seconds[c] +
                                  runs[c]->compute +
                                  result.collection_seconds[c];
    result.makespan = std::max(result.makespan, result.cluster_makespans[c]);
    result.fault.merge(runs[c]->fault);
  }
  return result;
}

SimResult run_share(const platform::Cluster& cluster, ClusterId id,
                    sched::Heuristic heuristic,
                    const appmodel::Ensemble& share,
                    const GridFaultOptions& fault_options,
                    Seconds migrate_staging, SimOptions options) {
  if (fault_options.active()) {
    options.fault.model = &fault_options.model;
    options.fault.cluster = id;
    options.fault.recovery = fault_options.recovery;
    options.fault.checkpoint_months = fault_options.checkpoint_months;
    options.fault.migrate_staging = migrate_staging;
  }
  return simulate_with_heuristic(cluster, heuristic, share, options);
}

GridSimResult simulate_grid(const platform::Grid& grid,
                            const appmodel::Ensemble& ensemble,
                            sched::Heuristic heuristic, std::size_t threads,
                            const GridNetworkOptions& net_options,
                            const GridFaultOptions& fault_options) {
  ensemble.validate();
  OAGRID_REQUIRE(grid.cluster_count() >= 1, "grid needs at least one cluster");
  const auto n = static_cast<std::size_t>(grid.cluster_count());
  // threads == 1 runs both loops here, in cluster order, and with them the
  // performance vectors' nested regions.
  ThreadPool serial(0);
  ThreadPool& pool = threads == 1 ? serial : shared_pool();
  const auto estimate = [&] {
    const bool observed = obs::enabled();
    obs::Histogram* const perf_us =
        observed ? &obs::metrics().histogram("sim.perf_vector_us") : nullptr;
    std::vector<sched::PerformanceVector> performance(n);
    pool.parallel_for(0, n, [&](std::size_t c) {
      const platform::Cluster& cluster =
          grid.cluster(static_cast<ClusterId>(c));
      obs::ScopedTimer timer(perf_us);
      obs::Span span(observed ? &obs::trace_buffer() : nullptr,
                     "perf vector: " + cluster.name(), "sim");
      performance[c] = performance_vector(cluster, ensemble.scenarios,
                                          ensemble.months, heuristic);
    });
    return performance;
  };
  // The clean vector entry, replaced by a failure-injected DES run wherever
  // the cluster can actually fail.
  const auto execute = [&](const GridSimResult& campaign,
                           std::span<const Seconds> migrate_staging) {
    std::vector<std::optional<ShareRun>> runs(n);
    pool.parallel_for(0, n, [&](std::size_t c) {
      const Count k = campaign.repartition.dags_per_cluster[c];
      const auto id = static_cast<ClusterId>(c);
      if (k <= 0) return;
      if (!fault_options.model.cluster_active(id)) {
        runs[c] = ShareRun{
            campaign.performance[c][static_cast<std::size_t>(k) - 1], {}};
        return;
      }
      const SimResult r =
          run_share(grid.cluster(id), id, heuristic, {k, ensemble.months},
                    fault_options, migrate_staging[c]);
      runs[c] = ShareRun{r.makespan, r.fault};
    });
    return runs;
  };
  GridSimResult result =
      run_campaign(estimate, execute, ensemble, net_options, fault_options);
  if (obs::enabled()) obs::metrics().counter("sim.grid_campaigns").add();
  return result;
}

}  // namespace oagrid::sim
