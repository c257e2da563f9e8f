#pragma once
/// \file grid_sim.hpp
/// \brief Whole-grid execution: performance vectors, Algorithm-1
/// repartition, per-cluster simulation (§5-6 of the paper), optionally
/// priced over a network model (deployment staging in, result shipping out)
/// and under injected failures.
///
/// The Figure 9 flow is written once, in run_campaign. Where the clusters
/// live is the only thing that differs between its two executors: in
/// process (simulate_grid) or behind a middleware deployment
/// (middleware::Client).

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "appmodel/ensemble.hpp"
#include "appmodel/volumes.hpp"
#include "fault/failure.hpp"
#include "net/network.hpp"
#include "platform/grid.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {

/// Data-movement model for a grid campaign. The default (no network, zero
/// volumes) is the paper's §5 world where transfers are free: every result
/// is then bit-identical to the network-unaware path.
struct GridNetworkOptions {
  /// Link table covering the grid's clusters (cluster_count must match the
  /// grid when non-zero). Default-constructed (0 clusters) = no network.
  net::NetworkModel network;
  /// Cluster holding the campaign inputs and archive (the paper's "home"
  /// site that owns the restart files and collects diagnostics).
  ClusterId home = 0;
  /// MB staged home -> cluster per scenario before it can start (initial
  /// restart + forcing files).
  double stage_mb_per_scenario = 0.0;
  /// MB shipped cluster -> home per scenario after it finishes (compressed
  /// diagnostics + final restart).
  double collect_mb_per_scenario = 0.0;

  /// True when a network model is attached (even a free one: transfers are
  /// then simulated — and metered — but cost exactly 0.0 s).
  [[nodiscard]] bool active() const noexcept {
    return network.cluster_count() > 0;
  }
};

/// Campaign-realistic volumes from the appmodel accounting: one restart
/// file staged in per scenario; NM months of compressed diagnostics plus
/// the final restart collected out.
[[nodiscard]] GridNetworkOptions campaign_network_options(
    net::NetworkModel network, const appmodel::Ensemble& ensemble,
    const appmodel::VolumeParams& volumes = {}, ClusterId home = 0);

/// Failure injection for a grid campaign. The default (0-cluster model) is
/// the paper's failure-free world: the repartition and every makespan are
/// then bit-identical to the fault-unaware path.
struct GridFaultOptions {
  /// Per-cluster availability description (cluster_count must match the
  /// grid when active). Default-constructed = no failures.
  fault::FailureModel model;
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  /// Restart-file cadence used both by the rewind semantics and by the
  /// expected-makespan placement charge.
  MonthIndex checkpoint_months = 1;

  [[nodiscard]] bool active() const noexcept { return model.active(); }
};

struct GridSimResult {
  std::vector<sched::PerformanceVector> performance;  ///< one per cluster
  sched::Repartition repartition;
  std::vector<Seconds> cluster_makespans;  ///< 0 for clusters given no work
  Seconds makespan = 0.0;

  /// Data movement (all 0 without a network — and over a free network the
  /// durations are exactly 0.0, so `makespan` matches the netless run bit
  /// for bit).
  std::vector<Seconds> staging_seconds;     ///< per cluster, fair-shared
  std::vector<Seconds> collection_seconds;  ///< per cluster, fair-shared
  double transfer_mb = 0.0;                 ///< total bytes moved

  /// Aggregated lost-work accounting over the per-cluster failure-injected
  /// DES runs; all zeros when GridFaultOptions is inactive.
  fault::FaultStats fault;
};

/// Full §5 flow in-process: (2) each cluster computes its performance vector
/// under `heuristic`, (4) Algorithm 1 distributes the scenarios — charging
/// each candidate cluster the serialized cost of staging/collecting its
/// files when a network is attached, (6) each cluster's makespan is its
/// staging delay + vector entry + collection time; the grid makespan is the
/// max. `threads` = 1 computes the per-cluster vectors and shares one after
/// another on the calling thread; any other value computes them concurrently
/// on shared_pool(). The results are the same either way.
///
/// With active `fault_options`, Algorithm 1 additionally charges each
/// candidate its expected failure inflation, and every cluster with a live
/// failure process replaces its performance-vector entry by a full
/// failure-injected DES run (outages, kills, k-month rewinds, the chosen
/// recovery policy; migration staging priced over the network when one is
/// attached). Deterministic in the model seed at any thread count.
[[nodiscard]] GridSimResult simulate_grid(
    const platform::Grid& grid, const appmodel::Ensemble& ensemble,
    sched::Heuristic heuristic, std::size_t threads = 1,
    const GridNetworkOptions& net_options = {},
    const GridFaultOptions& fault_options = {});

/// One cluster's step-6 report: the makespan of its share, and the lost-work
/// accounting of the run when the cluster has a live failure process.
struct ShareRun {
  Seconds compute = 0.0;
  fault::FaultStats fault;
};

/// Steps 1-3 of an executor: one performance vector per platform cluster.
/// An empty vector marks a cluster that did not answer; it gets no work.
using EstimateStep = std::function<std::vector<sched::PerformanceVector>()>;

/// Steps 5-6 of an executor: runs `campaign.repartition.dags_per_cluster[c]`
/// scenarios on every cluster given work, `migrate_staging[c]` pricing the
/// re-staging of one scenario there. Returns one entry per cluster: nullopt
/// for a cluster given no work or whose report never arrived.
using ExecuteStep = std::function<std::vector<std::optional<ShareRun>>(
    const GridSimResult& campaign, std::span<const Seconds> migrate_staging)>;

/// The Figure 9 flow once, for both executors: estimate, Algorithm 1 (with
/// the network and failure charges composed), input staging, execution,
/// result collection, and the per-cluster makespan fold. Staging starts at
/// t = 0, fair-shared per home link; each cluster's results ship home at
/// its simulated staging finish plus its compute time. Clusters whose
/// report never arrived contribute no collection and no makespan.
/// `transfer_seconds`, when given, receives the duration of every
/// simulated transfer, staging first.
[[nodiscard]] GridSimResult run_campaign(
    const EstimateStep& estimate, const ExecuteStep& execute,
    const appmodel::Ensemble& ensemble,
    const GridNetworkOptions& net_options,
    const GridFaultOptions& fault_options,
    std::vector<Seconds>* transfer_seconds = nullptr);

/// Step 6 of one cluster: `share` under `heuristic` on `cluster` (platform
/// id `id`), with that cluster's failure process from `fault_options`
/// injected when it has one and `migrate_staging` charged per migration.
/// A cluster without a live process runs the plain DES. Both executors run
/// failure-injected shares through here.
[[nodiscard]] SimResult run_share(const platform::Cluster& cluster,
                                  ClusterId id, sched::Heuristic heuristic,
                                  const appmodel::Ensemble& share,
                                  const GridFaultOptions& fault_options,
                                  Seconds migrate_staging,
                                  SimOptions options = {});

}  // namespace oagrid::sim
