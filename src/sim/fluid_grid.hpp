#pragma once
/// \file fluid_grid.hpp
/// \brief Dynamic-grid extension: what happens to the §5 scheme when cluster
/// performance drifts during the (weeks-long) campaign?
///
/// The paper fixes scenario placement up front and notes "once a scenario
/// has been scheduled on a cluster, it can not change location". Real grids
/// drift — background load, node failures, queue interference. This module
/// quantifies the cost of that restriction with a *fluid* execution model:
///
///  * each cluster consumes months at its knapsack steady-state throughput
///    (sched::best_throughput for the number of resident scenarios), scaled
///    by a time-varying speed factor;
///  * resident scenarios share the rate equally (the fluid limit of the
///    paper's least-advanced dispatch keeps them at equal progress anyway);
///  * post-processing is neglected (a ~2% tail absorbed by leftover
///    processors, see the closed-form model) — the fluid model targets the
///    placement question, not set-boundary effects.
///
/// Three policies:
///  * kStatic — Algorithm 1 once (the paper's rule);
///  * kRebalanceUnstarted — scenarios that have not run a single month may
///    migrate at epoch boundaries. Under least-advanced dispatch every
///    scenario starts within the first set, so this only corrects the
///    initial placement against the first epoch's speeds;
///  * kMigrateWithState — any scenario may migrate, paying
///    DriftModel::migration_cost (shipping the ~120 MB restart file plus
///    redeployment — the state of a scenario between months is exactly one
///    restart file, which is what makes this relaxation implementable in
///    the real application). The cost is priced per cluster pair from the
///    attached net::NetworkModel, or by an explicit scalar override.

#include <cstdint>
#include <vector>

#include "appmodel/ensemble.hpp"
#include "appmodel/tasks.hpp"
#include "fault/failure.hpp"
#include "net/network.hpp"
#include "platform/grid.hpp"

namespace oagrid::sim {

/// One cluster in the fluid model.
class FluidCluster {
 public:
  FluidCluster(platform::Cluster cluster, Count total_months);

  void assign(ScenarioId scenario);
  /// Adds a scenario with partial progress (a migrated one).
  void assign_months(double months_left);
  /// Removes an unstarted scenario (throws if none with full months left).
  void remove_unstarted();
  [[nodiscard]] bool has_unstarted() const;
  /// Removes and returns the least-advanced scenario's remaining months.
  double remove_least_advanced();

  [[nodiscard]] int resident() const noexcept {
    return static_cast<int>(months_left_.size());
  }
  [[nodiscard]] double months_remaining() const;
  [[nodiscard]] bool idle() const { return months_left_.empty(); }

  /// Months per second at speed 1 with the current resident count.
  [[nodiscard]] double throughput() const;

  /// Projected seconds to drain at `speed` (resident-count refinement
  /// ignored: an upper-bound style estimate used by the rebalancer).
  [[nodiscard]] double projected_drain(double speed) const;

  /// Advances the fluid by up to `dt` seconds at `speed`; returns the time
  /// actually used (< dt only when the cluster drains inside the epoch).
  double advance(double dt, double speed);

 private:
  platform::Cluster cluster_;
  double full_months_;               ///< NM (unstarted marker)
  std::vector<double> months_left_;  ///< one entry per resident scenario
};

enum class GridPolicy {
  kStatic,              ///< the paper: placement fixed at submission
  kRebalanceUnstarted,  ///< unstarted scenarios may migrate at epochs
  kMigrateWithState,    ///< restart-file migration at a cost
};

[[nodiscard]] const char* to_string(GridPolicy policy) noexcept;

/// Random-walk speed drift: every epoch each cluster's speed is multiplied
/// by exp(N(0, sigma)), clamped to [0.3, 3.0]. sigma = 0 reproduces the
/// static deterministic world.
/// Flat per-migration stall assumed before the network model existed
/// (~120 MB over a congested WAN plus redeployment).
inline constexpr Seconds kLegacyMigrationCost = 300.0;

struct DriftModel {
  Seconds epoch_length = 6.0 * 3600.0;  ///< re-evaluation period
  double sigma = 0.0;                   ///< per-epoch log drift
  std::uint64_t seed = 1;

  /// kMigrateWithState: seconds lost per migration, charged as equivalent
  /// lost work on the destination. >= 0 is an explicit flat override;
  /// the default -1 derives the cost per cluster pair from `network` (or
  /// falls back to kLegacyMigrationCost when no network is attached).
  Seconds migration_cost_override = -1.0;

  /// Link table pricing migrations per cluster pair. Default-constructed
  /// (0 clusters) = none attached.
  net::NetworkModel network;
  /// State shipped per migration: the inter-month restart file. Workloads
  /// that drag accumulated diagnostics along should raise this.
  double migration_state_mb = appmodel::kInterMonthDataMb;

  /// Seconds one migration src -> dst stalls the moved scenario.
  [[nodiscard]] Seconds migration_cost(ClusterId src, ClusterId dst) const {
    if (migration_cost_override >= 0.0) return migration_cost_override;
    if (network.cluster_count() == 0) return kLegacyMigrationCost;
    return network.transfer_time(src, dst, migration_state_mb);
  }

  /// Cluster availability (cluster_count must match the grid when active;
  /// default-constructed = always up). In the fluid limit an outage scales
  /// the epoch's effective speed by the fraction of the window the cluster
  /// was up, the initial Algorithm-1 placement is inflated by each cluster's
  /// expected failure overhead (dead clusters receive nothing), and the
  /// rebalancing policies see the degraded speeds — so migrate-with-state
  /// naturally flees failing capacity.
  fault::FailureModel failures;
};

struct DynamicGridResult {
  Seconds makespan = 0.0;
  int migrations = 0;
  int epochs = 0;
  Seconds migration_seconds = 0.0;  ///< total stall charged to migrations
  std::vector<Seconds> cluster_finish;  ///< drain time per cluster
};

/// Runs the fluid campaign. Initial placement is Algorithm 1 on the
/// analytic performance vectors (nominal speeds), for both policies.
[[nodiscard]] DynamicGridResult simulate_dynamic_grid(
    const platform::Grid& grid, const appmodel::Ensemble& ensemble,
    GridPolicy policy, const DriftModel& drift);

}  // namespace oagrid::sim
