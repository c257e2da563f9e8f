#include "sim/fluid_grid.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "fault/checkpoint.hpp"
#include "sched/throughput.hpp"

namespace oagrid::sim {

FluidCluster::FluidCluster(platform::Cluster cluster, Count total_months)
    : cluster_(std::move(cluster)),
      full_months_(static_cast<double>(total_months)) {
  OAGRID_REQUIRE(total_months >= 1, "need at least one month per scenario");
}

void FluidCluster::assign(ScenarioId) { months_left_.push_back(full_months_); }

void FluidCluster::assign_months(double months_left) {
  // May exceed NM: migrated scenarios carry their transfer overhead as
  // equivalent extra work.
  OAGRID_REQUIRE(months_left > 0.0, "migrated scenario needs work left");
  months_left_.push_back(months_left);
}

double FluidCluster::remove_least_advanced() {
  OAGRID_REQUIRE(!months_left_.empty(), "no scenario to remove");
  const auto it =
      std::max_element(months_left_.begin(), months_left_.end());
  const double months = *it;
  months_left_.erase(it);
  return months;
}

bool FluidCluster::has_unstarted() const {
  return std::any_of(months_left_.begin(), months_left_.end(),
                     [&](double m) { return m == full_months_; });
}

void FluidCluster::remove_unstarted() {
  const auto it = std::find(months_left_.begin(), months_left_.end(),
                            full_months_);
  OAGRID_REQUIRE(it != months_left_.end(), "no unstarted scenario to remove");
  months_left_.erase(it);
}

double FluidCluster::months_remaining() const {
  return std::accumulate(months_left_.begin(), months_left_.end(), 0.0);
}

double FluidCluster::throughput() const {
  if (months_left_.empty()) return 0.0;
  return sched::best_throughput(cluster_,
                                static_cast<Count>(months_left_.size()));
}

double FluidCluster::projected_drain(double speed) const {
  if (months_left_.empty()) return 0.0;
  const double rate = throughput() * speed;
  const double cap = sched::best_throughput(cluster_, 1) * speed;
  if (rate <= 0.0 || cap <= 0.0) return kInfiniteTime;
  // Two binding constraints: aggregate throughput, and the chain constraint
  // of the longest resident scenario (one group at a time). Under the
  // water-filling service this max is exact.
  const double longest =
      *std::max_element(months_left_.begin(), months_left_.end());
  return std::max(months_remaining() / rate, longest / cap);
}

double FluidCluster::advance(double dt, double speed) {
  // Fluid limit of the paper's least-advanced dispatch with the chain
  // constraint: scenarios are served in descending months-left priority
  // (laggards first), each at no more than one group's best rate (a
  // scenario's months are serialized by restart dependencies), total
  // bounded by the cluster throughput. Integration proceeds event to event
  // (tier merge or scenario completion) so progress trajectories are exact.
  double used = 0.0;
  const double cap = sched::best_throughput(cluster_, 1) * speed;
  while (dt - used > 1e-12 && !months_left_.empty()) {
    const double rate = throughput() * speed;
    if (rate <= 0.0 || cap <= 0.0) return dt;  // stalled
    std::sort(months_left_.begin(), months_left_.end(), std::greater<>());
    const auto n = months_left_.size();

    // Tier decomposition (equal months within epsilon) and per-tier rates:
    // laggard tiers drink first, each scenario at most `cap`.
    std::vector<std::size_t> tier_start;
    std::vector<double> per_scenario(n, 0.0);
    double remaining = rate;
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i + 1;
      while (j < n && months_left_[j] > months_left_[i] - 1e-9) ++j;
      tier_start.push_back(i);
      const auto size = static_cast<double>(j - i);
      const double tier_rate = std::min(size * cap, remaining);
      remaining -= tier_rate;
      for (std::size_t k = i; k < j; ++k) per_scenario[k] = tier_rate / size;
      i = j;
    }

    // Next event: a served scenario completes, two adjacent tiers merge, or
    // the epoch budget runs out.
    double event = dt - used;
    for (std::size_t i = 0; i < n; ++i)
      if (per_scenario[i] > 0.0)
        event = std::min(event, months_left_[i] / per_scenario[i]);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double closing = per_scenario[i] - per_scenario[i + 1];
      if (closing > 1e-15) {
        const double gap = months_left_[i] - months_left_[i + 1];
        if (gap > 1e-12) event = std::min(event, gap / closing);
      }
    }
    event = std::max(event, 1e-9);  // numerical floor; tiers merge via eps

    const double slice = std::min(event, dt - used);
    for (std::size_t i = 0; i < n; ++i)
      months_left_[i] -= per_scenario[i] * slice;
    used += slice;
    std::erase_if(months_left_, [](double m) { return m <= 1e-9; });
  }
  return used;
}

const char* to_string(GridPolicy policy) noexcept {
  switch (policy) {
    case GridPolicy::kStatic: return "static (paper)";
    case GridPolicy::kRebalanceUnstarted: return "rebalance-unstarted";
    case GridPolicy::kMigrateWithState: return "migrate-with-state";
  }
  return "?";
}

namespace {

/// Equivalent extra months charged to a migrated scenario landing on `dst`:
/// during the migration stall it would have received its per-scenario share
/// of the destination's rate.
double migration_penalty_months(const FluidCluster& dst, double speed,
                                Seconds cost) {
  FluidCluster probe = dst;
  probe.assign(0);  // the arriving scenario
  const double rate = probe.throughput() * speed;
  const auto n = static_cast<double>(probe.resident());
  return cost * rate / n;
}

/// Greedy migration pass: move scenarios off the worst-projected cluster
/// while that strictly improves the projected makespan. `with_state` selects
/// between the unstarted-only relaxation (free moves, but only fresh
/// scenarios qualify) and restart-file migration (any scenario moves, its
/// remaining work inflated by the transfer stall — priced per cluster pair
/// by DriftModel::migration_cost, identically in the decision and in the
/// executed fluid).
int rebalance(std::vector<FluidCluster>& clusters,
              const std::vector<double>& speeds, bool with_state,
              const DriftModel& drift, Seconds& migration_seconds) {
  int migrations = 0;
  for (;;) {
    std::size_t worst = 0;
    double worst_drain = -1.0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const double drain = clusters[c].projected_drain(speeds[c]);
      if (drain > worst_drain) {
        worst_drain = drain;
        worst = c;
      }
    }
    if (worst_drain <= 0.0) return migrations;
    if (!with_state && !clusters[worst].has_unstarted()) return migrations;
    if (with_state && clusters[worst].resident() < 1) return migrations;

    std::size_t best_dst = worst;
    double best_new_makespan = worst_drain;
    double best_landed_months = 0.0;
    Seconds best_cost = 0.0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (c == worst) continue;
      const Seconds cost =
          with_state ? drift.migration_cost(static_cast<ClusterId>(worst),
                                            static_cast<ClusterId>(c))
                     : 0.0;
      // Hysteresis: the drain projection ignores the throughput tail (fewer
      // resident scenarios near the end run slower), so marginal projected
      // wins are noise — only accept moves that project a clear improvement
      // (and at least the transfer stall itself for a priced move).
      const double threshold =
          worst_drain - std::max(0.01 * worst_drain, cost);
      FluidCluster src = clusters[worst];
      FluidCluster dst = clusters[c];
      double landed = 0.0;
      if (with_state) {
        const double moved = src.remove_least_advanced();
        landed = moved +
                 migration_penalty_months(clusters[c], speeds[c], cost);
        dst.assign_months(landed);
      } else {
        src.remove_unstarted();
        dst.assign(0);
      }
      double new_makespan = 0.0;
      for (std::size_t k = 0; k < clusters.size(); ++k) {
        const FluidCluster& cl = k == worst ? src : (k == c ? dst : clusters[k]);
        new_makespan = std::max(new_makespan, cl.projected_drain(speeds[k]));
      }
      if (new_makespan < threshold - 1e-9 &&
          new_makespan < best_new_makespan - 1e-9) {
        best_new_makespan = new_makespan;
        best_dst = c;
        best_landed_months = landed;
        best_cost = cost;
      }
    }
    if (best_dst == worst) return migrations;  // no improving move

    if (with_state) {
      clusters[worst].remove_least_advanced();
      clusters[best_dst].assign_months(best_landed_months);
    } else {
      clusters[worst].remove_unstarted();
      clusters[best_dst].assign(0);
    }
    migration_seconds += best_cost;
    ++migrations;
  }
}

}  // namespace

DynamicGridResult simulate_dynamic_grid(const platform::Grid& grid,
                                        const appmodel::Ensemble& ensemble,
                                        GridPolicy policy,
                                        const DriftModel& drift) {
  ensemble.validate();
  OAGRID_REQUIRE(grid.cluster_count() >= 1, "grid needs at least one cluster");
  OAGRID_REQUIRE(drift.epoch_length > 0.0, "epoch length must be positive");
  OAGRID_REQUIRE(drift.sigma >= 0.0, "drift sigma must be >= 0");
  OAGRID_REQUIRE(drift.migration_state_mb >= 0.0,
                 "migration state size must be >= 0");
  if (drift.network.cluster_count() > 0)
    OAGRID_REQUIRE(drift.network.cluster_count() == grid.cluster_count(),
                   "network model does not cover the grid's clusters");
  const bool failures_active = drift.failures.active();
  if (failures_active)
    OAGRID_REQUIRE(drift.failures.cluster_count() == grid.cluster_count(),
                   "failure model does not cover the grid's clusters");

  // Initial placement: Algorithm 1 on analytic vectors at nominal speed,
  // inflated by each cluster's expected failure overhead so a permanently
  // dead cluster receives no scenarios at all.
  std::vector<sched::PerformanceVector> perf;
  for (const auto& cluster : grid.clusters())
    perf.push_back(sched::throughput_performance_vector(
        cluster, ensemble.scenarios, ensemble.months));
  if (failures_active)
    for (std::size_t c = 0; c < perf.size(); ++c) {
      const fault::FailureProcess& process =
          drift.failures.process(static_cast<ClusterId>(c));
      for (Seconds& entry : perf[c])
        entry = fault::expected_makespan(entry, process, 0.0);
    }
  const sched::Repartition placement =
      sched::greedy_repartition(perf, ensemble.scenarios);

  std::vector<FluidCluster> clusters;
  for (const auto& cluster : grid.clusters())
    clusters.emplace_back(cluster, ensemble.months);
  for (std::size_t c = 0; c < clusters.size(); ++c)
    for (Count k = 0; k < placement.dags_per_cluster[c]; ++k)
      clusters[c].assign(0);

  std::vector<double> speeds(clusters.size(), 1.0);
  Rng rng(drift.seed);

  // Cluster-scope availability streams (unit 0 = the whole reservation in
  // the fluid view); an epoch's effective speed is the drifted speed scaled
  // by the fraction of the window the cluster is up.
  std::vector<fault::AvailabilityTracker> availability;
  if (failures_active)
    for (std::size_t c = 0; c < clusters.size(); ++c)
      availability.emplace_back(drift.failures, static_cast<ClusterId>(c), 0);
  std::vector<double> effective(speeds);

  DynamicGridResult result;
  result.cluster_finish.assign(clusters.size(), 0.0);
  Seconds now = 0.0;

  auto all_idle = [&] {
    return std::all_of(clusters.begin(), clusters.end(),
                       [](const FluidCluster& c) { return c.idle(); });
  };

  while (!all_idle()) {
    ++result.epochs;
    // Speed drift for this epoch.
    if (drift.sigma > 0.0)
      for (double& s : speeds)
        s = std::clamp(s * std::exp(rng.normal(0.0, drift.sigma)), 0.3, 3.0);
    if (failures_active) {
      for (std::size_t c = 0; c < clusters.size(); ++c)
        effective[c] =
            speeds[c] * (1.0 - availability[c].down_fraction(
                                   now, now + drift.epoch_length));
    } else {
      effective = speeds;
    }

    if (policy != GridPolicy::kStatic)
      result.migrations += rebalance(clusters, effective,
                                     policy == GridPolicy::kMigrateWithState,
                                     drift, result.migration_seconds);

    for (std::size_t c = 0; c < clusters.size(); ++c) {
      if (clusters[c].idle()) continue;
      const double used =
          clusters[c].advance(drift.epoch_length, effective[c]);
      if (clusters[c].idle()) result.cluster_finish[c] = now + used;
    }
    now += drift.epoch_length;
    // Degenerate guard: a fully stalled grid cannot finish.
    OAGRID_REQUIRE(result.epochs < 1000000, "dynamic grid failed to drain");
  }
  result.makespan = *std::max_element(result.cluster_finish.begin(),
                                      result.cluster_finish.end());
  return result;
}

}  // namespace oagrid::sim
