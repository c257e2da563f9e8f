/// \file grid_faults.cpp
/// \brief grid-faults: one sim::simulate_grid over RENATER links with
/// exponential node failures. The performance vectors of the four seeded
/// grids are warmed in setup, so they are cache hits here and the op is
/// dominated by failure-injected DES, with the charged Algorithm 1 and the
/// fair-share transfers on the path. A cache or perf-vector gain should show
/// no change on this workload.

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "fault/checkpoint.hpp"
#include "net/fairshare.hpp"
#include "obs/obs.hpp"
#include "sim/eval_cache.hpp"
#include "sim/grid_sim.hpp"
#include "sim/perf_vector.hpp"
#include "workload.hpp"

namespace oagrid::e2e {
namespace {

constexpr sched::Heuristic kHeuristic = sched::Heuristic::kKnapsack;
constexpr int kClusters = 5;
constexpr std::size_t kGrids = 4;
constexpr double kMtbf = 86400.0;
constexpr double kMttr = 3600.0;
constexpr std::array<fault::RecoveryPolicy, 3> kPolicies = {
    fault::RecoveryPolicy::kWaitForRepair,
    fault::RecoveryPolicy::kRescheduleInCluster,
    fault::RecoveryPolicy::kMigrateWithState};

template <typename Call>
double elapsed_us(Call&& call) {
  const double start = obs::WallClock::instance().now_us();
  call();
  return obs::WallClock::instance().now_us() - start;
}

class GridFaults final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    rng_ = input_rng(seed, 2);
    net_ = sim::campaign_network_options(net::renater_network(kClusters),
                                         ensemble_);
    sim::eval_cache().clear();
    for (platform::Grid& grid : grids_) {
      grid = random_grid(rng_);
      for (const platform::Cluster& cluster : grid.clusters())
        (void)sim::performance_vector(cluster, ensemble_.scenarios,
                                      ensemble_.months, kHeuristic);
    }
    ops_ = 0;
  }

  /// Cycles through every (grid, recovery policy) pair, so each run sees the
  /// same mix; the failure draws are fresh per op.
  void next_input() override {
    grid_ = &grids_[ops_ % kGrids];
    fault_.recovery = kPolicies[(ops_ / kGrids) % kPolicies.size()];
    fault_.model = fault::FailureModel::uniform_exponential(kClusters, kMtbf,
                                                           kMttr, rng_());
    ++ops_;
  }

  void reset_state() override {}

  void run_entry() override {
    result_ = sim::simulate_grid(*grid_, ensemble_, kHeuristic, 1, net_, fault_);
  }

  std::string check() override {
    const sched::Repartition& rep = result_.repartition;
    if (rep.total_dags() != ensemble_.scenarios ||
        rep.assignment.size() != static_cast<std::size_t>(ensemble_.scenarios))
      return "not every scenario was placed";
    for (const ClusterId c : rep.assignment)
      if (c < 0 || c >= kClusters) return "scenario placed off the grid";
    const Seconds max_cluster = *std::max_element(
        result_.cluster_makespans.begin(), result_.cluster_makespans.end());
    if (max_cluster != result_.makespan)
      return "makespan is not the max of cluster_makespans";
    if (!(result_.makespan > 0.0 && result_.makespan < fault::kUnavailableTime))
      return "makespan is not a finite positive time";
    return "";
  }

  /// simulate_grid's phases are private, so the replay is the entry call
  /// itself, split by the timers the library keeps: the obs histograms
  /// sim.perf_vector_us, sched.knapsack_us (make_schedule) and
  /// sim.run_wall_us (every DES run; the vectors are cache hits, so these
  /// are the failure-injected runs). The three public calls simulate_grid
  /// makes between those timers are then timed again on the op's own
  /// vectors and placement, and carved out of its self time. These probes
  /// approximate the calls inside (the repartition probe prices failures
  /// only), so their outputs are not checked.
  std::string replay(obs::TraceBuffer& trace, Counts& /*counts*/) override {
    obs::reset();
    obs::set_enabled(true);
    sim::GridSimResult result;
    {
      obs::Span op(&trace, "op.replay", "op");
      obs::Span span(&trace, "sim.grid", "sim");
      result =
          sim::simulate_grid(*grid_, ensemble_, kHeuristic, 1, net_, fault_);
    }
    obs::set_enabled(false);
    const auto histogram_us = [](const char* name) {
      return obs::metrics().histogram(name).snapshot().sum;
    };
    const double perf_vector_us = histogram_us("sim.perf_vector_us");
    const double schedule_us = histogram_us("sched.knapsack_us");
    const double des_us = histogram_us("sim.run_wall_us");

    sched::PlacementCharge charge;
    const double charge_us = elapsed_us([&] {
      charge = fault::make_failure_charge(fault_.model, result.performance,
                                          ensemble_.months,
                                          fault_.checkpoint_months);
    });
    const double repartition_us = elapsed_us([&] {
      (void)sched::greedy_repartition_charged(result.performance,
                                              ensemble_.scenarios, charge);
    });
    std::vector<net::TransferRequest> staging;
    std::vector<net::TransferRequest> collection;
    for (std::size_t c = 0; c < result.cluster_makespans.size(); ++c) {
      const auto dst = static_cast<ClusterId>(c);
      const Seconds ship_at =
          result.cluster_makespans[c] - result.collection_seconds[c];
      for (Count s = 0; s < result.repartition.dags_per_cluster[c]; ++s) {
        staging.push_back({net_.home, dst, net_.stage_mb_per_scenario, 0.0});
        collection.push_back(
            {dst, net_.home, net_.collect_mb_per_scenario, ship_at});
      }
    }
    const double transfers_us = elapsed_us([&] {
      (void)net::simulate_transfers(net_.network, staging);
      (void)net::simulate_transfers(net_.network, collection);
    });

    // The measured parts become child events of sim.grid, end to end.
    const std::vector<obs::TraceEvent> events = trace.events();
    const auto grid = std::find_if(
        events.rbegin(), events.rend(),
        [](const obs::TraceEvent& e) { return e.name == "sim.grid"; });
    double ts_us = grid->ts_us;
    for (const auto& [name, category, us] :
         {std::tuple{"sim.perf_vector", "sim", perf_vector_us},
          std::tuple{"knapsack.schedule", "knapsack", schedule_us},
          std::tuple{"fault.des", "fault", des_us},
          std::tuple{"fault.charge", "fault", charge_us},
          std::tuple{"sched.repartition", "sched", repartition_us},
          std::tuple{"net.transfers", "net", transfers_us}}) {
      trace.emit_complete({name, category, obs::kWallPid, grid->track, ts_us,
                           us, grid->depth + 1});
      ts_us += us;
    }

    if (result.makespan != result_.makespan) return "replay makespan differs";
    if (result.cluster_makespans != result_.cluster_makespans)
      return "replay cluster makespans differ";
    if (result.repartition.dags_per_cluster !=
        result_.repartition.dags_per_cluster)
      return "replay dags_per_cluster differs";
    return "";
  }

  /// Every scenario runs all its months once usefully; a killed in-flight
  /// month and a rewound month each cost one more month of work.
  void entry_counts(Counts& counts) override {
    const auto useful =
        static_cast<double>(ensemble_.scenarios * ensemble_.months);
    counts["fault.kills"] += static_cast<double>(result_.fault.kills);
    counts["fault.rewound_months"] +=
        static_cast<double>(result_.fault.rewound_months);
    counts["fault.useful_months"] += useful;
    counts["fault.attempted_months"] +=
        useful + static_cast<double>(result_.fault.kills +
                                     result_.fault.rewound_months);
    counts["net.transfers.mb"] += result_.transfer_mb;
  }

 private:
  const appmodel::Ensemble ensemble_{30, 1800};
  Rng rng_;
  std::array<platform::Grid, kGrids> grids_;
  sim::GridNetworkOptions net_;
  const platform::Grid* grid_ = nullptr;
  sim::GridFaultOptions fault_;
  std::size_t ops_ = 0;
  sim::GridSimResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_grid_faults() {
  return std::make_unique<GridFaults>();
}

}  // namespace oagrid::e2e
