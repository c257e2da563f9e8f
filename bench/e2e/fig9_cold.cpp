/// \file fig9_cold.cpp
/// \brief fig9-cold: one paper-sized campaign through a freshly deployed
/// MasterAgent and Client::submit, with the eval cache cleared first, as in
/// a fresh `oagrid_cli grid` process. Every performance-vector simulation
/// is a cache miss, so DES, knapsack and middleware changes show here.

#include <algorithm>
#include <vector>

#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/eval_cache.hpp"
#include "sim/grid_sim.hpp"
#include "workload.hpp"

namespace oagrid::e2e {
namespace {

constexpr sched::Heuristic kHeuristic = sched::Heuristic::kKnapsack;

class Fig9Cold final : public Workload {
 public:
  void setup(std::uint64_t seed) override { rng_ = input_rng(seed, 1); }

  void next_input() override { grid_ = random_grid(rng_); }

  void reset_state() override { sim::eval_cache().clear(); }

  void run_entry() override {
    middleware::MasterAgent agent(grid_);
    middleware::Client client(agent);
    result_ = client.submit(ensemble_, kHeuristic);
  }

  std::string check() override {
    const sim::GridSimResult oracle =
        sim::simulate_grid(grid_, ensemble_, kHeuristic);
    if (oracle.makespan != result_.makespan)
      return "Client::submit makespan differs from sim::simulate_grid";
    if (oracle.repartition.dags_per_cluster !=
        result_.repartition.dags_per_cluster)
      return "Client::submit dags_per_cluster differs from sim::simulate_grid";
    return "";
  }

  std::string replay(obs::TraceBuffer& trace, Counts& /*counts*/) override {
    obs::Span op(&trace, "op.replay", "op");
    const std::size_t n = static_cast<std::size_t>(grid_.cluster_count());
    // Steps 1-3, one cluster after the other (the SeDs run them at once).
    std::vector<sched::PerformanceVector> performance(n);
    for (std::size_t c = 0; c < n; ++c) {
      const platform::Cluster& cluster =
          grid_.cluster(static_cast<ClusterId>(c));
      std::vector<sched::GroupSchedule> schedules;
      {
        obs::Span span(&trace, "knapsack.family", "knapsack");
        schedules = sched::knapsack_grouping_family(cluster, ensemble_);
      }
      obs::Span span(&trace, "sim.perf_vector", "sim");
      for (Count k = 1; k <= ensemble_.scenarios; ++k)
        performance[c].push_back(sim::cached_makespan(
            cluster, schedules[static_cast<std::size_t>(k) - 1],
            appmodel::Ensemble{k, ensemble_.months}));
    }
    // Step 4.
    sched::Repartition repartition;
    {
      obs::Span span(&trace, "sched.repartition", "sched");
      repartition =
          sched::greedy_repartition(performance, ensemble_.scenarios);
    }
    // Steps 5-6.
    Seconds makespan = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const Count share = repartition.dags_per_cluster[c];
      if (share == 0) continue;
      const platform::Cluster& cluster =
          grid_.cluster(static_cast<ClusterId>(c));
      const appmodel::Ensemble sub{share, ensemble_.months};
      sched::GroupSchedule schedule;
      {
        obs::Span span(&trace, "knapsack.schedule", "knapsack");
        schedule = sched::make_schedule(kHeuristic, cluster, sub);
      }
      obs::Span span(&trace, "sim.des", "sim");
      makespan = std::max(
          makespan, sim::simulate_ensemble(cluster, schedule, sub).makespan);
    }
    if (makespan != result_.makespan) return "replay makespan differs";
    if (repartition.dags_per_cluster != result_.repartition.dags_per_cluster)
      return "replay dags_per_cluster differs";
    return "";
  }

  void entry_counts(Counts& /*counts*/) override {}

 private:
  const appmodel::Ensemble ensemble_{10, 1800};
  Rng rng_;
  platform::Grid grid_;
  middleware::CampaignResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_fig9_cold() {
  return std::make_unique<Fig9Cold>();
}

}  // namespace oagrid::e2e
