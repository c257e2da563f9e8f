/// \file grid_campaign.cpp
/// \brief The paper's §5 scenario end to end: a client submits a climate
/// campaign to a DIET-like middleware running one server daemon per
/// Grid'5000 cluster, the Figure 9 six-step protocol distributes the
/// scenarios (Algorithm 1), and each cluster executes its share.
///
///   $ ./grid_campaign [resources-per-cluster] [scenarios] [months]

#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "platform/profiles.hpp"

int main(int argc, char** argv) {
  using namespace oagrid;

  const ProcCount resources = argc > 1 ? std::atoi(argv[1]) : 30;
  const Count scenarios = argc > 2 ? std::atoll(argv[2]) : 10;
  const Count months = argc > 3 ? std::atoll(argv[3]) : 150;

  // Deploy: one SeD per cluster (step 0 — the fleet).
  const platform::Grid grid = platform::make_builtin_grid(resources);
  middleware::MasterAgent agent(grid);
  std::cout << "Deployed " << agent.daemon_count()
            << " server daemons (one per cluster, " << resources
            << " processors each)\n\n";

  // Steps 1-6 of Figure 9.
  middleware::Client client(agent);
  const middleware::CampaignResult result =
      client.submit(appmodel::Ensemble{scenarios, months},
                    sched::Heuristic::kKnapsack);

  TableWriter table(
      {"cluster", "T(11) [s]", "scenarios", "makespan", "human"});
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) {
    const Count share =
        result.repartition.dags_per_cluster[static_cast<std::size_t>(c)];
    Seconds ms = 0;
    for (const auto& exec : result.executions)
      if (exec.cluster == c) ms = exec.makespan;
    table.add_row({grid.cluster(c).name(),
                   fmt(grid.cluster(c).main_time(11), 0),
                   std::to_string(share), fmt(ms, 0), fmt_duration(ms)});
  }
  table.print(std::cout);
  std::cout << "\nCampaign makespan: " << fmt_duration(result.makespan)
            << "  (" << fmt(result.makespan, 0) << " s)\n";
  std::cout << "The fastest cluster received the most scenarios — the paper's"
               " §7 observation.\n";

  agent.shutdown();
  return 0;
}
