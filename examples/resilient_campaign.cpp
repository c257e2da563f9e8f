/// \file resilient_campaign.cpp
/// \brief Operating the campaign on an unreliable grid: a server daemon dies
/// before submission, and the client, submitting with a step deadline,
/// drops it instead of stranding the experiment (at once: the agent answers
/// for the stopped daemon); the surviving clusters execute the re-balanced
/// shares.
///
///   $ ./resilient_campaign [resources-per-cluster] [scenarios] [months]

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "platform/profiles.hpp"

int main(int argc, char** argv) {
  using namespace oagrid;
  using namespace std::chrono_literals;

  const ProcCount resources = argc > 1 ? std::atoi(argv[1]) : 30;
  const Count scenarios = argc > 2 ? std::atoll(argv[2]) : 10;
  const Count months = argc > 3 ? std::atoll(argv[3]) : 120;

  const platform::Grid grid = platform::make_builtin_grid(resources);
  middleware::MasterAgent agent(grid);
  std::cout << "Deployed " << agent.daemon_count() << " server daemons.\n";

  // Disaster strikes: the 'chicon' daemon crashes before the campaign.
  agent.daemon(2).stop();
  std::cout << "SeD 2 (" << grid.cluster(2).name()
            << ") has crashed — submitting anyway with a 2 s step deadline.\n\n";

  middleware::Client client(agent);
  const auto result = client.submit_with_deadline(
      appmodel::Ensemble{scenarios, months}, sched::Heuristic::kKnapsack, 2000ms);

  std::cout << "Unresponsive daemons dropped: ";
  for (const ClusterId c : result.unresponsive)
    std::cout << grid.cluster(c).name() << " ";
  std::cout << "\n\n";

  TableWriter table({"cluster", "scenarios", "makespan", "human"});
  for (const ClusterId c : result.responsive) {
    const Seconds ms =
        result.campaign.cluster_makespans[static_cast<std::size_t>(c)];
    table.add_row(
        {grid.cluster(c).name(),
         std::to_string(
             result.campaign.repartition
                 .dags_per_cluster[static_cast<std::size_t>(c)]),
         fmt(ms, 0), fmt_duration(ms)});
  }
  table.print(std::cout);
  std::cout << "\nCampaign completed on the survivors: makespan "
            << fmt_duration(result.campaign.makespan) << "\n";

  agent.shutdown();
  return 0;
}
