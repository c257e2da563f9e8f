#include <gtest/gtest.h>

#include <algorithm>

#include "appmodel/volumes.hpp"
#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "net/network.hpp"
#include "platform/profiles.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::middleware {
namespace {

using appmodel::Ensemble;

TEST(ClientStaging, NoNetworkDegradesToPlainSubmit) {
  const auto grid = platform::make_builtin_grid(30);
  const Ensemble ensemble{8, 10};
  MasterAgent agent(grid);
  Client client(agent);

  const CampaignResult plain = client.submit(ensemble,
                                             sched::Heuristic::kKnapsack);
  const auto staged =
      client.submit(ensemble, sched::Heuristic::kKnapsack, {});
  agent.shutdown();

  EXPECT_EQ(staged.repartition.dags_per_cluster,
            plain.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(staged.makespan, plain.makespan);
  EXPECT_EQ(staged.transfer_mb, 0.0);
  EXPECT_EQ(staged.deadline_misses, 0);
}

TEST(ClientStaging, FreeNetworkIsBitIdenticalToPlainSubmit) {
  const auto grid = platform::make_builtin_grid(30).prefix(3);
  const Ensemble ensemble{6, 8};
  MasterAgent agent(grid);
  Client client(agent);

  const CampaignResult plain = client.submit(ensemble,
                                             sched::Heuristic::kKnapsack);
  Client::StagingOptions options;
  options.data = sim::campaign_network_options(
      net::free_network(static_cast<int>(grid.cluster_count())), ensemble);
  const auto staged =
      client.submit(ensemble, sched::Heuristic::kKnapsack, options);
  agent.shutdown();

  EXPECT_EQ(staged.repartition.dags_per_cluster,
            plain.repartition.dags_per_cluster);
  // Free transfers add exactly 0.0 everywhere — not "approximately".
  EXPECT_EQ(staged.makespan, plain.makespan);
  for (ClusterId c = 0; c < static_cast<ClusterId>(grid.cluster_count()); ++c) {
    EXPECT_EQ(staged.staging_seconds[static_cast<std::size_t>(c)], 0.0);
    EXPECT_EQ(staged.collection_seconds[static_cast<std::size_t>(c)], 0.0);
  }
  // The transfers still happened (and were metered), they just cost nothing.
  EXPECT_GT(staged.transfer_mb, 0.0);
}

TEST(ClientStaging, RealNetworkAddsTransferTimeAndMatchesGridSim) {
  const auto grid = platform::make_builtin_grid(30).prefix(3);
  const Ensemble ensemble{6, 8};
  const auto heuristic = sched::Heuristic::kKnapsack;
  Client::StagingOptions options;
  options.data = sim::campaign_network_options(
      net::renater_network(static_cast<int>(grid.cluster_count())), ensemble);

  const sim::GridSimResult direct =
      sim::simulate_grid(grid, ensemble, heuristic, 1, options.data);

  MasterAgent agent(grid);
  Client client(agent);
  const auto staged = client.submit(ensemble, heuristic, options);
  agent.shutdown();

  // The middleware path prices data movement identically to the in-process
  // grid simulation: same charged repartition, same end-to-end makespan.
  EXPECT_EQ(staged.repartition.dags_per_cluster,
            direct.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(staged.makespan, direct.makespan);
  EXPECT_DOUBLE_EQ(staged.transfer_mb, direct.transfer_mb);
  Seconds compute = 0.0;
  for (const ExecuteResponse& exec : staged.executions)
    compute = std::max(compute, exec.makespan);
  EXPECT_GT(staged.makespan, compute);  // transfers cost time
}

TEST(ClientStaging, CountsDeadlineMisses) {
  const auto grid = platform::make_builtin_grid(30).prefix(2);
  const Ensemble ensemble{4, 6};
  Client::StagingOptions options;
  options.data = sim::campaign_network_options(
      net::renater_network(static_cast<int>(grid.cluster_count())), ensemble);
  // Far below any 120 MB shipment over the RENATER profile (~1 s each).
  options.transfer_deadline = 1e-6;

  MasterAgent agent(grid);
  Client client(agent);
  const auto tight =
      client.submit(ensemble, sched::Heuristic::kKnapsack, options);
  options.transfer_deadline = kInfiniteTime;
  const auto loose =
      client.submit(ensemble, sched::Heuristic::kKnapsack, options);
  agent.shutdown();

  EXPECT_GT(tight.deadline_misses, 0);
  EXPECT_EQ(loose.deadline_misses, 0);
  // The deadline is an SLO check, not a scheduler input: results match.
  EXPECT_DOUBLE_EQ(tight.makespan, loose.makespan);
}

}  // namespace
}  // namespace oagrid::middleware
