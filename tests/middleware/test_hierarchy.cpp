#include "middleware/local_agent.hpp"

#include <gtest/gtest.h>

#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "platform/profiles.hpp"

namespace oagrid::middleware {
namespace {

using appmodel::Ensemble;

TEST(LocalAgent, RequiresChildren) {
  EXPECT_THROW(LocalAgent({}), std::invalid_argument);
}

TEST(LocalAgent, ServesUnionOfChildren) {
  ServerDaemon a(0, platform::make_builtin_cluster(0, 15));
  ServerDaemon b(1, platform::make_builtin_cluster(1, 15));
  LocalAgent leaf({&a, &b});
  EXPECT_EQ(leaf.served(), (std::vector<ClusterId>{0, 1}));
  EXPECT_EQ(leaf.daemon_count(), 2);
  leaf.stop();
  a.stop();
  b.stop();
}

TEST(LocalAgent, RejectsDuplicateClusterIds) {
  ServerDaemon a(3, platform::make_builtin_cluster(0, 15));
  ServerDaemon b(3, platform::make_builtin_cluster(1, 15));
  EXPECT_THROW(LocalAgent({&a, &b}), std::invalid_argument);
  a.stop();
  b.stop();
}

TEST(LocalAgent, BroadcastReachesEveryLeafThroughTheTree) {
  ServerDaemon s0(0, platform::make_builtin_cluster(0, 15));
  ServerDaemon s1(1, platform::make_builtin_cluster(1, 15));
  ServerDaemon s2(2, platform::make_builtin_cluster(2, 15));
  LocalAgent left({&s0, &s1});
  LocalAgent root({&left, &s2});
  EXPECT_EQ(root.daemon_count(), 3);

  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  PerfRequest request;
  request.request_id = 9;
  request.scenarios = 2;
  request.months = 3;
  request.reply = reply;
  root.inbox().send(AgentMessage{AgentBroadcast{request}});

  std::set<ClusterId> responded;
  for (int i = 0; i < 3; ++i) {
    const auto response = reply->receive();
    ASSERT_TRUE(response.has_value());
    responded.insert(std::get<PerfResponse>(*response).cluster);
  }
  EXPECT_EQ(responded, (std::set<ClusterId>{0, 1, 2}));
  root.stop();
  left.stop();
  s0.stop();
  s1.stop();
  s2.stop();
}

TEST(LocalAgent, RoutesExecuteToTheOwningSubtree) {
  ServerDaemon s0(0, platform::make_builtin_cluster(0, 15));
  ServerDaemon s1(1, platform::make_builtin_cluster(1, 15));
  LocalAgent root({&s0, &s1});

  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  ExecuteRequest request;
  request.request_id = 4;
  request.scenarios = 1;
  request.months = 2;
  request.reply = reply;
  root.inbox().send(AgentMessage{AgentRoute{1, request}});

  const auto response = reply->receive();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(std::get<ExecuteResponse>(*response).cluster, 1);
  root.stop();
  s0.stop();
  s1.stop();
}

TEST(HierarchicalAgent, TreeShapeMatchesBranching) {
  const auto grid = platform::make_builtin_grid(15);
  HierarchicalAgent binary(grid, 2);
  // 5 leaves at branching 2: 3 agents level 1 -> 2 level 2 -> 1 root = 6.
  EXPECT_EQ(binary.daemon_count(), 5);
  EXPECT_EQ(binary.agent_count(), 6);
  EXPECT_EQ(binary.tree_depth(), 3);
  binary.shutdown();

  HierarchicalAgent wide(grid, 8);
  EXPECT_EQ(wide.agent_count(), 1);
  EXPECT_EQ(wide.tree_depth(), 1);
  wide.shutdown();
}

TEST(HierarchicalAgent, ValidatesInputs) {
  const platform::Grid empty;
  EXPECT_THROW(HierarchicalAgent(empty, 2), std::invalid_argument);
  EXPECT_THROW(HierarchicalAgent(platform::make_builtin_grid(15), 1),
               std::invalid_argument);
}

TEST(HierarchicalAgent, CampaignMatchesFlatDeployment) {
  // The client cannot tell a hierarchical deployment from a flat one: same
  // repartition, same makespan.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};

  MasterAgent flat(grid);
  Client flat_client(flat);
  const CampaignResult flat_result =
      flat_client.submit(ensemble, sched::Heuristic::kKnapsack);
  flat.shutdown();

  HierarchicalAgent tree(grid, 2);
  Client tree_client(tree);
  const CampaignResult tree_result =
      tree_client.submit(ensemble, sched::Heuristic::kKnapsack);
  tree.shutdown();

  EXPECT_EQ(tree_result.repartition.dags_per_cluster,
            flat_result.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(tree_result.makespan, flat_result.makespan);
  EXPECT_EQ(tree_result.executions.size(), flat_result.executions.size());
}

TEST(HierarchicalAgent, SequentialCampaigns) {
  HierarchicalAgent tree(platform::make_builtin_grid(20).prefix(4), 2);
  Client client(tree);
  const CampaignResult first =
      client.submit(Ensemble{3, 5}, sched::Heuristic::kBasic);
  const CampaignResult second =
      client.submit(Ensemble{6, 5}, sched::Heuristic::kKnapsack);
  EXPECT_EQ(first.repartition.total_dags(), 3);
  EXPECT_EQ(second.repartition.total_dags(), 6);
  tree.shutdown();
}

TEST(HierarchicalAgent, ShutdownIsIdempotent) {
  HierarchicalAgent tree(platform::make_builtin_grid(15).prefix(2), 2);
  tree.shutdown();
  tree.shutdown();
}

}  // namespace
}  // namespace oagrid::middleware
