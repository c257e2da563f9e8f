#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "middleware/client.hpp"
#include "middleware/local_agent.hpp"
#include "middleware/mailbox.hpp"
#include "middleware/master_agent.hpp"
#include "net/network.hpp"
#include "platform/profiles.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::middleware {
namespace {

using appmodel::Ensemble;

TEST(Mailbox, FifoOrder) {
  Mailbox<int> box;
  box.send(1);
  box.send(2);
  box.send(3);
  EXPECT_EQ(box.receive(), 1);
  EXPECT_EQ(box.receive(), 2);
  EXPECT_EQ(box.receive(), 3);
}

TEST(Mailbox, TryReceiveNonBlocking) {
  Mailbox<int> box;
  EXPECT_EQ(box.try_receive(), std::nullopt);
  box.send(7);
  EXPECT_EQ(box.try_receive(), 7);
}

TEST(Mailbox, CloseDrainsThenEnds) {
  Mailbox<int> box;
  box.send(1);
  box.close();
  EXPECT_FALSE(box.send(2));  // dropped after close
  EXPECT_EQ(box.receive(), 1);
  EXPECT_EQ(box.receive(), std::nullopt);
  EXPECT_TRUE(box.closed());
}

TEST(Mailbox, CrossThreadDelivery) {
  Mailbox<int> box;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) box.send(i);
    box.close();
  });
  int expected = 0;
  while (auto v = box.receive()) EXPECT_EQ(*v, expected++);
  EXPECT_EQ(expected, 100);
  producer.join();
}

TEST(ServerDaemon, AnswersPerfRequest) {
  ServerDaemon daemon(0, platform::make_builtin_cluster(1, 30));
  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  PerfRequest request;
  request.request_id = 42;
  request.scenarios = 4;
  request.months = 6;
  request.heuristic = sched::Heuristic::kKnapsack;
  request.reply = reply;
  daemon.inbox().send(SedRequest{request});
  const auto response = reply->receive();
  ASSERT_TRUE(response.has_value());
  const auto& perf = std::get<PerfResponse>(*response);
  EXPECT_EQ(perf.request_id, 42);
  EXPECT_EQ(perf.cluster, 0);
  ASSERT_EQ(perf.performance.size(), 4u);
  for (std::size_t k = 1; k < 4; ++k)
    EXPECT_GE(perf.performance[k], perf.performance[k - 1]);
  daemon.stop();
}

TEST(ServerDaemon, AnswersExecuteRequest) {
  ServerDaemon daemon(3, platform::make_builtin_cluster(2, 25));
  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  ExecuteRequest request;
  request.request_id = 7;
  request.scenarios = 3;
  request.months = 5;
  request.heuristic = sched::Heuristic::kBasic;
  request.reply = reply;
  daemon.inbox().send(SedRequest{request});
  const auto response = reply->receive();
  ASSERT_TRUE(response.has_value());
  const auto& exec = std::get<ExecuteResponse>(*response);
  EXPECT_EQ(exec.request_id, 7);
  EXPECT_EQ(exec.cluster, 3);
  EXPECT_GT(exec.makespan, 0.0);
  daemon.stop();
}

// An execute request is answered exactly once, with its completion report.
TEST(ServerDaemon, NoProgressByDefault) {
  ServerDaemon daemon(0, platform::make_builtin_cluster(0, 25));
  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  ExecuteRequest request;
  request.request_id = 6;
  request.scenarios = 2;
  request.months = 5;
  request.reply = reply;
  daemon.inbox().send(SedRequest{request});
  const auto response = reply->receive();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(std::holds_alternative<ExecuteResponse>(*response));
  EXPECT_EQ(reply->try_receive(), std::nullopt);
  daemon.stop();
}

TEST(ServerDaemon, StopIsIdempotent) {
  ServerDaemon daemon(0, platform::make_builtin_cluster(0, 20));
  daemon.stop();
  daemon.stop();
}

TEST(MasterAgent, DeploysFleetFromGrid) {
  MasterAgent agent(platform::make_builtin_grid(20));
  EXPECT_EQ(agent.daemon_count(), 5);
  EXPECT_EQ(agent.daemon(2).cluster().name(), "chicon");
  EXPECT_THROW((void)agent.daemon(5), std::invalid_argument);
  agent.shutdown();
}

TEST(Client, FullCampaignMatchesDirectSimulation) {
  // The middleware path (Figure 9's six steps) must land on exactly the
  // same repartition and makespan as the in-process grid simulation.
  const auto grid = platform::make_builtin_grid(30);
  const Ensemble ensemble{8, 10};
  const auto heuristic = sched::Heuristic::kKnapsack;

  const sim::GridSimResult direct = sim::simulate_grid(grid, ensemble, heuristic);

  MasterAgent agent(grid);
  Client client(agent);
  const CampaignResult campaign = client.submit(ensemble, heuristic);
  agent.shutdown();

  EXPECT_EQ(campaign.repartition.dags_per_cluster,
            direct.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(campaign.makespan, direct.makespan);
  // Executions arrive only from clusters that got work, each reporting its
  // share's makespan.
  for (const auto& exec : campaign.executions) {
    const auto c = static_cast<std::size_t>(exec.cluster);
    EXPECT_GT(campaign.repartition.dags_per_cluster[c], 0);
    EXPECT_EQ(exec.makespan, direct.cluster_makespans[c]);
  }
}

TEST(Client, FailureInjectionMatchesDirectSimulation) {
  // The failure description travels in each execute request: every SeD runs
  // its share under its own cluster's process, exactly as the in-process
  // grid simulation does, and reports the lost work back.
  const auto grid = platform::make_builtin_grid(30).prefix(3);
  const Ensemble ensemble{6, 12};
  const auto heuristic = sched::Heuristic::kKnapsack;
  sim::GridFaultOptions faults;
  faults.model =
      fault::FailureModel::uniform_exponential(3, 20000.0, 2000.0, 5);
  faults.recovery = fault::RecoveryPolicy::kMigrateWithState;
  Client::StagingOptions staging;
  staging.data =
      sim::campaign_network_options(net::renater_network(3), ensemble);

  const sim::GridSimResult direct =
      sim::simulate_grid(grid, ensemble, heuristic, 1, staging.data, faults);
  HierarchicalAgent tree(grid, 2);
  Client client(tree);
  const CampaignResult campaign =
      client.submit(ensemble, heuristic, staging, faults);
  tree.shutdown();

  EXPECT_EQ(campaign.repartition.assignment, direct.repartition.assignment);
  EXPECT_EQ(campaign.cluster_makespans, direct.cluster_makespans);
  EXPECT_EQ(campaign.makespan, direct.makespan);
  EXPECT_EQ(campaign.fault.outages, direct.fault.outages);
  EXPECT_EQ(campaign.fault.kills, direct.fault.kills);
  EXPECT_EQ(campaign.fault.lost_seconds, direct.fault.lost_seconds);
  EXPECT_GT(campaign.fault.outages, 0);
  Count outages = 0;
  for (const auto& exec : campaign.executions) outages += exec.fault.outages;
  EXPECT_EQ(outages, campaign.fault.outages);
}

TEST(Client, SequentialCampaignsReuseTheFleet) {
  MasterAgent agent(platform::make_builtin_grid(25).prefix(3));
  Client client(agent);
  const CampaignResult first = client.submit(Ensemble{4, 6},
                                             sched::Heuristic::kBasic);
  const CampaignResult second = client.submit(Ensemble{6, 6},
                                              sched::Heuristic::kKnapsack);
  EXPECT_EQ(first.repartition.total_dags(), 4);
  EXPECT_EQ(second.repartition.total_dags(), 6);
  agent.shutdown();
}

TEST(Client, ConcurrentClientsDoNotInterfere) {
  MasterAgent agent(platform::make_builtin_grid(25).prefix(3));
  CampaignResult r1, r2;
  std::thread t1([&] {
    Client c(agent);
    r1 = c.submit(Ensemble{5, 8}, sched::Heuristic::kKnapsack);
  });
  std::thread t2([&] {
    Client c(agent);
    r2 = c.submit(Ensemble{5, 8}, sched::Heuristic::kKnapsack);
  });
  t1.join();
  t2.join();
  agent.shutdown();
  // Identical requests -> identical results, regardless of interleaving.
  EXPECT_EQ(r1.repartition.dags_per_cluster, r2.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
}

TEST(Client, RejectsEmptyFleet) {
  MasterAgent agent{platform::Grid{}};
  Client client(agent);
  EXPECT_THROW((void)client.submit(Ensemble{2, 2}, sched::Heuristic::kBasic),
               std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::middleware
