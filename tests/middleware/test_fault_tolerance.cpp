#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "middleware/client.hpp"
#include "middleware/local_agent.hpp"
#include "middleware/master_agent.hpp"
#include "platform/profiles.hpp"

namespace oagrid::middleware {
namespace {

using namespace std::chrono_literals;
using appmodel::Ensemble;

TEST(MailboxTimeout, TimesOutWhenEmpty) {
  Mailbox<int> box;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(box.receive_for(30ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
  EXPECT_FALSE(box.closed());  // timeout, not closure
}

TEST(MailboxTimeout, DeliversPromptly) {
  Mailbox<int> box;
  std::thread producer([&] {
    std::this_thread::sleep_for(5ms);
    box.send(99);
  });
  EXPECT_EQ(box.receive_for(2000ms), 99);
  producer.join();
}

TEST(MailboxTimeout, ClosedAndDrainedReturnsNullopt) {
  Mailbox<int> box;
  box.send(1);
  box.close();
  EXPECT_EQ(box.receive_for(10ms), 1);
  EXPECT_EQ(box.receive_for(10ms), std::nullopt);
  EXPECT_TRUE(box.closed());
}

TEST(FaultTolerance, AllHealthyMatchesPlainSubmit) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};
  MasterAgent agent(grid);
  Client client(agent);
  const CampaignResult plain =
      client.submit(ensemble, sched::Heuristic::kKnapsack);
  const auto guarded = client.submit_with_deadline(
      ensemble, sched::Heuristic::kKnapsack, 30000ms);
  agent.shutdown();

  EXPECT_TRUE(guarded.unresponsive.empty());
  EXPECT_EQ(guarded.responsive.size(), 5u);
  EXPECT_EQ(guarded.campaign.repartition.dags_per_cluster,
            plain.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(guarded.campaign.makespan, plain.makespan);
}

TEST(FaultTolerance, DeadDaemonIsDroppedNotFatal) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};
  MasterAgent agent(grid);
  agent.daemon(3).stop();  // crash one SeD before the campaign

  Client client(agent);
  const auto result = client.submit_with_deadline(
      ensemble, sched::Heuristic::kKnapsack, 500ms);
  agent.shutdown();

  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{3});
  EXPECT_EQ(result.responsive.size(), 4u);
  EXPECT_EQ(result.campaign.repartition.total_dags(), 8);
  EXPECT_GT(result.campaign.makespan, 0.0);
  // Every execution came from a responsive daemon.
  for (const auto& exec : result.campaign.executions)
    EXPECT_NE(exec.cluster, 3);
}

TEST(FaultTolerance, DeadLeafInsideAnAgentTree) {
  // A daemon dies inside a Local-Agent tree: broadcasts still fan out
  // through the routing agents, the dead leaf is dropped at the deadline,
  // the survivors execute.
  const auto grid = platform::make_builtin_grid(25);
  HierarchicalAgent tree(grid, 2);
  tree.daemon(4).stop();  // crash the 'azur' leaf

  Client client(tree);
  const auto result = client.submit_with_deadline(
      Ensemble{6, 8}, sched::Heuristic::kKnapsack, 500ms);
  tree.shutdown();

  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{4});
  EXPECT_EQ(result.responsive.size(), 4u);
  EXPECT_EQ(result.campaign.repartition.total_dags(), 6);
  EXPECT_GT(result.campaign.makespan, 0.0);
}

/// Forwards everything to a real fleet except the execute requests for one
/// cluster, which it swallows: that daemon answers step 3, then goes silent.
class SilentExecutorDeployment final : public Deployment {
 public:
  SilentExecutorDeployment(MasterAgent& fleet, ClusterId silent)
      : fleet_(fleet), silent_(silent) {}

  [[nodiscard]] int daemon_count() const override {
    return fleet_.daemon_count();
  }
  int broadcast_perf_request(const PerfRequest& request) override {
    return fleet_.broadcast_perf_request(request);
  }
  void send_execute(ClusterId id, const ExecuteRequest& request) override {
    if (id != silent_) fleet_.send_execute(id, request);
  }

 private:
  MasterAgent& fleet_;
  ClusterId silent_;
};

TEST(FaultTolerance, SilentExecutorIsReportedUnresponsive) {
  // Cluster 0 is the fastest profile, so Algorithm 1 always gives it work;
  // its report never comes, and the step-6 deadline must say so.
  const auto grid = platform::make_builtin_grid(25);
  MasterAgent fleet(grid);
  SilentExecutorDeployment deployment(fleet, 0);
  Client client(deployment);
  const auto result = client.submit_with_deadline(
      Ensemble{8, 10}, sched::Heuristic::kKnapsack, 500ms);
  fleet.shutdown();

  ASSERT_GT(result.campaign.repartition.dags_per_cluster[0], 0);
  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{0});
  EXPECT_EQ(result.responsive, (std::vector<ClusterId>{1, 2, 3, 4}));
  for (const auto& exec : result.campaign.executions)
    EXPECT_NE(exec.cluster, 0);
  EXPECT_EQ(result.campaign.cluster_makespans[0], 0.0);
  EXPECT_GT(result.campaign.makespan, 0.0);
}

/// Like SilentExecutorDeployment, but keeps the swallowed request so the
/// test can answer it after the client gave up: a daemon that misses the
/// step-6 deadline and reports anyway.
class LateExecutorDeployment final : public Deployment {
 public:
  LateExecutorDeployment(MasterAgent& fleet, ClusterId late)
      : fleet_(fleet), late_(late) {}

  [[nodiscard]] int daemon_count() const override {
    return fleet_.daemon_count();
  }
  int broadcast_perf_request(const PerfRequest& request) override {
    return fleet_.broadcast_perf_request(request);
  }
  void send_execute(ClusterId id, const ExecuteRequest& request) override {
    if (id == late_)
      kept_ = request;
    else
      fleet_.send_execute(id, request);
  }
  [[nodiscard]] const std::optional<ExecuteRequest>& kept() const {
    return kept_;
  }

 private:
  MasterAgent& fleet_;
  ClusterId late_;
  std::optional<ExecuteRequest> kept_;
};

TEST(FaultTolerance, LateReplyAfterTheDeadlineLandsInALiveMailbox) {
  const auto grid = platform::make_builtin_grid(25);
  MasterAgent fleet(grid);
  LateExecutorDeployment deployment(fleet, 0);
  Client client(deployment);
  const auto result = client.submit_with_deadline(
      Ensemble{8, 10}, sched::Heuristic::kKnapsack, 500ms);
  fleet.shutdown();
  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{0});

  // The client's run is over; the late daemon now answers through the
  // channel its request carries. Nobody reads it, but it must be alive.
  ASSERT_TRUE(deployment.kept().has_value());
  const ExecuteRequest& late = *deployment.kept();
  ExecuteResponse response;
  response.request_id = late.request_id;
  response.cluster = 0;
  EXPECT_TRUE(late.reply->send(SedResponse{response}));
  const auto delivered = late.reply->try_receive();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(std::get<ExecuteResponse>(*delivered).request_id,
            late.request_id);
}

TEST(FaultTolerance, AllDeadThrows) {
  const auto grid = platform::make_builtin_grid(20).prefix(2);
  MasterAgent agent(grid);
  agent.daemon(0).stop();
  agent.daemon(1).stop();
  Client client(agent);
  EXPECT_THROW((void)client.submit_with_deadline(
                   Ensemble{4, 5}, sched::Heuristic::kBasic, 100ms),
               std::runtime_error);
  agent.shutdown();
}

/// Forwards to a real deployment and keeps the reply channel of the latest
/// broadcast: closing it releases a client blocked waiting on it.
class ClosableRepliesDeployment final : public Deployment {
 public:
  explicit ClosableRepliesDeployment(Deployment& inner) : inner_(inner) {}

  [[nodiscard]] int daemon_count() const override {
    return inner_.daemon_count();
  }
  int broadcast_perf_request(const PerfRequest& request) override {
    {
      const std::scoped_lock lock(mutex_);
      reply_ = request.reply;
    }
    return inner_.broadcast_perf_request(request);
  }
  void send_execute(ClusterId id, const ExecuteRequest& request) override {
    inner_.send_execute(id, request);
  }
  void close_replies() {
    const std::scoped_lock lock(mutex_);
    if (reply_) reply_->close();
  }

 private:
  Deployment& inner_;
  std::mutex mutex_;
  ReplyChannel reply_;
};

/// Runs a plain Client::submit on `deployment` from a thread of its own and
/// waits for it at most 10 s. Returns what the call threw ("" if it
/// returned). A call still blocked at the bound fails the test, and closing
/// its reply channel then ends it, so the thread is always joined.
std::string submit_within_bound(Deployment& deployment) {
  ClosableRepliesDeployment closable(deployment);
  std::promise<std::string> outcome;
  std::future<std::string> done = outcome.get_future();
  std::thread caller([&closable, &outcome] {
    try {
      Client client(closable);
      (void)client.submit(Ensemble{2, 6}, sched::Heuristic::kKnapsack);
      outcome.set_value("");
    } catch (const std::exception& e) {
      outcome.set_value(e.what());
    }
  });
  if (done.wait_for(10s) != std::future_status::ready) {
    ADD_FAILURE() << "submit still blocked after 10 s";
    closable.close_replies();
  }
  caller.join();
  return done.get();
}

TEST(FaultTolerance, SubmitWithoutDeadlineThrowsOnADownDaemon) {
  // Without a deadline the client waits for every daemon's vector; the agent
  // that cannot reach a stopped SeD answers for it, and the client throws.
  const auto grid = platform::make_builtin_grid(25).prefix(3);
  MasterAgent flat(grid);
  flat.daemon(1).stop();
  EXPECT_EQ(submit_within_bound(flat), "oagrid: SeD 1 is down");
  flat.shutdown();

  HierarchicalAgent tree(grid, 2);
  tree.daemon(2).stop();
  EXPECT_EQ(submit_within_bound(tree), "oagrid: SeD 2 is down");
  tree.shutdown();
}

TEST(FaultTolerance, RejectsNonPositiveTimeout) {
  MasterAgent agent(platform::make_builtin_grid(20).prefix(2));
  Client client(agent);
  EXPECT_THROW((void)client.submit_with_deadline(
                   Ensemble{2, 2}, sched::Heuristic::kBasic, 0ms),
               std::invalid_argument);
  agent.shutdown();
}

}  // namespace
}  // namespace oagrid::middleware
