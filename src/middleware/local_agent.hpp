#pragma once
/// \file local_agent.hpp
/// \brief DIET's hierarchical agents: a tree of Local Agents (LAs) between
/// the Master Agent and the server daemons.
///
/// Real DIET deployments scale by structuring agents as a tree — the MA
/// talks to a few LAs, each LA to a few children, leaves to SeDs — so no
/// single agent fans out to hundreds of servers. Each LocalAgent here is a
/// genuine thread with a mailbox: broadcasts travel down the tree hop by
/// hop, and targeted execution requests are routed by cluster-id ownership.
///
/// HierarchicalAgent assembles the whole deployment (SeD fleet + balanced LA
/// tree of a given branching factor) and exposes the client-facing
/// Deployment interface, so a Client cannot tell it from a flat MasterAgent
/// (tests assert exactly that).

#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "middleware/deployment.hpp"
#include "middleware/server_daemon.hpp"
#include "platform/grid.hpp"

namespace oagrid::middleware {

/// Internal agent-to-agent message set: a broadcast that keeps fanning out,
/// and a routed execute. An agent stops when its inbox closes.
struct AgentBroadcast {
  PerfRequest request;
};
struct AgentRoute {
  ClusterId target = -1;
  ExecuteRequest request;
};
using AgentMessage = std::variant<AgentBroadcast, AgentRoute>;

class LocalAgent {
 public:
  /// A child is either a server daemon (leaf) or another agent (subtree).
  using Child = std::variant<ServerDaemon*, LocalAgent*>;

  explicit LocalAgent(std::vector<Child> children);
  ~LocalAgent();

  LocalAgent(const LocalAgent&) = delete;
  LocalAgent& operator=(const LocalAgent&) = delete;

  [[nodiscard]] Mailbox<AgentMessage>& inbox() noexcept { return inbox_; }

  /// Cluster ids served by this subtree (sorted).
  [[nodiscard]] const std::vector<ClusterId>& served() const noexcept {
    return served_;
  }

  /// Number of server daemons below this agent.
  [[nodiscard]] int daemon_count() const noexcept {
    return static_cast<int>(served_.size());
  }

  void stop();

 private:
  void serve();
  void handle(const AgentBroadcast& broadcast);
  void handle(const AgentRoute& route);

  std::vector<Child> children_;
  std::vector<ClusterId> served_;
  std::vector<std::vector<ClusterId>> child_served_;
  Mailbox<AgentMessage> inbox_;
  std::thread thread_;
  bool stopped_ = false;
};

/// A full hierarchical deployment: one SeD per cluster and a balanced agent
/// tree with the given branching factor above them. Satisfies Deployment.
class HierarchicalAgent final : public Deployment {
 public:
  HierarchicalAgent(const platform::Grid& grid, int branching = 2);
  ~HierarchicalAgent() override;

  [[nodiscard]] int daemon_count() const override;
  int broadcast_perf_request(const PerfRequest& request) override;
  void send_execute(ClusterId id, const ExecuteRequest& request) override;

  /// Depth of the agent tree (1 = a single root above the SeDs).
  [[nodiscard]] int tree_depth() const noexcept { return tree_depth_; }
  /// Direct daemon access (operations tooling, fault injection in tests).
  [[nodiscard]] ServerDaemon& daemon(ClusterId id);
  /// Total number of LocalAgents in the tree.
  [[nodiscard]] int agent_count() const noexcept {
    return static_cast<int>(agents_.size());
  }

  void shutdown();

 private:
  std::vector<std::unique_ptr<ServerDaemon>> daemons_;
  std::vector<std::unique_ptr<LocalAgent>> agents_;
  LocalAgent* root_ = nullptr;
  int tree_depth_ = 0;
};

}  // namespace oagrid::middleware
