#include "middleware/local_agent.hpp"

#include <algorithm>
#include <stdexcept>

namespace oagrid::middleware {

LocalAgent::LocalAgent(std::vector<Child> children)
    : children_(std::move(children)) {
  OAGRID_REQUIRE(!children_.empty(), "agent needs at least one child");
  for (const Child& child : children_) {
    std::vector<ClusterId> ids;
    if (const auto* sed = std::get_if<ServerDaemon*>(&child)) {
      ids.push_back((*sed)->id());
    } else {
      ids = std::get<LocalAgent*>(child)->served();
    }
    child_served_.push_back(ids);
    served_.insert(served_.end(), ids.begin(), ids.end());
  }
  std::sort(served_.begin(), served_.end());
  OAGRID_REQUIRE(std::adjacent_find(served_.begin(), served_.end()) ==
                     served_.end(),
                 "two children serve the same cluster");
  thread_ = std::thread([this] { serve(); });
}

LocalAgent::~LocalAgent() { stop(); }

void LocalAgent::stop() {
  if (stopped_) return;
  stopped_ = true;
  inbox_.close();
  if (thread_.joinable()) thread_.join();
}

void LocalAgent::serve() {
  while (std::optional<AgentMessage> message = inbox_.receive())
    std::visit([this](const auto& m) { handle(m); }, *message);
}

void LocalAgent::handle(const AgentBroadcast& broadcast) {
  for (std::size_t c = 0; c < children_.size(); ++c) {
    bool delivered = false;
    if (const auto* sed = std::get_if<ServerDaemon*>(&children_[c])) {
      delivered = (*sed)->inbox().send(SedRequest{broadcast.request});
    } else {
      delivered = std::get<LocalAgent*>(children_[c])->inbox().send(
          AgentMessage{broadcast});
    }
    if (!delivered)
      for (const ClusterId id : child_served_[c])
        answer_unreachable(broadcast.request, id);
  }
}

void LocalAgent::handle(const AgentRoute& route) {
  for (std::size_t c = 0; c < children_.size(); ++c) {
    const auto& ids = child_served_[c];
    if (!std::binary_search(ids.begin(), ids.end(), route.target)) continue;
    if (const auto* sed = std::get_if<ServerDaemon*>(&children_[c])) {
      (*sed)->inbox().send(SedRequest{route.request});
    } else {
      std::get<LocalAgent*>(children_[c])->inbox().send(AgentMessage{route});
    }
    return;
  }
}

HierarchicalAgent::HierarchicalAgent(const platform::Grid& grid,
                                     int branching) {
  OAGRID_REQUIRE(grid.cluster_count() >= 1, "grid needs at least one cluster");
  OAGRID_REQUIRE(branching >= 2, "branching factor must be >= 2");

  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    daemons_.push_back(std::make_unique<ServerDaemon>(c, grid.cluster(c)));

  // Build the tree bottom-up: group current-level nodes `branching` at a
  // time under a new LocalAgent until one root remains.
  std::vector<LocalAgent::Child> level;
  for (auto& daemon : daemons_) level.emplace_back(daemon.get());
  tree_depth_ = 0;
  while (level.size() > 1 || tree_depth_ == 0) {
    std::vector<LocalAgent::Child> next;
    for (std::size_t i = 0; i < level.size();
         i += static_cast<std::size_t>(branching)) {
      const std::size_t end =
          std::min(level.size(), i + static_cast<std::size_t>(branching));
      std::vector<LocalAgent::Child> group(level.begin() + static_cast<long>(i),
                                           level.begin() + static_cast<long>(end));
      agents_.push_back(std::make_unique<LocalAgent>(std::move(group)));
      next.emplace_back(agents_.back().get());
    }
    level = std::move(next);
    ++tree_depth_;
  }
  root_ = std::get<LocalAgent*>(level.front());
}

HierarchicalAgent::~HierarchicalAgent() { shutdown(); }

int HierarchicalAgent::daemon_count() const {
  return static_cast<int>(daemons_.size());
}

ServerDaemon& HierarchicalAgent::daemon(ClusterId id) {
  OAGRID_REQUIRE(id >= 0 && id < daemon_count(), "daemon id out of range");
  return *daemons_[static_cast<std::size_t>(id)];
}

int HierarchicalAgent::broadcast_perf_request(const PerfRequest& request) {
  if (!root_->inbox().send(AgentMessage{AgentBroadcast{request}}))
    for (const ClusterId id : root_->served()) answer_unreachable(request, id);
  return daemon_count();
}

void HierarchicalAgent::send_execute(ClusterId id,
                                     const ExecuteRequest& request) {
  OAGRID_REQUIRE(id >= 0 && id < daemon_count(), "unknown cluster id");
  root_->inbox().send(AgentMessage{AgentRoute{id, request}});
}

void HierarchicalAgent::shutdown() {
  // Top-down, then the SeDs: agents_ was built from the leaves up, and each
  // stop() forwards what its inbox holds before the children stop, so every
  // request accepted before shutdown() reaches its daemon and is answered.
  for (auto agent = agents_.rbegin(); agent != agents_.rend(); ++agent)
    (*agent)->stop();
  for (auto& daemon : daemons_) daemon->stop();
}

}  // namespace oagrid::middleware
