#include "middleware/master_agent.hpp"

namespace oagrid::middleware {

MasterAgent::MasterAgent(const platform::Grid& grid) {
  for (const auto& cluster : grid.clusters()) deploy(cluster);
}

ClusterId MasterAgent::deploy(platform::Cluster cluster) {
  const auto id = static_cast<ClusterId>(daemons_.size());
  daemons_.push_back(std::make_unique<ServerDaemon>(id, std::move(cluster)));
  return id;
}

ServerDaemon& MasterAgent::daemon(ClusterId id) {
  OAGRID_REQUIRE(id >= 0 && id < daemon_count(), "daemon id out of range");
  return *daemons_[static_cast<std::size_t>(id)];
}

int MasterAgent::broadcast_perf_request(const PerfRequest& request) {
  for (auto& daemon : daemons_) daemon->inbox().send(SedRequest{request});
  return daemon_count();
}

void MasterAgent::send_execute(ClusterId id, const ExecuteRequest& request) {
  daemon(id).inbox().send(SedRequest{request});
}

void MasterAgent::shutdown() {
  for (auto& daemon : daemons_) daemon->stop();
}

}  // namespace oagrid::middleware
