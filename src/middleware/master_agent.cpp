#include "middleware/master_agent.hpp"

namespace oagrid::middleware {

MasterAgent::MasterAgent(const platform::Grid& grid) {
  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    daemons_.push_back(std::make_unique<ServerDaemon>(c, grid.cluster(c)));
}

ServerDaemon& MasterAgent::daemon(ClusterId id) {
  OAGRID_REQUIRE(id >= 0 && id < daemon_count(), "daemon id out of range");
  return *daemons_[static_cast<std::size_t>(id)];
}

int MasterAgent::broadcast_perf_request(const PerfRequest& request) {
  for (auto& daemon : daemons_)
    if (!daemon->inbox().send(SedRequest{request}))
      answer_unreachable(request, daemon->id());
  return daemon_count();
}

void MasterAgent::send_execute(ClusterId id, const ExecuteRequest& request) {
  daemon(id).inbox().send(SedRequest{request});
}

void MasterAgent::shutdown() {
  for (auto& daemon : daemons_) daemon->stop();
}

}  // namespace oagrid::middleware
