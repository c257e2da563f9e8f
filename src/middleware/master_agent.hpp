#pragma once
/// \file master_agent.hpp
/// \brief DIET-style Master Agent: the directory through which clients reach
/// server daemons.
///
/// In DIET the Master Agent routes requests and aggregates server responses;
/// here it owns the SeD fleet, fans requests out to every daemon and is the
/// single place that knows how many responses to await.

#include <memory>
#include <vector>

#include "middleware/deployment.hpp"
#include "middleware/server_daemon.hpp"
#include "platform/grid.hpp"

namespace oagrid::middleware {

class MasterAgent final : public Deployment {
 public:
  /// Boots one SeD per cluster of the grid.
  explicit MasterAgent(const platform::Grid& grid);

  [[nodiscard]] int daemon_count() const noexcept override {
    return static_cast<int>(daemons_.size());
  }
  [[nodiscard]] ServerDaemon& daemon(ClusterId id);

  /// Step (1): broadcast a performance request; responses arrive at `reply`,
  /// answered on a stopped daemon's behalf. Returns the number of daemons.
  int broadcast_perf_request(const PerfRequest& request) override;

  /// Step (5): send one execution request to one daemon.
  void send_execute(ClusterId id, const ExecuteRequest& request) override;

  /// Stops every daemon (also done on destruction).
  void shutdown();

 private:
  std::vector<std::unique_ptr<ServerDaemon>> daemons_;
};

}  // namespace oagrid::middleware
