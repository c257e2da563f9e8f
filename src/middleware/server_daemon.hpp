#pragma once
/// \file server_daemon.hpp
/// \brief A DIET-style Server Daemon (SeD): one per cluster, one thread.
///
/// The SeD owns its cluster description and answers two request kinds:
/// performance estimation (simulating 1..NS scenarios locally, step 2 of
/// Figure 9) and execution (step 6, here: running the discrete-event
/// simulation of its assigned share). Requests arrive through a mailbox;
/// responses go to the reply mailbox carried by each request, so multiple
/// concurrent clients are possible.

#include <atomic>
#include <thread>

#include "middleware/mailbox.hpp"
#include "middleware/messages.hpp"
#include "platform/cluster.hpp"

namespace oagrid::middleware {

class ServerDaemon {
 public:
  /// Takes ownership of the cluster description; the daemon thread starts
  /// immediately.
  ServerDaemon(ClusterId id, platform::Cluster cluster);

  /// Stops the daemon if it is still running.
  ~ServerDaemon();

  ServerDaemon(const ServerDaemon&) = delete;
  ServerDaemon& operator=(const ServerDaemon&) = delete;

  [[nodiscard]] ClusterId id() const noexcept { return id_; }
  [[nodiscard]] const platform::Cluster& cluster() const noexcept {
    return cluster_;
  }
  [[nodiscard]] Mailbox<SedRequest>& inbox() noexcept { return inbox_; }

  /// Graceful stop: closes the inbox, so the thread answers every request
  /// already queued and then ends, and joins it. Later sends are refused.
  /// Idempotent and safe against concurrent stop() calls (an atomic claims
  /// the join exactly once).
  void stop();

 private:
  void serve();
  void handle(const PerfRequest& request);
  void handle(const ExecuteRequest& request);

  ClusterId id_;
  platform::Cluster cluster_;
  Mailbox<SedRequest> inbox_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};
};

}  // namespace oagrid::middleware
