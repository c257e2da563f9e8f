#pragma once
/// \file deployment.hpp
/// \brief The client-facing middleware interface.
///
/// DIET deployments range from one flat Master Agent to a tree of Local
/// Agents; the client's Figure 9 protocol is identical against either, so it
/// programs against this interface. MasterAgent (flat fleet) and
/// HierarchicalAgent (LA tree) both implement it.

#include "middleware/mailbox.hpp"
#include "middleware/messages.hpp"

namespace oagrid::middleware {

/// What a Deployment does with a step-1 request it cannot deliver to daemon
/// `id` (the daemon is stopped): it answers for the daemon with an empty
/// performance vector, which run_campaign reads as "did not answer".
inline void answer_unreachable(const PerfRequest& request, ClusterId id) {
  if (request.reply)
    request.reply->send(SedResponse{PerfResponse{request.request_id, id, {}}});
}

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Number of server daemons reachable through this deployment.
  [[nodiscard]] virtual int daemon_count() const = 0;

  /// Step (1): fan the performance request out to every daemon; responses
  /// arrive at `request.reply`, one per daemon (answer_unreachable's for a
  /// stopped one). Returns the number of daemons contacted.
  virtual int broadcast_perf_request(const PerfRequest& request) = 0;

  /// Step (5): deliver one execution request to the daemon serving cluster
  /// `id`. Throws on an unknown id.
  virtual void send_execute(ClusterId id, const ExecuteRequest& request) = 0;
};

}  // namespace oagrid::middleware
