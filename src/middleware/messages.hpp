#pragma once
/// \file messages.hpp
/// \brief Typed messages of the Figure 9 protocol.
///
/// Step numbering follows the paper: (1) client sends NS and NM to the
/// clusters; (2) each cluster computes its performance vector; (3) vectors
/// return to the client; (4) the client computes the repartition; (5) the
/// client sends execution requests; (6) clusters execute their share.

#include <memory>
#include <variant>

#include "common/types.hpp"
#include "fault/failure.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::middleware {

template <typename T>
class Mailbox;

/// Step (3) payload.
struct PerfResponse {
  int request_id = 0;
  ClusterId cluster = 0;
  sched::PerformanceVector performance;
};

/// Step (6) completion report.
struct ExecuteResponse {
  int request_id = 0;
  ClusterId cluster = 0;
  Seconds makespan = 0.0;
  /// Busy fraction of the allocated processor-seconds (see SimResult).
  double group_utilization = 0.0;
  /// Lost-work accounting of a failure-injected run; zeros otherwise.
  fault::FaultStats fault;
};

using SedResponse = std::variant<PerfResponse, ExecuteResponse>;

/// Where a daemon answers. Shared: a daemon dropped at a client deadline may
/// answer after the client returned, into a mailbox that must still live.
using ReplyChannel = std::shared_ptr<Mailbox<SedResponse>>;

/// Step (1) request: "compute the time needed to execute from 1 to NS
/// simulations".
struct PerfRequest {
  int request_id = 0;
  Count scenarios = 0;  ///< NS
  Count months = 0;     ///< NM
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;
  ReplyChannel reply;
};

/// Step (5) request: execute `scenarios` simulations. Everything travels by
/// value for the same reason as the reply channel: the daemon may outlive
/// the client's wait.
struct ExecuteRequest {
  int request_id = 0;
  Count scenarios = 0;
  Count months = 0;
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;
  ReplyChannel reply;
  /// Failures injected into the run (inactive by default).
  sim::GridFaultOptions fault;
  /// Price of re-staging one migrated scenario on this cluster.
  Seconds migrate_staging = 0.0;
};

/// A daemon stops when its inbox closes, after answering what was queued.
using SedRequest = std::variant<PerfRequest, ExecuteRequest>;

}  // namespace oagrid::middleware
