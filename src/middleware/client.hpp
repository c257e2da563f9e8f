#pragma once
/// \file client.hpp
/// \brief The campaign client: drives the full six-step protocol of the
/// paper's Figure 9 against a MasterAgent.

#include <chrono>
#include <optional>

#include "appmodel/ensemble.hpp"
#include "middleware/deployment.hpp"
#include "sched/repartition.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::middleware {

/// Outcome of one campaign submission: the same fields as the in-process
/// sim::simulate_grid, plus the daemons' step-6 reports.
struct CampaignResult : sim::GridSimResult {
  std::vector<ExecuteResponse> executions;  ///< step 6 reports, by cluster
  int deadline_misses = 0;  ///< transfers over the transfer deadline
};

/// Data-staging campaign parameters: a network model plus per-transfer
/// deadline budget (simulated seconds; kInfiniteTime = no budget). The
/// deadline is an SLO count, not a scheduler input.
struct StagingOptions {
  sim::GridNetworkOptions data;
  Seconds transfer_deadline = kInfiniteTime;
};

class Client {
 public:
  /// Works against any deployment shape — flat MasterAgent or a
  /// HierarchicalAgent tree; the protocol is identical.
  explicit Client(Deployment& agent) : agent_(agent) {}

  using StagingOptions = middleware::StagingOptions;

  /// Runs steps 1-6 synchronously through sim::run_campaign and returns
  /// the aggregated result. Throws if a daemon is down when step 1 reaches
  /// it: its agent answers for it with an empty vector. A daemon that stops
  /// between steps 3 and 5 still blocks this call, since its share is never
  /// delivered and its step-6 report never comes (submit_with_deadline
  /// drops it at the deadline). With a network attached, step 4 runs the
  /// charged Algorithm 1, inputs are staged before the execute dispatch and
  /// results ship home afterwards, in simulated time. With `faults` active,
  /// each daemon runs its share under its cluster's failure process. Without
  /// either (or with a free network) this is the paper's protocol exactly.
  [[nodiscard]] CampaignResult submit(const appmodel::Ensemble& ensemble,
                                      sched::Heuristic heuristic,
                                      const StagingOptions& staging = {},
                                      const sim::GridFaultOptions& faults = {});

  /// Fault-tolerant variant for real grids: daemons that do not answer a
  /// protocol step within `step_timeout` are dropped from the campaign (the
  /// repartition runs over the clusters that answered step 3 — a crashed
  /// SeD must not strand the whole experiment; a share whose report misses
  /// the step-6 deadline is left out of the makespan). A daemon already down
  /// at step 1 is dropped at once, without waiting out the deadline. Throws
  /// only when *no* cluster answers step 3.
  struct FaultTolerantResult {
    CampaignResult campaign;
    std::vector<ClusterId> responsive;    ///< answered every step asked
    std::vector<ClusterId> unresponsive;  ///< dropped at a deadline
  };
  [[nodiscard]] FaultTolerantResult submit_with_deadline(
      const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
      std::chrono::milliseconds step_timeout,
      const StagingOptions& staging = {},
      const sim::GridFaultOptions& faults = {});

 private:
  FaultTolerantResult run(const appmodel::Ensemble& ensemble,
                          sched::Heuristic heuristic,
                          const StagingOptions& staging,
                          const sim::GridFaultOptions& faults,
                          std::optional<std::chrono::milliseconds> timeout);

  Deployment& agent_;
  int next_request_id_ = 1;
};

}  // namespace oagrid::middleware
