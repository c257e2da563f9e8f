#pragma once
/// \file estimator.hpp
/// \brief Performance estimation backends for the service's decisions.
///
/// Admission-time scenario placement (Algorithm 1 over the leased
/// allotments) and the shortest-remaining-makespan queue policy both need §5
/// performance vectors. Two interchangeable sources:
///  * AnalyticEstimator — closed-form steady-state throughput vectors
///    (sched::throughput_performance_vector): microseconds per query, the
///    default for a service making decisions on every admission;
///  * SimEstimator — exact discrete-event vectors (sim::performance_vector):
///    what a SeD computes for Figure 9's step 2, run inline.
///
/// Both are deterministic for fixed inputs — a requirement, since
/// recovery re-runs the decision logic and must reach identical plans.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "fault/failure.hpp"
#include "platform/cluster.hpp"
#include "platform/grid.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"

namespace oagrid::service {

class PerfEstimator {
 public:
  virtual ~PerfEstimator() = default;

  /// performance[k-1] ~ makespan of k scenarios x `months` months on
  /// `cluster` (already resized to the leased allotment), k = 1..scenarios.
  [[nodiscard]] virtual sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) = 0;

  /// True when vector() may be called from several threads concurrently
  /// (estimate_batch then fans requests over the shared thread pool).
  /// Defaults to false so stateful custom backends stay safe by default.
  [[nodiscard]] virtual bool concurrent() const noexcept { return false; }
};

/// One estimation request for estimate_batch.
struct EstimateRequest {
  platform::Cluster cluster;
  Count scenarios = 0;
  Count months = 0;
  sched::Heuristic heuristic = sched::Heuristic::kKnapsack;
};

/// Evaluates a batch of independent estimation requests, fanning them over
/// common/thread_pool's shared pool when `threads != 1` and the estimator
/// declares itself concurrent(). Results come back in request order, so any
/// downstream reduction (Algorithm 1 candidate scan, srmf minimum) stays a
/// sequential fold over a deterministic sequence — bit-identical to the
/// serial path at any thread count. `threads` caps the participating
/// threads (0 = the whole pool, 1 = serial inline).
[[nodiscard]] std::vector<sched::PerformanceVector> estimate_batch(
    PerfEstimator& estimator, const std::vector<EstimateRequest>& requests,
    std::size_t threads);

/// Closed-form throughput estimate (no simulation).
class AnalyticEstimator final : public PerfEstimator {
 public:
  [[nodiscard]] sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) override;
  [[nodiscard]] bool concurrent() const noexcept override { return true; }
};

/// Exact per-allotment discrete-event simulation, run inline. Concurrent:
/// the DES is a pure function of its inputs and the process-global eval
/// cache it warms is mutex-sharded.
class SimEstimator final : public PerfEstimator {
 public:
  [[nodiscard]] sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) override;
  [[nodiscard]] bool concurrent() const noexcept override { return true; }
};

/// Decorator folding a fault::FailureModel into any estimator's vectors:
/// each entry is inflated to its first-order expected makespan under the
/// cluster's failure process (fault::expected_makespan), and entries for a
/// permanently dead cluster become fault::kUnavailableTime — so Algorithm 1
/// places nothing there and the service degrades the tenant's lease instead
/// of deadlocking on capacity that will never compute. Clusters are matched
/// by name against the grid the model indexes, so the grid's names must be
/// distinct; unknown names pass through unchanged. Deterministic whenever
/// the inner estimator is (the inflation is closed-form), so verified
/// journal replay keeps working.
class FailureAwareEstimator final : public PerfEstimator {
 public:
  /// `inner` must outlive this estimator (not owned).
  FailureAwareEstimator(PerfEstimator& inner, const platform::Grid& grid,
                        fault::FailureModel model,
                        MonthIndex checkpoint_months = 1);

  [[nodiscard]] sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) override;

  /// The decorator adds only closed-form arithmetic; concurrency-safety is
  /// whatever the wrapped estimator provides.
  [[nodiscard]] bool concurrent() const noexcept override {
    return inner_.concurrent();
  }

 private:
  PerfEstimator& inner_;
  std::map<std::string, ClusterId> cluster_by_name_;
  fault::FailureModel model_;
  MonthIndex checkpoint_months_;
};

}  // namespace oagrid::service
