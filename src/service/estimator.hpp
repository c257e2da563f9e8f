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
};

/// Closed-form throughput estimate (no simulation).
class AnalyticEstimator final : public PerfEstimator {
 public:
  [[nodiscard]] sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) override;
};

/// Exact per-allotment discrete-event simulation, run inline; the k runs of
/// one vector share the pool inside sim::performance_vector.
class SimEstimator final : public PerfEstimator {
 public:
  [[nodiscard]] sched::PerformanceVector vector(
      const platform::Cluster& cluster, Count scenarios, Count months,
      sched::Heuristic heuristic) override;
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

 private:
  PerfEstimator& inner_;
  std::map<std::string, ClusterId> cluster_by_name_;
  fault::FailureModel model_;
  MonthIndex checkpoint_months_;
};

}  // namespace oagrid::service
