#pragma once
/// \file generic_chain.hpp
/// \brief The paper's announced future work (§7): "a generic heuristic that
/// can schedule the same kind of workflow, made of independent chains of
/// identical DAGs composed of moldable tasks."
///
/// GenericChainScheduler generalizes the knapsack grouping from the fused
/// (main, post) month to an arbitrary template DAG:
///
///  1. *Tail peeling* — the maximal set of template nodes that are rigid,
///     have no moldable descendant, and do not source a cross-instance link
///     is peeled off into a pooled tail (the generalization of the paper's
///     post-processing fusion). Those tasks never gate the next instance, so
///     they can run on leftover processors.
///  2. *Body timing* — the remaining body executed by one group of g
///     processors takes the body's critical-path time with every moldable
///     node at g processors (within-group branch overlap allowed).
///  3. *Knapsack grouping* — the body table and tail duration form a
///     virtual cluster, and schedule() is knapsack_grouping on it with one
///     scenario per chain: maximize sum 1/T_body(g_i) under the resource and
///     chain-count constraints.
///
/// On the Ocean-Atmosphere fused template this reduces exactly to
/// knapsack_grouping by construction (tests assert it), and the virtual
/// cluster can be executed by the same ensemble simulator.

#include <optional>
#include <vector>

#include "dag/chain.hpp"
#include "dag/dag.hpp"
#include "platform/cluster.hpp"
#include "sched/group_schedule.hpp"
#include "sched/list_scheduler.hpp"

namespace oagrid::sched {

/// A workload of `chains` independent chains, each `instances` stampings of
/// `template_dag` linked by `links`.
struct ChainWorkload {
  dag::Dag template_dag;                   ///< frozen
  std::vector<dag::CrossLink> links;
  Count chains = 1;
  Count instances = 1;
};

class GenericChainScheduler {
 public:
  /// `duration(v, p)` gives node v's time on p processors; group sizes are
  /// searched in [min_group, max_group].
  GenericChainScheduler(ChainWorkload workload, MoldableDuration duration,
                        ProcCount min_group, ProcCount max_group);

  /// Template nodes peeled into the pooled tail (rigid, no moldable
  /// descendant, not a cross-link source).
  [[nodiscard]] const std::vector<dag::NodeId>& tail_nodes() const noexcept {
    return tail_;
  }

  /// Critical-path time of the body on a group of g processors.
  [[nodiscard]] Seconds body_time(ProcCount g) const;

  /// Sequential time of one instance's tail on one pool processor.
  [[nodiscard]] Seconds tail_time() const noexcept { return tail_time_; }

  /// knapsack_grouping on virtual_cluster(resources), with `chains`
  /// scenarios of `instances` months.
  [[nodiscard]] GroupSchedule schedule(ProcCount resources) const;

  /// Equivalent (body-table, tail-duration) cluster so the ensemble
  /// simulator can execute the generic schedule unchanged.
  [[nodiscard]] platform::Cluster virtual_cluster(std::string name,
                                                  ProcCount resources) const;

 private:
  ChainWorkload workload_;
  MoldableDuration duration_;
  ProcCount min_group_;
  ProcCount max_group_;
  std::vector<dag::NodeId> tail_;
  std::vector<bool> in_tail_;
  Seconds tail_time_ = 0.0;
};

}  // namespace oagrid::sched
