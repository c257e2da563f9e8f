#include "sched/generic_chain.hpp"

#include <algorithm>

#include "sched/heuristics.hpp"

namespace oagrid::sched {

GenericChainScheduler::GenericChainScheduler(ChainWorkload workload,
                                             MoldableDuration duration,
                                             ProcCount min_group,
                                             ProcCount max_group)
    : workload_(std::move(workload)),
      duration_(std::move(duration)),
      min_group_(min_group),
      max_group_(max_group) {
  OAGRID_REQUIRE(workload_.template_dag.frozen(), "template must be frozen");
  OAGRID_REQUIRE(workload_.chains >= 1, "need at least one chain");
  OAGRID_REQUIRE(workload_.instances >= 1, "need at least one instance");
  OAGRID_REQUIRE(min_group_ >= 1 && min_group_ <= max_group_,
                 "invalid group-size range");

  const dag::Dag& tmpl = workload_.template_dag;
  const auto n = static_cast<std::size_t>(tmpl.node_count());

  // A node is tail-eligible when rigid and every descendant is too; walk the
  // reverse topological order so descendants are classified first.
  std::vector<bool> eligible(n, false);
  const auto topo = tmpl.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::NodeId v = *it;
    if (tmpl.task(v).shape == dag::TaskShape::kMoldable) continue;
    bool all_succ_ok = true;
    for (const dag::NodeId w : tmpl.successors(v))
      all_succ_ok = all_succ_ok && eligible[static_cast<std::size_t>(w)];
    eligible[static_cast<std::size_t>(v)] = all_succ_ok;
  }
  // Cross-link sources gate the next instance and must stay in the body.
  for (const auto& link : workload_.links)
    eligible[static_cast<std::size_t>(link.from_prev)] = false;
  // Re-close under "no ineligible descendant": a predecessor of a body node
  // cannot be tail.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::NodeId v = *it;
    if (!eligible[static_cast<std::size_t>(v)]) continue;
    for (const dag::NodeId w : tmpl.successors(v))
      if (!eligible[static_cast<std::size_t>(w)]) {
        eligible[static_cast<std::size_t>(v)] = false;
        break;
      }
  }

  in_tail_ = eligible;
  for (dag::NodeId v = 0; v < tmpl.node_count(); ++v)
    if (in_tail_[static_cast<std::size_t>(v)]) {
      tail_.push_back(v);
      tail_time_ += duration_(v, tmpl.task(v).procs);
    }
}

Seconds GenericChainScheduler::body_time(ProcCount g) const {
  OAGRID_REQUIRE(g >= min_group_ && g <= max_group_, "group size out of range");
  return workload_.template_dag.critical_path([&](dag::NodeId v) -> Seconds {
    if (in_tail_[static_cast<std::size_t>(v)]) return 0.0;
    const dag::TaskSpec& spec = workload_.template_dag.task(v);
    if (spec.shape == dag::TaskShape::kMoldable) {
      const ProcCount p = std::clamp(g, spec.min_procs, spec.max_procs);
      return duration_(v, p);
    }
    return duration_(v, spec.procs);
  });
}

GroupSchedule GenericChainScheduler::schedule(ProcCount resources) const {
  return knapsack_grouping(virtual_cluster("generic", resources),
                           {workload_.chains, workload_.instances});
}

platform::Cluster GenericChainScheduler::virtual_cluster(
    std::string name, ProcCount resources) const {
  std::vector<Seconds> body;
  for (ProcCount g = min_group_; g <= max_group_; ++g)
    body.push_back(body_time(g));
  return platform::Cluster(std::move(name), resources, min_group_,
                           std::move(body), tail_time_);
}

}  // namespace oagrid::sched
