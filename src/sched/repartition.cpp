#include "sched/repartition.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "obs/obs.hpp"

namespace oagrid::sched {
namespace {

void validate_inputs(std::span<const PerformanceVector> performance,
                     Count scenarios) {
  OAGRID_REQUIRE(!performance.empty(), "need at least one cluster");
  OAGRID_REQUIRE(scenarios >= 1, "need at least one scenario");
  for (const auto& vec : performance)
    OAGRID_REQUIRE(static_cast<Count>(vec.size()) >= scenarios,
                   "performance vector shorter than the scenario count");
}

/// Makespan of a distribution with an optional per-cluster placement charge
/// folded in: max over clusters of performance[c][k-1] (+ charge(c, k)).
/// The single source of truth for both repartition_makespan and the charged
/// greedy's finalization tail.
Seconds charged_makespan(std::span<const PerformanceVector> performance,
                         std::span<const Count> dags_per_cluster,
                         const PlacementCharge* charge) {
  OAGRID_REQUIRE(performance.size() == dags_per_cluster.size(),
                 "cluster count mismatch");
  Seconds worst = 0.0;
  for (std::size_t c = 0; c < performance.size(); ++c) {
    const Count k = dags_per_cluster[c];
    if (k <= 0) continue;
    OAGRID_REQUIRE(static_cast<std::size_t>(k) <= performance[c].size(),
                   "distribution exceeds performance vector length");
    Seconds load = performance[c][static_cast<std::size_t>(k) - 1];
    if (charge != nullptr) load += (*charge)(c, k);
    worst = std::max(worst, load);
  }
  return worst;
}

/// One candidate placement: cluster `cluster` receiving its next scenario
/// would drive its makespan to `value`.
struct HeapEntry {
  Seconds value;
  std::size_t cluster;
};

/// Min-heap order on (value, cluster id): the pop is the lowest candidate
/// makespan, ties to the lowest cluster id — exactly the first-argmin a
/// strict '<' scan in cluster order produces, so assignments match the
/// paper's pseudocode byte for byte.
struct HeapAfter {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
    if (a.value != b.value) return a.value > b.value;
    return a.cluster > b.cluster;
  }
};

using CandidateHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapAfter>;

/// Algorithm 1 driven by a min-heap instead of a per-scenario full-cluster
/// scan: O(NS log C) pops instead of O(NS * C) comparisons. The heap holds
/// exactly one entry per cluster, and every entry is current: only the
/// cluster that receives a scenario sees its candidate change, and its entry
/// is the one just popped, so the replacement is pushed at once (`charge`
/// is evaluated once per push, in the order the placements happen).
Repartition heap_repartition(std::span<const PerformanceVector> performance,
                             Count scenarios, const PlacementCharge* charge) {
  validate_inputs(performance, scenarios);
  const auto n = performance.size();
  Repartition result;
  result.dags_per_cluster.assign(n, 0);
  result.assignment.reserve(static_cast<std::size_t>(scenarios));

  const auto candidate_for = [&](std::size_t c) {
    const auto next = static_cast<std::size_t>(result.dags_per_cluster[c]);
    Seconds value = performance[c][next];  // makespan of next+1 dags
    if (charge != nullptr) value += (*charge)(c, static_cast<Count>(next) + 1);
    return HeapEntry{value, c};
  };

  CandidateHeap heap;
  for (std::size_t c = 0; c < n; ++c) heap.push(candidate_for(c));

  std::uint64_t pops = 0;
  for (Count dag = 0; dag < scenarios; ++dag) {
    const HeapEntry top = heap.top();
    heap.pop();
    ++pops;
    ++result.dags_per_cluster[top.cluster];
    result.assignment.push_back(static_cast<ClusterId>(top.cluster));
    // The assigned cluster's candidate is the only one that moved; its next
    // entry stays in bounds because counts never exceed the vector length
    // while scenarios remain.
    if (dag + 1 < scenarios) heap.push(candidate_for(top.cluster));
  }
  if (obs::enabled())
    obs::metrics().counter("sched.repartition.heap_pops").add(pops);
  result.makespan =
      charged_makespan(performance, result.dags_per_cluster, charge);
  return result;
}

}  // namespace

Seconds repartition_makespan(std::span<const PerformanceVector> performance,
                             std::span<const Count> dags_per_cluster) {
  return charged_makespan(performance, dags_per_cluster, nullptr);
}

Repartition greedy_repartition(std::span<const PerformanceVector> performance,
                               Count scenarios) {
  return heap_repartition(performance, scenarios, nullptr);
}

Repartition greedy_repartition_charged(
    std::span<const PerformanceVector> performance, Count scenarios,
    const PlacementCharge& charge) {
  if (!charge) return greedy_repartition(performance, scenarios);
  return heap_repartition(performance, scenarios, &charge);
}

namespace {

void enumerate(std::span<const PerformanceVector> performance,
               std::size_t cluster, Count remaining, std::vector<Count>& counts,
               Repartition& best) {
  if (cluster + 1 == performance.size()) {
    counts[cluster] = remaining;
    const Seconds ms = repartition_makespan(performance, counts);
    if (ms < best.makespan) {
      best.makespan = ms;
      best.dags_per_cluster = counts;
    }
    counts[cluster] = 0;
    return;
  }
  for (Count take = 0; take <= remaining; ++take) {
    counts[cluster] = take;
    enumerate(performance, cluster + 1, remaining - take, counts, best);
  }
  counts[cluster] = 0;
}

}  // namespace

Repartition brute_force_repartition(
    std::span<const PerformanceVector> performance, Count scenarios) {
  validate_inputs(performance, scenarios);
  Repartition best;
  best.makespan = std::numeric_limits<Seconds>::infinity();
  std::vector<Count> counts(performance.size(), 0);
  enumerate(performance, 0, scenarios, counts, best);
  // Synthesize an assignment consistent with the counts (cluster by cluster).
  best.assignment.clear();
  for (std::size_t c = 0; c < best.dags_per_cluster.size(); ++c)
    for (Count k = 0; k < best.dags_per_cluster[c]; ++k)
      best.assignment.push_back(static_cast<ClusterId>(c));
  return best;
}

bool is_locally_optimal(std::span<const PerformanceVector> performance,
                        const Repartition& repartition) {
  const Seconds base = repartition_makespan(performance,
                                            repartition.dags_per_cluster);
  std::vector<Count> counts = repartition.dags_per_cluster;
  for (std::size_t from = 0; from < counts.size(); ++from) {
    if (counts[from] == 0) continue;
    for (std::size_t to = 0; to < counts.size(); ++to) {
      if (to == from) continue;
      if (static_cast<std::size_t>(counts[to]) + 1 > performance[to].size())
        continue;  // move impossible: vector too short
      --counts[from];
      ++counts[to];
      const Seconds moved = repartition_makespan(performance, counts);
      ++counts[from];
      --counts[to];
      if (moved < base - 1e-9) return false;
    }
  }
  return true;
}

}  // namespace oagrid::sched
