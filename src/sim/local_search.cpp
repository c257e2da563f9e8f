#include "sim/local_search.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "sched/heuristics.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/eval_cache.hpp"

namespace oagrid::sim {
namespace {

using Sizes = std::vector<ProcCount>;

/// FNV-1a over the size multiset — the search-local memo is on the hot path
/// and a flat hash probe beats std::map's pointer chase per lookup.
struct SizesHash {
  std::size_t operator()(const Sizes& sizes) const noexcept {
    Fnv1a h;
    for (const ProcCount s : sizes) h.i64(s);
    return static_cast<std::size_t>(h.state);
  }
};

Sizes canonical(Sizes sizes) {
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  return sizes;
}

/// All neighbors of a multiset under the six moves, canonicalized and
/// deduplicated. Feasibility (resource budget, group bounds, cardinality) is
/// enforced here.
std::vector<Sizes> neighbors(const Sizes& sizes, const platform::Cluster& cluster,
                             Count max_groups) {
  std::vector<Sizes> out;
  // Upper bound on generated candidates: four single-group moves plus two
  // pairwise moves per (i, j); reserving it up-front keeps the generation
  // loop free of vector regrowth.
  out.reserve(sizes.size() * (2 * sizes.size() + 2) + 1);
  const ProcCount used =
      std::accumulate(sizes.begin(), sizes.end(), ProcCount{0});
  const ProcCount spare = cluster.resources() - used;
  const ProcCount lo = cluster.min_group();
  const ProcCount hi = cluster.max_group();

  auto push = [&](Sizes candidate) {
    if (candidate.empty()) return;
    out.push_back(canonical(std::move(candidate)));
  };

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    // Grow / shrink group i.
    if (sizes[i] < hi && spare >= 1) {
      Sizes c = sizes;
      ++c[i];
      push(std::move(c));
    }
    if (sizes[i] > lo) {
      Sizes c = sizes;
      --c[i];
      push(std::move(c));
    }
    // Split group i into two admissible halves.
    if (sizes[i] >= 2 * lo &&
        static_cast<Count>(sizes.size()) + 1 <= max_groups) {
      const ProcCount a = sizes[i] / 2;
      const ProcCount b = sizes[i] - a;
      if (a >= lo && b >= lo && a <= hi && b <= hi) {
        Sizes c = sizes;
        c[i] = a;
        c.push_back(b);
        push(std::move(c));
      }
    }
    // Remove group i (its processors go back to the pool).
    if (sizes.size() > 1) {
      Sizes c = sizes;
      c.erase(c.begin() + static_cast<long>(i));
      push(std::move(c));
    }
    // Merge groups i and j, and transfer one processor between them (the
    // composite of shrink+grow — needed because the intermediate single
    // moves often sit in a valley).
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      if (j == i) continue;
      if (j > i && sizes[i] + sizes[j] <= hi) {
        Sizes c = sizes;
        c[i] = sizes[i] + sizes[j];
        c.erase(c.begin() + static_cast<long>(j));
        push(std::move(c));
      }
      if (sizes[i] > lo && sizes[j] < hi) {
        Sizes c = sizes;
        --c[i];
        ++c[j];
        push(std::move(c));
      }
    }
  }
  // Add a fresh minimal group from the pool.
  if (spare >= lo && static_cast<Count>(sizes.size()) + 1 <= max_groups) {
    Sizes c = sizes;
    c.push_back(lo);
    push(std::move(c));
  }

  // Dedup keeps the sorted order the hill climb's first-min tie-break relies
  // on; candidate ordering (hence the search trajectory) must not depend on
  // move generation order.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

LocalSearchResult local_search_grouping(const platform::Cluster& cluster,
                                        const appmodel::Ensemble& ensemble,
                                        const LocalSearchOptions& options) {
  ensemble.validate();
  OAGRID_REQUIRE(options.max_accepted_moves >= 0, "negative move budget");

  auto schedule_for = [&](const Sizes& sizes) {
    sched::GroupSchedule schedule;
    schedule.group_sizes = sizes;
    schedule.post_pool =
        cluster.resources() -
        std::accumulate(sizes.begin(), sizes.end(), ProcCount{0});
    schedule.post_policy = sched::PostPolicy::kPoolThenRetired;
    return schedule;
  };
  // Thread-safe: hits the process-wide eval cache, simulates on a miss.
  auto simulate = [&](const Sizes& sizes) -> Seconds {
    return cached_makespan(cluster, schedule_for(sizes), ensemble);
  };

  // The search-local memo (not the global cache) drives the evaluation
  // budget: a candidate costs budget the first time *this search* meets it,
  // whether or not some earlier search already memoized it globally. That
  // keeps trajectories and results bit-identical between cold- and
  // warm-cache runs.
  std::unordered_map<Sizes, Seconds, SizesHash> memo;
  LocalSearchResult result;
  auto evaluate = [&](const Sizes& sizes) -> Seconds {
    const auto it = memo.find(sizes);
    if (it != memo.end()) return it->second;
    const Seconds makespan = simulate(sizes);
    ++result.evaluations;
    memo.emplace(sizes, makespan);
    return makespan;
  };

  // Starting points: the knapsack solution with cardinality capped at every
  // k in [1, NS], all from one DP sweep and already in canonical order
  // (deduplicated — caps beyond the natural group count repeat).
  std::vector<Sizes> starts;
  starts.reserve(static_cast<std::size_t>(ensemble.scenarios));
  for (sched::GroupSchedule& start :
       sched::knapsack_grouping_family(cluster, ensemble))
    starts.push_back(std::move(start.group_sizes));
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  ThreadPool& pool = shared_pool();
  std::vector<const Sizes*> examined;
  std::vector<const Sizes*> to_eval;
  std::vector<Seconds> fresh;

  Sizes global_best;
  Seconds global_makespan = kInfiniteTime;
  for (const Sizes& start : starts) {
    Sizes current = start;
    Seconds current_makespan = evaluate(current);
    for (int step = 0; step < options.max_accepted_moves; ++step) {
      const std::vector<Sizes> candidates =
          neighbors(current, cluster, ensemble.scenarios);

      // Walk the (deterministically ordered) candidate list, charging the
      // budget exactly as the serial scan would: a candidate already in the
      // memo is free; a fresh one costs one evaluation; the walk stops the
      // moment the budget would be exceeded — even for memoized candidates,
      // matching the serial break-before-evaluate.
      examined.clear();
      to_eval.clear();
      for (const Sizes& candidate : candidates) {
        if (result.evaluations + to_eval.size() >= options.max_evaluations)
          break;
        examined.push_back(&candidate);
        if (memo.find(candidate) == memo.end()) to_eval.push_back(&candidate);
      }

      // Fresh candidates are independent deterministic simulations, so they
      // can run on any number of threads without affecting the values.
      fresh.assign(to_eval.size(), 0.0);
      pool.parallel_for(
          0, to_eval.size(),
          [&](std::size_t i) { fresh[i] = simulate(*to_eval[i]); },
          options.threads);
      for (std::size_t i = 0; i < to_eval.size(); ++i)
        memo.emplace(*to_eval[i], fresh[i]);
      result.evaluations += to_eval.size();

      // Sequential first-min reduction in candidate order: the accepted move
      // is bit-identical to the serial algorithm at any thread count.
      Sizes best_neighbor;
      Seconds best_makespan = current_makespan;
      for (const Sizes* candidate : examined) {
        const Seconds makespan = memo.find(*candidate)->second;
        if (makespan < best_makespan - 1e-9) {
          best_makespan = makespan;
          best_neighbor = *candidate;
        }
      }
      if (best_neighbor.empty()) break;  // local optimum (or budget dry)
      current = std::move(best_neighbor);
      current_makespan = best_makespan;
      ++result.accepted_moves;
    }
    if (current_makespan < global_makespan) {
      global_makespan = current_makespan;
      global_best = current;
    }
    if (result.evaluations >= options.max_evaluations) break;
  }

  result.best = schedule_for(global_best);
  result.makespan = global_makespan;
  return result;
}

}  // namespace oagrid::sim
