#pragma once
/// \file knapsack.hpp
/// \brief Unbounded knapsack with a cardinality constraint — the exact
/// optimization form of the paper's Improvement 3 (§4.2).
///
/// The paper phrases the grouping choice as: items are group sizes i in
/// [4, 11] with cost i (processors) and value 1/T[i] (fraction of a main task
/// completed per second by such a group); choose item multiplicities n_i
/// maximizing total value subject to  sum_i i*n_i <= R  and  sum_i n_i <= NS
/// (never more groups than runnable scenarios).
///
/// Two solvers share one Problem/Solution vocabulary:
///  * solve_dp         — O(items * capacity * max_items) dynamic program,
///                       the production solver (solve_dp_family extracts
///                       every cardinality cap from one sweep);
///  * solve_exhaustive — full enumeration, exponential, the test oracle
///                       solve_dp is checked against.
///
/// Ties on value are broken toward fewer processors used, then fewer groups,
/// then lexicographically-largest count vector, so both solvers agree exactly
/// and results are deterministic.

#include <span>
#include <vector>

#include "common/types.hpp"

namespace oagrid::knapsack {

/// One selectable item kind.
struct Item {
  int weight = 0;      ///< processors consumed by one instance (must be > 0)
  double value = 0.0;  ///< objective contribution of one instance (>= 0)
};

/// Problem instance.
struct Problem {
  std::vector<Item> items;
  int capacity = 0;        ///< total processors R
  Count max_items = 0;     ///< cardinality cap (the paper's NS)
};

/// Solver result: multiplicity per item plus the aggregates.
struct Solution {
  std::vector<Count> counts;  ///< one entry per Problem::items entry
  double value = 0.0;
  int weight_used = 0;
  Count items_used = 0;
};

/// Validates an instance; throws std::invalid_argument on nonpositive
/// weights, negative values, negative capacity or cap.
void validate(const Problem& problem);

/// Recomputes a solution's aggregates from its counts and checks feasibility
/// against the instance. Used by tests and by solver postconditions.
[[nodiscard]] bool is_feasible(const Problem& problem, const Solution& solution);

/// Exact dynamic program (production solver). The sweep runs over flat
/// contiguous arenas (row stride capacity+1) with the item relaxation as a
/// branch-light linear pass per row, restricted to the reachable-weight
/// frontier [k*min_weight, k*max_weight] — identical results to the textbook
/// nested-table formulation, tie-breaks included.
[[nodiscard]] Solution solve_dp(const Problem& problem);

/// Single-pass family solve: the optimal solution for *every* cardinality
/// cap k = 1..max_items, extracted from one DP sweep. The dp table is
/// indexed by exact item count, so the answer under cap k is the best
/// terminal state over rows 0..k — a prefix scan, not a new solve. Exact,
/// not a heuristic: result[k-1] is bit-identical (counts, value, weight,
/// tie-breaks) to solve_dp on the same problem with max_items = k. One
/// family call replaces max_items independent solve_dp calls; §5 performance
/// vectors are built this way.
[[nodiscard]] std::vector<Solution> solve_dp_family(const Problem& problem);

/// Exhaustive enumeration (oracle; exponential — keep instances small).
[[nodiscard]] Solution solve_exhaustive(const Problem& problem);

/// Three-way comparison implementing the tie-break policy documented above.
/// Returns true when `a` is strictly better than `b` for the same instance.
[[nodiscard]] bool better_solution(const Solution& a, const Solution& b);

}  // namespace oagrid::knapsack
