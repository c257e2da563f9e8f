#include "knapsack/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace oagrid::knapsack {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Relative-epsilon comparison for objective values: 1/T sums are sums of a
/// handful of doubles, so 1e-9 relative slack cleanly separates genuine ties
/// from rounding noise.
bool value_strictly_greater(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return a > b + 1e-9 * scale;
}

bool value_equal(double a, double b) {
  return !value_strictly_greater(a, b) && !value_strictly_greater(b, a);
}

Solution make_solution(const Problem& problem, std::vector<Count> counts) {
  Solution s;
  s.counts = std::move(counts);
  for (std::size_t i = 0; i < problem.items.size(); ++i) {
    s.value += static_cast<double>(s.counts[i]) * problem.items[i].value;
    s.weight_used += static_cast<int>(s.counts[i]) * problem.items[i].weight;
    s.items_used += s.counts[i];
  }
  return s;
}

}  // namespace

void validate(const Problem& problem) {
  OAGRID_REQUIRE(!problem.items.empty(), "knapsack needs at least one item kind");
  for (const Item& item : problem.items) {
    OAGRID_REQUIRE(item.weight > 0, "item weights must be positive");
    OAGRID_REQUIRE(item.value >= 0.0, "item values must be >= 0");
  }
  OAGRID_REQUIRE(problem.capacity >= 0, "capacity must be >= 0");
  OAGRID_REQUIRE(problem.max_items >= 0, "cardinality cap must be >= 0");
}

bool is_feasible(const Problem& problem, const Solution& solution) {
  if (solution.counts.size() != problem.items.size()) return false;
  double value = 0.0;
  long long weight = 0;
  Count items = 0;
  for (std::size_t i = 0; i < problem.items.size(); ++i) {
    if (solution.counts[i] < 0) return false;
    value += static_cast<double>(solution.counts[i]) * problem.items[i].value;
    weight += solution.counts[i] * problem.items[i].weight;
    items += solution.counts[i];
  }
  return weight <= problem.capacity && items <= problem.max_items &&
         weight == solution.weight_used && items == solution.items_used &&
         value_equal(value, solution.value);
}

bool better_solution(const Solution& a, const Solution& b) {
  if (value_strictly_greater(a.value, b.value)) return true;
  if (value_strictly_greater(b.value, a.value)) return false;
  if (a.weight_used != b.weight_used) return a.weight_used < b.weight_used;
  return a.items_used < b.items_used;
}

namespace {

/// One terminal DP state, tracked with the documented tie-break scan order
/// (value desc via strict improvement, then smallest k, then smallest w —
/// which realizes "fewer processors, then fewer groups" on this table).
struct BestState {
  double value = 0.0;
  std::size_t k = 0;
  std::size_t w = 0;
};

/// The DP sweep shared by solve_dp and solve_dp_family.
///
/// dp[k*(cap+1) + w] = best value using exactly k items of total weight
/// exactly w; choice is the item index of the last item added to reach that
/// state (-1 = unreached). Both tables are single contiguous arenas with row
/// stride cap+1: the sweep touches two adjacent rows linearly instead of
/// chasing per-row heap blocks. Only two value rows are live at a time
/// (row k reads only row k-1), so `dp` holds 2 rows while `choice` — needed
/// later for backtracking — keeps all of them.
///
/// The item relaxation runs item-outer / weight-inner: for each item the
/// inner loop is a branch-light linear pass `cand = prev[w-wi] + vi; if
/// (cand > row[w]) update`, which auto-vectorizes and needs no kNegInf
/// test (-inf + vi stays -inf and never wins a strict comparison). The pass
/// is clipped to the reachable-weight frontier — row k-1 only holds finite
/// values in [(k-1)*min_w, (k-1)*max_w] — so dead cells are skipped rather
/// than relaxed. Cell update order per (k, w) is item-ascending with strict
/// `>`, exactly the historical nested-loop order, so values, choices and
/// tie-breaks are bit-identical to the textbook formulation.
///
/// `best_after_row[r]` is the best terminal state over rows 0..r under the
/// tie-break scan; solve_dp reads the last entry, solve_dp_family reads one
/// entry per cardinality cap.
struct DpSweep {
  std::size_t k_max = 0;
  std::size_t stride = 0;               ///< cap + 1
  std::vector<std::int16_t> choice;     ///< (k_max+1) x stride arena
  std::vector<BestState> best_after_row;

  [[nodiscard]] Solution extract(const Problem& problem,
                                 const BestState& best) const {
    std::vector<Count> counts(problem.items.size(), 0);
    for (std::size_t k = best.k, w = best.w; k > 0;) {
      const std::int16_t i = choice[k * stride + w];
      ++counts[static_cast<std::size_t>(i)];
      w -= static_cast<std::size_t>(
          problem.items[static_cast<std::size_t>(i)].weight);
      --k;
    }
    return make_solution(problem, std::move(counts));
  }
};

DpSweep run_dp_sweep(const Problem& problem) {
  validate(problem);
  OAGRID_REQUIRE(
      problem.items.size() <=
          static_cast<std::size_t>(std::numeric_limits<std::int16_t>::max()),
      "too many item kinds for the int16 choice arena");
  const auto n_items = problem.items.size();
  const auto cap = static_cast<std::size_t>(problem.capacity);
  // The cardinality axis never needs to exceed capacity / min weight.
  int min_weight = std::numeric_limits<int>::max();
  int max_weight = 0;
  for (const Item& item : problem.items) {
    min_weight = std::min(min_weight, item.weight);
    max_weight = std::max(max_weight, item.weight);
  }
  const auto k_max = static_cast<std::size_t>(std::min<long long>(
      problem.max_items, problem.capacity / std::max(min_weight, 1)));

  DpSweep sweep;
  sweep.k_max = k_max;
  sweep.stride = cap + 1;
  sweep.choice.assign((k_max + 1) * sweep.stride, std::int16_t{-1});
  sweep.best_after_row.reserve(k_max + 1);

  // Two-row value arena: `prev` = row k-1, `cur` = row k.
  std::vector<double> values(2 * sweep.stride, kNegInf);
  double* prev = values.data();
  double* cur = values.data() + sweep.stride;
  prev[0] = 0.0;

  BestState best;  // row 0: dp[0][0] = 0.0 never strictly beats the 0.0 seed
  sweep.best_after_row.push_back(best);

  for (std::size_t k = 1; k <= k_max; ++k) {
    // Reachable frontier of row k-1: finite cells live only where k-1 items
    // can land, so the relaxation of item i needs w in [prev_lo+wi,
    // min(cap, prev_hi+wi)] — everything else keeps kNegInf untouched.
    const std::size_t prev_lo = (k - 1) * static_cast<std::size_t>(min_weight);
    const std::size_t prev_hi = std::min(
        cap, (k - 1) * static_cast<std::size_t>(max_weight));
    std::fill(cur, cur + sweep.stride, kNegInf);
    std::int16_t* crow = sweep.choice.data() + k * sweep.stride;
    for (std::size_t i = 0; i < n_items; ++i) {
      const auto wi = static_cast<std::size_t>(problem.items[i].weight);
      if (prev_lo + wi > cap) continue;  // every target cell is off the table
      const double vi = problem.items[i].value;
      const std::size_t w_hi = std::min(cap, prev_hi + wi);
      const auto item = static_cast<std::int16_t>(i);
      for (std::size_t w = prev_lo + wi; w <= w_hi; ++w) {
        const double candidate = prev[w - wi] + vi;
        if (candidate > cur[w]) {
          cur[w] = candidate;
          crow[w] = item;
        }
      }
    }
    // Fold row k into the running best, preserving the historical full-table
    // scan order ((k, w) ascending, strict improvement only).
    const std::size_t lo = k * static_cast<std::size_t>(min_weight);
    const std::size_t hi = std::min(cap, k * static_cast<std::size_t>(max_weight));
    for (std::size_t w = lo; w <= hi; ++w)
      if (cur[w] != kNegInf && value_strictly_greater(cur[w], best.value))
        best = BestState{cur[w], k, w};
    sweep.best_after_row.push_back(best);
    std::swap(prev, cur);
  }
  return sweep;
}

}  // namespace

Solution solve_dp(const Problem& problem) {
  const DpSweep sweep = run_dp_sweep(problem);
  return sweep.extract(problem, sweep.best_after_row.back());
}

std::vector<Solution> solve_dp_family(const Problem& problem) {
  const DpSweep sweep = run_dp_sweep(problem);
  std::vector<Solution> family;
  family.reserve(static_cast<std::size_t>(problem.max_items));
  std::size_t last_k = 0, last_w = 0;
  for (Count k = 1; k <= problem.max_items; ++k) {
    // The sub-problem capped at k scans rows 0..min(k, k_max); its answer is
    // the prefix best after that row.
    const std::size_t row = std::min(static_cast<std::size_t>(k), sweep.k_max);
    const BestState& best = sweep.best_after_row[row];
    // Raising the cap often leaves the winning state unchanged (and always
    // does once the cap stops binding): reuse the previous extraction
    // instead of re-backtracking the identical state.
    if (!family.empty() && best.k == last_k && best.w == last_w) {
      family.push_back(family.back());
      continue;
    }
    last_k = best.k;
    last_w = best.w;
    family.push_back(sweep.extract(problem, best));
  }
  return family;
}

namespace {

void exhaustive_recurse(const Problem& p, std::size_t item, int cap_left,
                        Count items_left, std::vector<Count>& counts,
                        Solution& best) {
  if (item == p.items.size()) {
    Solution candidate = make_solution(p, counts);
    if (better_solution(candidate, best)) best = std::move(candidate);
    return;
  }
  const int w = p.items[item].weight;
  const Count max_count =
      std::min<Count>(items_left, static_cast<Count>(cap_left / w));
  for (Count c = 0; c <= max_count; ++c) {
    counts[item] = c;
    exhaustive_recurse(p, item + 1, cap_left - static_cast<int>(c) * w,
                       items_left - c, counts, best);
  }
  counts[item] = 0;
}

}  // namespace

Solution solve_exhaustive(const Problem& problem) {
  validate(problem);
  std::vector<Count> counts(problem.items.size(), 0);
  Solution best = make_solution(problem, counts);
  exhaustive_recurse(problem, 0, problem.capacity, problem.max_items, counts,
                     best);
  return best;
}

}  // namespace oagrid::knapsack
