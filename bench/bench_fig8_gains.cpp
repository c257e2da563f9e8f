/// \file bench_fig8_gains.cpp
/// \brief Regenerates Figure 8: makespan gains (%) of the three improved
/// heuristics over the basic one, for R in [20, 120], averaged over the five
/// cluster profiles (mean and standard deviation per resource count — the
/// paper's error bars).
///
/// Expected shape (paper §4.3): the knapsack (gain 3) dominates at low R,
/// gains shrink as R grows and reach zero once R affords NS groups of 11;
/// gain 2 dips slightly negative at high R.

#include <iostream>

#include "bench_util.hpp"
#include "common/ascii_chart.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "platform/profiles.hpp"
#include "sim/ensemble_sim.hpp"

int main() {
  using namespace oagrid;
  bench::banner(
      "Figure 8 (gains of Improvements 1-3 vs the basic heuristic)",
      "R in [20, 120], NS = 10, NM = 150; mean +- stddev over 5 cluster profiles");

  const appmodel::Ensemble ensemble{10, 150};
  const sched::Heuristic improved[] = {sched::Heuristic::kRedistribute,
                                       sched::Heuristic::kAllForMain,
                                       sched::Heuristic::kKnapsack};

  std::vector<ProcCount> rs;
  for (ProcCount r = 20; r <= 120; r += 2) rs.push_back(r);

  // gains[h][cell] = RunningStats over the 5 profiles.
  std::vector<std::vector<RunningStats>> gains(
      3, std::vector<RunningStats>(rs.size()));

  shared_pool().parallel_for(0, rs.size(), [&](std::size_t cell) {
    const ProcCount r = rs[cell];
    for (int profile = 0; profile < 5; ++profile) {
      const auto cluster = platform::make_builtin_cluster(profile, r);
      const Seconds basic =
          sim::simulate_with_heuristic(cluster, sched::Heuristic::kBasic,
                                       ensemble)
              .makespan;
      for (int h = 0; h < 3; ++h) {
        const Seconds ms =
            sim::simulate_with_heuristic(cluster, improved[static_cast<std::size_t>(h)],
                                         ensemble)
                .makespan;
        gains[static_cast<std::size_t>(h)][cell].add(
            bench::gain_percent(basic, ms));
      }
    }
  });

  const char* names[] = {"Gain 1 (redistribute)", "Gain 2 (all-for-main)",
                         "Gain 3 (knapsack)"};
  for (int h = 0; h < 3; ++h) {
    std::cout << names[h] << " vs resources:\n";
    TableWriter table({"R", "mean gain %", "stddev", "min", "max"});
    ChartSeries mean_series{names[h], static_cast<char>('1' + h), {}, {}};
    for (std::size_t cell = 0; cell < rs.size(); ++cell) {
      const Summary s = gains[static_cast<std::size_t>(h)][cell].summary();
      mean_series.xs.push_back(rs[cell]);
      mean_series.ys.push_back(s.mean);
      // Print a regular sample plus every cell where something happened, so
      // the table does not hide the spikes between sampled rows.
      if (rs[cell] % 8 == 0 || cell + 1 == rs.size() ||
          std::abs(s.mean) > 0.25)
        table.add_row({std::to_string(rs[cell]), fmt(s.mean, 2),
                       fmt(s.stddev, 2), fmt(s.min, 2), fmt(s.max, 2)});
    }
    table.print(std::cout);
    AsciiChart chart(100, 12);
    chart.set_y_range(-3.0, 15.0);
    chart.add_series(mean_series);
    std::cout << chart.render() << "\n";
  }

  // Aggregate headline matching the paper's abstract ("up to 12%").
  double best_gain = 0;
  ProcCount best_r = 0;
  for (std::size_t cell = 0; cell < rs.size(); ++cell) {
    const double g = gains[2][cell].max();
    if (g > best_gain) {
      best_gain = g;
      best_r = rs[cell];
    }
  }
  std::cout << "Best knapsack gain observed: " << fmt(best_gain, 1) << "% at R="
            << best_r << " (paper reports gains up to ~12%)\n";
  return 0;
}
