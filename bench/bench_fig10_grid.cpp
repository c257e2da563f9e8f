/// \file bench_fig10_grid.cpp
/// \brief Regenerates Figure 10: gains of the three improved heuristics on a
/// heterogeneous grid with Algorithm-1 repartition, for 2..5 clusters of
/// 11..99 resources each. The x axis uses the paper's encoding: "2.25" means
/// two clusters with 25 resources each.
///
/// Expected shape (paper §6): best gains near 12%, common gains 0-8%, stable
/// zero-gain phases where the slowest cluster dominates, and gains shrinking
/// as clusters are added.

#include <iostream>

#include "bench_util.hpp"
#include "common/ascii_chart.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "platform/profiles.hpp"
#include "sim/grid_sim.hpp"

int main() {
  using namespace oagrid;
  bench::banner("Figure 10 (gains with DAG repartition on 2-5 clusters)",
                "x = clusters + resources/100 (paper encoding), NS = 10, NM = 60");

  const appmodel::Ensemble ensemble{10, 60};
  const sched::Heuristic improved[] = {sched::Heuristic::kRedistribute,
                                       sched::Heuristic::kAllForMain,
                                       sched::Heuristic::kKnapsack};

  struct Cell {
    int clusters;
    ProcCount resources;
    double x;
    double gain[3];
  };
  std::vector<Cell> cells;
  for (int n = 2; n <= 5; ++n)
    for (ProcCount r = 11; r <= 99; r += 8)
      cells.push_back(Cell{n, r, n + r / 100.0, {0, 0, 0}});

  shared_pool().parallel_for(0, cells.size(), [&](std::size_t i) {
    Cell& cell = cells[i];
    const auto grid =
        platform::make_builtin_grid(cell.resources).prefix(cell.clusters);
    const Seconds basic =
        sim::simulate_grid(grid, ensemble, sched::Heuristic::kBasic).makespan;
    for (int h = 0; h < 3; ++h) {
      const Seconds ms =
          sim::simulate_grid(grid, ensemble,
                             improved[static_cast<std::size_t>(h)])
              .makespan;
      cell.gain[h] = bench::gain_percent(basic, ms);
    }
  });

  TableWriter table({"x (c.rr)", "clusters", "R/cluster", "gain1 %", "gain2 %",
                     "gain3 %"});
  ChartSeries s1{"gain1 (redistribute)", '1', {}, {}};
  ChartSeries s2{"gain2 (all-for-main)", '2', {}, {}};
  ChartSeries s3{"gain3 (knapsack)", '3', {}, {}};
  double best = 0;
  int zero_phase = 0;
  for (const Cell& cell : cells) {
    table.add_row({fmt(cell.x, 2), std::to_string(cell.clusters),
                   std::to_string(cell.resources), fmt(cell.gain[0], 2),
                   fmt(cell.gain[1], 2), fmt(cell.gain[2], 2)});
    s1.xs.push_back(cell.x);
    s1.ys.push_back(cell.gain[0]);
    s2.xs.push_back(cell.x);
    s2.ys.push_back(cell.gain[1]);
    s3.xs.push_back(cell.x);
    s3.ys.push_back(cell.gain[2]);
    best = std::max({best, cell.gain[0], cell.gain[1], cell.gain[2]});
    if (std::abs(cell.gain[2]) < 0.25) ++zero_phase;
  }
  table.print(std::cout);

  std::cout << "\nFigure 10 shape (y = gain %, x = clusters + R/100):\n";
  AsciiChart chart(110, 14);
  chart.set_y_range(-3.0, 14.0);
  chart.add_series(s1);
  chart.add_series(s2);
  chart.add_series(s3);
  std::cout << chart.render();

  std::cout << "\nBest gain: " << fmt(best, 1)
            << "% (paper: almost 12%); zero-gain cells (slowest-cluster-bound "
               "stable phases): "
            << zero_phase << " of " << cells.size() << "\n";
  return 0;
}
