/// \file ensemble_prediction.cpp
/// \brief The paper's experiment, end to end and for real: run an ensemble
/// of coupled ocean-atmosphere scenarios with varying cloud parametrization
/// (§1-2), benchmark the pipeline on this machine (the authors' "times have
/// been obtained by performing benchmarks"), and schedule the full-scale
/// campaign with the knapsack heuristic.
///
///   $ ./ensemble_prediction [members] [months] [resources]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "climate/calibration.hpp"
#include "climate/scenario_runner.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sched/heuristics.hpp"
#include "sim/ensemble_sim.hpp"

int main(int argc, char** argv) {
  using namespace oagrid;

  const Count members = argc > 1 ? std::atoll(argv[1]) : 5;
  const int months = argc > 2 ? std::atoi(argv[2]) : 120;
  const ProcCount resources = argc > 3 ? std::atoi(argv[3]) : 32;

  // --- Part 1: the science. Run the ensemble through the real pipeline. ---
  std::cout << "Running " << members << " scenarios x " << months
            << " months through the coupled model (cloud feedback varied per "
               "member)...\n\n";
  std::vector<double> feedbacks(static_cast<std::size_t>(members));
  std::vector<double> warmings(static_cast<std::size_t>(members));
  std::vector<climate::ScenarioResult> results(
      static_cast<std::size_t>(members));
  for (Count i = 0; i < members; ++i)
    feedbacks[static_cast<std::size_t>(i)] =
        0.9 * static_cast<double>(i) /
        static_cast<double>(std::max<Count>(1, members - 1));

  shared_pool().parallel_for(0, feedbacks.size(), [&](std::size_t i) {
    climate::ScenarioConfig config;
    config.model.cloud_feedback = feedbacks[i];
    config.months = months;
    config.ghg_ramp = 0.03;  // the 21st-century ramp
    results[i] = climate::run_scenario(config);
    // Greenhouse response isolated from spin-up drift: forced minus control.
    warmings[i] = climate::warming_of(feedbacks[i], months);
  });

  TableWriter science({"member", "cloud feedback", "GHG warming [C]",
                       "final ice fraction", "diag raw [KB]", "diag comp [KB]"});
  for (Count i = 0; i < members; ++i) {
    const auto& r = results[static_cast<std::size_t>(i)];
    science.add_row(
        {std::to_string(i), fmt(feedbacks[static_cast<std::size_t>(i)], 2),
         fmt(warmings[static_cast<std::size_t>(i)], 2),
         fmt(r.states.back().ice_fraction, 3),
         std::to_string(r.raw_diag_bytes / 1024),
         std::to_string(r.compressed_diag_bytes / 1024)});
  }
  science.print(std::cout);
  std::cout << "\nWarming spread across parametrizations: "
            << fmt(*std::min_element(warmings.begin(), warmings.end()), 2)
            << " .. "
            << fmt(*std::max_element(warmings.begin(), warmings.end()), 2)
            << " C — the uncertainty the paper's campaign quantifies.\n\n";

  // --- Part 2: the scheduling. Benchmark, then plan the real campaign. ----
  std::cout << "Calibrating the pipeline on this machine (pcr at every group "
               "size, post chain; calibration-grade 96x192 grid)...\n";
  const climate::CalibrationResult calibration = climate::calibrate_pipeline(
      climate::calibration_grade_params(), 2);
  const platform::Cluster local =
      calibration.to_cluster("this-machine", resources);

  TableWriter table({"G", "measured pcr [ms]"});
  for (ProcCount g = 4; g <= 11; ++g)
    table.add_row({std::to_string(g), fmt(local.main_time(g) * 1e3, 2)});
  table.print(std::cout);
  std::cout << "post chain: " << fmt(local.post_time() * 1e3, 3) << " ms\n\n";

  const appmodel::Ensemble campaign{members, 1800};
  const sched::GroupSchedule schedule =
      sched::knapsack_grouping(local, campaign);
  const sim::SimResult planned =
      sim::simulate_ensemble(local, schedule, campaign);
  std::cout << "Knapsack plan for the full 150-year campaign on " << resources
            << " processors: " << schedule.describe() << "\n";
  std::cout << "Predicted campaign makespan: " << fmt_duration(planned.makespan)
            << " (" << fmt(planned.makespan, 1) << " s of this machine's "
            << "time at the toy resolution)\n";
  return 0;
}
