/// \file bench_pipeline_volumes.cpp
/// \brief Regenerates the paper's §2 data claims from the real pipeline:
/// per-task roles, restart-exchange volume ("reaches 120 MB" on the real
/// model; scaled on the toy grid) and the compression step's effect ("the
/// volume of model diagnostic files is drastically reduced").

#include <iostream>

#include "bench_util.hpp"
#include "climate/calibration.hpp"
#include "climate/compress.hpp"
#include "climate/restart.hpp"
#include "climate/scenario_runner.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

int main() {
  using namespace oagrid;
  bench::banner("§2 data volumes + pipeline calibration",
                "Restart size, diagnostic compression, measured task times");

  // Volumes at several grid resolutions (the real model's ~120 MB restart
  // corresponds to a much finer grid; the scaling is what matters).
  TableWriter volumes({"grid", "restart [KB]", "raw diag/month [KB]",
                       "compressed [KB]", "ratio"});
  for (const auto& [nlat, nlon] : {std::pair{12, 24}, std::pair{24, 48},
                                   std::pair{48, 96}}) {
    climate::ModelParams params;
    params.nlat = nlat;
    params.nlon = nlon;
    params.substeps = 60;  // keep diffusion stable at the finest grid
    climate::ScenarioConfig config;
    config.model = params;
    config.months = 3;
    const climate::ScenarioResult r = climate::run_scenario(config);
    const double raw_per_month =
        static_cast<double>(r.raw_diag_bytes) / config.months;
    const double comp_per_month =
        static_cast<double>(r.compressed_diag_bytes) / config.months;
    volumes.add_row({std::to_string(nlat) + "x" + std::to_string(nlon),
                     fmt(static_cast<double>(r.restart_bytes_per_month) / 1024, 1),
                     fmt(raw_per_month / 1024, 1), fmt(comp_per_month / 1024, 1),
                     fmt(raw_per_month / comp_per_month, 1)});
  }
  volumes.print(std::cout);

  // Calibration: the measured T[G] table of this machine (the paper's
  // benchmark step, Figure 1's numbers regenerated live).
  std::cout << "\nMeasured pipeline times on this machine (calibration-grade "
               "96x192 grid, 2 reps):\n";
  const climate::CalibrationResult calibration =
      climate::calibrate_pipeline(climate::calibration_grade_params(), 2);
  TableWriter times({"task", "processors", "measured [ms]"});
  for (ProcCount g = 4; g <= 11; ++g)
    times.add_row({"pcr (coupled month)", std::to_string(g),
                   fmt(calibration.main_times[static_cast<std::size_t>(g - 4)] * 1e3, 2)});
  times.add_row({"cof+emi+cd (post chain)", "1",
                 fmt(calibration.post_time * 1e3, 3)});
  times.print(std::cout);

  const double t4 = calibration.main_times.front();
  const double t11 = calibration.main_times.back();
  std::cout << "\nSpeedup T[4]/T[11] = " << fmt(t4 / t11, 2)
            << " with hardware_concurrency = " << default_parallelism()
            << " (the paper's Grid'5000 tables span ~3.7x on 8 real cores; "
               "on fewer cores the measured table is flat — the scheduler "
               "handles either shape)\n";
  return 0;
}
