#include "platform/speedup.hpp"

#include <algorithm>
#include <cmath>

namespace oagrid::platform {

std::vector<Seconds> coupled_main_times(const CoupledParams& params) {
  OAGRID_REQUIRE(params.speed_factor > 0.0, "speed factor must be positive");
  OAGRID_REQUIRE(params.seq_floor >= 0.0, "sequential floor must be >= 0");
  OAGRID_REQUIRE(params.atm_work > 0.0, "atmosphere work must be positive");
  OAGRID_REQUIRE(params.beta >= 0.0, "overhead coefficient must be >= 0");
  OAGRID_REQUIRE(params.pinned >= 0, "pinned count must be >= 0");
  OAGRID_REQUIRE(params.saturation >= 1, "saturation must be >= 1");
  OAGRID_REQUIRE(params.max_group > params.pinned,
                 "max group must exceed pinned components");
  std::vector<Seconds> times;
  times.reserve(static_cast<std::size_t>(params.max_group - params.pinned));
  for (ProcCount g = params.pinned + 1; g <= params.max_group; ++g) {
    const ProcCount atm = std::min(g - params.pinned, params.saturation);
    // Linear-overhead efficiency: S(n) = n / (1 + beta*(n-1)).
    const double speedup = static_cast<double>(atm) /
                           (1.0 + params.beta * static_cast<double>(atm - 1));
    times.push_back(params.speed_factor *
                    (params.seq_floor + params.atm_work / speedup));
  }
  return times;
}

std::vector<Seconds> amdahl_main_times(Seconds t1, double serial_fraction,
                                       ProcCount min_procs,
                                       ProcCount max_procs) {
  OAGRID_REQUIRE(t1 > 0.0, "t1 must be positive");
  OAGRID_REQUIRE(serial_fraction >= 0.0 && serial_fraction <= 1.0,
                 "serial fraction in [0,1]");
  OAGRID_REQUIRE(min_procs >= 1 && min_procs <= max_procs,
                 "invalid processor range");
  std::vector<Seconds> times;
  times.reserve(static_cast<std::size_t>(max_procs - min_procs + 1));
  for (ProcCount g = min_procs; g <= max_procs; ++g)
    times.push_back(t1 * (serial_fraction +
                          (1.0 - serial_fraction) / static_cast<double>(g)));
  return times;
}

std::vector<Seconds> power_law_main_times(Seconds t1, double alpha,
                                          ProcCount min_procs,
                                          ProcCount max_procs) {
  OAGRID_REQUIRE(t1 > 0.0, "t1 must be positive");
  OAGRID_REQUIRE(alpha > 0.0 && alpha <= 1.0, "power-law exponent in (0,1]");
  OAGRID_REQUIRE(min_procs >= 1 && min_procs <= max_procs,
                 "invalid processor range");
  std::vector<Seconds> times;
  times.reserve(static_cast<std::size_t>(max_procs - min_procs + 1));
  for (ProcCount g = min_procs; g <= max_procs; ++g)
    times.push_back(t1 / std::pow(static_cast<double>(g), alpha));
  return times;
}

}  // namespace oagrid::platform
