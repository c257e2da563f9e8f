#pragma once
/// \file speedup.hpp
/// \brief Execution-time tables T[G] for the moldable main-processing task.
///
/// The paper's `process_coupled_run` (pcr) couples one MPI-parallel
/// atmosphere (ARPEGE) with three sequential components (OPA ocean, TRIP
/// runoff, OASIS coupler), each pinning a processor; hence a group of G
/// processors gives the atmosphere G-3 workers, and "with more than 8
/// processors, the speedup stops" (§2). The authors benchmarked T[G] on
/// Grid'5000 clusters; we do not have those tables, so coupled_main_times
/// reconstructs them from the published anchor points (T[11] in [1177, 1622]
/// seconds across clusters, pcr ~ 1260 s on the reference machine). Amdahl
/// and power-law tables are provided for the sensitivity ablation
/// (bench_ablation_speedup). Every function returns the dense table a
/// platform::Cluster holds: index 0 is the time on the smallest group.

#include <vector>

#include "common/types.hpp"

namespace oagrid::platform {

/// Physical model of the coupled run:
///   T(G) = speed_factor * (seq_floor + atm_work / S(min(G - pinned, sat)))
/// with S(n) = n / (1 + beta*(n-1)) — linear-overhead parallel efficiency —
/// and `pinned` sequential components (3 in the paper), saturating at `sat`
/// atmosphere workers (8 in the paper). The defaults are the reference
/// parameters, calibrated to the published anchors: T(11) = 1258 s at
/// speed_factor 1 (the paper's ~1260 s pcr once the 2 s of pre tasks are
/// fused in).
struct CoupledParams {
  double speed_factor = 1.0;   ///< cluster slowness multiplier
  Seconds seq_floor = 420.0;   ///< ocean+runoff+coupler time per month
  Seconds atm_work = 4300.0;   ///< sequential atmosphere work per month
  double beta = 0.08;          ///< parallel-overhead coefficient
  ProcCount pinned = 3;        ///< sequential components pinning processors
  ProcCount saturation = 8;    ///< max useful atmosphere workers
  ProcCount max_group = kMaxGroupSize;
};

/// T[G] of the coupled model for G in [pinned + 1, max_group]. Throws
/// std::invalid_argument on invalid parameters.
[[nodiscard]] std::vector<Seconds> coupled_main_times(
    const CoupledParams& params = {});

/// Amdahl's law: T(G) = t1 * (alpha + (1 - alpha) / G) for G in [min, max].
[[nodiscard]] std::vector<Seconds> amdahl_main_times(Seconds t1,
                                                     double serial_fraction,
                                                     ProcCount min_procs,
                                                     ProcCount max_procs);

/// Power law: T(G) = t1 / G^alpha for G in [min, max] (alpha in (0, 1]).
[[nodiscard]] std::vector<Seconds> power_law_main_times(Seconds t1,
                                                        double alpha,
                                                        ProcCount min_procs,
                                                        ProcCount max_procs);

}  // namespace oagrid::platform
