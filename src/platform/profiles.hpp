#pragma once
/// \file profiles.hpp
/// \brief Built-in Grid'5000-like cluster profiles.
///
/// The paper benchmarked the application on "numerous clusters of
/// Grid'5000"; it publishes only two anchor points — the fastest cluster runs
/// one main task on 11 processors in 1177 s, the slowest in 1622 s — and the
/// per-task durations of Figure 1 (pcr ~ 1260 s, three 60 s post tasks, two
/// 1 s pre tasks). The five profiles here are synthesized from the coupled
/// model (coupled_main_times) with speed factors spanning exactly that range
/// (substitution documented in DESIGN.md §2). Each profile is a machine
/// *shape* — parallel-overhead coefficient and sequential-component floor
/// differ per cluster, as real benchmark tables do — anchored to a published
/// T(11): T(11) spans 1177 s (fastest) .. 1622 s (slowest), and the shapes
/// differ so the five gain samples per resource count genuinely scatter (the
/// paper's Figure 8 error bars). Names follow real 2008-era Grid'5000
/// clusters for flavor.

#include <vector>

#include "common/rng.hpp"
#include "platform/grid.hpp"

namespace oagrid::platform {

/// The fused post-processing task on the reference machine:
/// cof (60 s) + emi (60 s) + cd (60 s).
inline constexpr Seconds kReferencePostTime = 180.0;

/// The fused pre-processing contribution folded into the main task:
/// caif (1 s) + mp (1 s).
inline constexpr Seconds kReferencePreTime = 2.0;

/// Builds cluster `index` (0..4) of the built-in set with `resources`
/// processors. Main-task times include the fused 2 s pre-processing.
[[nodiscard]] Cluster make_builtin_cluster(int index, ProcCount resources);

/// The full five-cluster grid, each cluster with `resources` processors.
[[nodiscard]] Grid make_builtin_grid(ProcCount resources);

/// Random heterogeneous grid for property tests and ablations: `n` clusters,
/// speed factors uniform in [0.8, 1.7], resources uniform in
/// [min_resources, max_resources].
[[nodiscard]] Grid make_random_grid(int n, ProcCount min_resources,
                                    ProcCount max_resources, Rng& rng);

}  // namespace oagrid::platform
