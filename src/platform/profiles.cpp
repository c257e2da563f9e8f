#include "platform/profiles.hpp"

#include <array>
#include <string>

#include "platform/speedup.hpp"

namespace oagrid::platform {
namespace {

/// One profile: a coupled-model shape anchored to a published T(11). The
/// speed factor is derived so that the fused main task takes exactly
/// `t11_target` seconds on 11 processors; the post task scales
/// proportionally to overall speed (TP = 180 s x t11_target / 1260).
struct ClusterProfile {
  const char* name;
  double beta;          ///< parallel-overhead coefficient (CoupledParams)
  Seconds seq_floor;    ///< sequential ocean/runoff/coupler time
  Seconds t11_target;   ///< anchored fused-main time on 11 processors
};

// Shapes differ (beta, seq_floor) so percentage gains scatter across
// profiles; anchors follow §6: fastest T(11) = 1177 s, slowest = 1622 s,
// reference pcr ~ 1260 s (Figure 1). Names are 2008-era Grid'5000 clusters.
constexpr std::array<ClusterProfile, 5> kProfiles{{
    {"capricorne", 0.055, 380.0, 1177.0},  // Lyon — fastest, scales well
    {"sagittaire", 0.080, 420.0, 1260.0},  // Lyon — the reference machine
    {"chicon", 0.100, 450.0, 1359.0},      // Lille
    {"grelon", 0.120, 470.0, 1485.0},      // Nancy — worst parallel overhead
    {"azur", 0.090, 520.0, 1622.0},        // Sophia — slowest sequential parts
}};

Cluster build_cluster(std::string name, const ClusterProfile& profile,
                      ProcCount resources) {
  CoupledParams params;
  params.beta = profile.beta;
  params.seq_floor = profile.seq_floor;
  // One table at speed factor 1: its T(11) (pre tasks included) fixes the
  // speed factor, and scaling each entry afterwards gives the same bits as
  // tabulating at that factor (x * 1.0 is exact and products commute).
  std::vector<Seconds> times = coupled_main_times(params);
  const double speed_factor =
      profile.t11_target / (times.back() + kReferencePreTime);
  // The scheduler's "main task" is pcr with the two 1 s pre tasks fused in
  // (paper §4.1); pre tasks are sequential, so they scale with the cluster.
  for (Seconds& t : times) {
    t = speed_factor * t;
    t += kReferencePreTime * speed_factor;
  }
  // Post time proportional to overall cluster speed, normalized so the
  // reference profile keeps the paper's exact 180 s (and 1260/180 = 7).
  const Seconds post = kReferencePostTime * profile.t11_target / 1260.0;
  return Cluster(std::move(name), resources, params.pinned + 1,
                 std::move(times), post);
}

}  // namespace

Cluster make_builtin_cluster(int index, ProcCount resources) {
  OAGRID_REQUIRE(index >= 0 && index < static_cast<int>(kProfiles.size()),
                 "profile index out of range");
  const ClusterProfile& profile = kProfiles[static_cast<std::size_t>(index)];
  return build_cluster(profile.name, profile, resources);
}

Grid make_builtin_grid(ProcCount resources) {
  std::vector<Cluster> clusters;
  clusters.reserve(kProfiles.size());
  for (int i = 0; i < static_cast<int>(kProfiles.size()); ++i)
    clusters.push_back(make_builtin_cluster(i, resources));
  return Grid(std::move(clusters));
}

Grid make_random_grid(int n, ProcCount min_resources, ProcCount max_resources,
                      Rng& rng) {
  OAGRID_REQUIRE(n >= 1, "grid needs at least one cluster");
  OAGRID_REQUIRE(min_resources >= 1 && min_resources <= max_resources,
                 "invalid resource range");
  std::vector<Cluster> clusters;
  clusters.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ClusterProfile profile{};
    profile.beta = rng.uniform(0.05, 0.13);
    profile.seq_floor = rng.uniform(350.0, 550.0);
    profile.t11_target = rng.uniform(1100.0, 1700.0);
    const auto r = static_cast<ProcCount>(
        rng.uniform_int(min_resources, max_resources));
    clusters.push_back(
        build_cluster("random-" + std::to_string(i), profile, r));
  }
  return Grid(std::move(clusters));
}

}  // namespace oagrid::platform
