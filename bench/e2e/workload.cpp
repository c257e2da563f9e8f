#include "workload.hpp"

#include <stdexcept>
#include <vector>

#include "platform/profiles.hpp"

namespace oagrid::e2e {

Rng input_rng(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + stream);
}

platform::Grid random_grid(Rng& rng) {
  std::vector<platform::Cluster> clusters;
  for (int profile = 0; profile < 5; ++profile)
    clusters.push_back(platform::make_builtin_cluster(
        profile, static_cast<ProcCount>(rng.uniform_int(20, 120))));
  return platform::Grid(std::move(clusters));
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& workdir) {
  if (name == "fig9-cold") return make_fig9_cold();
  if (name == "grid-faults") return make_grid_faults();
  if (name == "serve-journal") return make_serve_journal(workdir);
  if (name == "sweep-fig8") return make_sweep_fig8();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (fig9-cold, grid-faults, serve-journal, "
                              "sweep-fig8)");
}

}  // namespace oagrid::e2e
