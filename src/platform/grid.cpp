#include "platform/grid.hpp"

namespace oagrid::platform {

Grid::Grid(std::vector<Cluster> clusters) : clusters_(std::move(clusters)) {}

ClusterId Grid::add_cluster(Cluster cluster) {
  clusters_.push_back(std::move(cluster));
  return static_cast<ClusterId>(clusters_.size()) - 1;
}

const Cluster& Grid::cluster(ClusterId id) const {
  OAGRID_REQUIRE(id >= 0 && id < cluster_count(), "cluster id out of range");
  return clusters_[static_cast<std::size_t>(id)];
}

ProcCount Grid::total_resources() const noexcept {
  ProcCount total = 0;
  for (const auto& c : clusters_) total += c.resources();
  return total;
}

Grid Grid::prefix(int n) const {
  OAGRID_REQUIRE(n >= 0 && n <= cluster_count(), "prefix size out of range");
  return Grid(std::vector<Cluster>(clusters_.begin(), clusters_.begin() + n));
}

}  // namespace oagrid::platform
