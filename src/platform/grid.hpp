#pragma once
/// \file grid.hpp
/// \brief A grid = a set of heterogeneous homogeneous clusters (the
/// Grid'5000 structure the paper targets in §5).

#include <span>
#include <string>
#include <vector>

#include "platform/cluster.hpp"

namespace oagrid::platform {

/// Heterogeneous collection of clusters. The grid itself carries only
/// cluster membership; the links between clusters (staging, result
/// collection, restart-file migration — all priced since the relaxation of
/// the paper's no-migration rule) are modeled separately by
/// net::NetworkModel, keyed by the same ClusterId order as this class.
class Grid {
 public:
  Grid() = default;
  explicit Grid(std::vector<Cluster> clusters);

  ClusterId add_cluster(Cluster cluster);

  [[nodiscard]] int cluster_count() const noexcept {
    return static_cast<int>(clusters_.size());
  }
  [[nodiscard]] const Cluster& cluster(ClusterId id) const;
  [[nodiscard]] std::span<const Cluster> clusters() const noexcept {
    return clusters_;
  }
  [[nodiscard]] ProcCount total_resources() const noexcept;

  /// Grid keeping only the first `n` clusters.
  [[nodiscard]] Grid prefix(int n) const;

 private:
  std::vector<Cluster> clusters_;
};

}  // namespace oagrid::platform
