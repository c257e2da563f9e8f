#pragma once
/// \file cluster.hpp
/// \brief Homogeneous cluster description consumed by the schedulers.
///
/// The paper's §4 heuristics see a cluster as exactly three things: a
/// processor count R, the execution-time table T[G] of the (fused) main task
/// for every admissible group size G, and the duration TP of the (fused)
/// post-processing task. Cluster is that triple, as a value type, and its
/// dense T[G] array is the only form a main-task table takes: benchmarked
/// tables, grid files and the synthesized models of speedup.hpp all arrive
/// as one.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace oagrid::platform {

/// One homogeneous cluster (all nodes identical, shared storage so data
/// access time is folded into task durations — the paper's §4.1 assumption).
class Cluster {
 public:
  /// Builds from an explicit time table. `main_times[0]` is the time on
  /// `min_group` processors.
  Cluster(std::string name, ProcCount resources, ProcCount min_group,
          std::vector<Seconds> main_times, Seconds post_time);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] ProcCount resources() const noexcept { return resources_; }
  [[nodiscard]] ProcCount min_group() const noexcept { return min_group_; }
  [[nodiscard]] ProcCount max_group() const noexcept {
    return min_group_ + static_cast<ProcCount>(main_times_.size()) - 1;
  }

  /// T[G]: execution time of one main task on a group of g processors.
  [[nodiscard]] Seconds main_time(ProcCount g) const;

  /// Dense T table, index 0 <-> min_group().
  [[nodiscard]] std::span<const Seconds> main_times() const noexcept {
    return main_times_;
  }

  /// TP: execution time of one post-processing task (single processor).
  [[nodiscard]] Seconds post_time() const noexcept { return post_time_; }

  /// Copy with a different processor count (used by resource sweeps).
  [[nodiscard]] Cluster with_resources(ProcCount r) const;

  /// FNV-1a over what a simulation of this cluster depends on: R, the
  /// minimum group, the T[G] table and TP. The name is excluded, so renamed
  /// copies share it. Computed once, at construction and in with_resources;
  /// the eval cache keys clusters by it.
  [[nodiscard]] std::uint64_t signature() const noexcept { return signature_; }

 private:
  [[nodiscard]] std::uint64_t compute_signature() const noexcept;

  std::string name_;
  ProcCount resources_;
  ProcCount min_group_;
  std::vector<Seconds> main_times_;
  Seconds post_time_;
  std::uint64_t signature_ = 0;
};

}  // namespace oagrid::platform
