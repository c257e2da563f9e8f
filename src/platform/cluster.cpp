#include "platform/cluster.hpp"

namespace oagrid::platform {

Cluster::Cluster(std::string name, ProcCount resources, ProcCount min_group,
                 std::vector<Seconds> main_times, Seconds post_time)
    : name_(std::move(name)),
      resources_(resources),
      min_group_(min_group),
      main_times_(std::move(main_times)),
      post_time_(post_time) {
  OAGRID_REQUIRE(resources_ >= 1, "cluster needs at least one processor");
  OAGRID_REQUIRE(min_group_ >= 1, "minimum group size must be >= 1");
  OAGRID_REQUIRE(!main_times_.empty(), "main-task time table must not be empty");
  for (const Seconds t : main_times_)
    OAGRID_REQUIRE(t > 0.0, "main-task times must be positive");
  // Zero is allowed for synthetic workloads with no post phase (the generic
  // chain scheduler); the closed-form makespan model separately requires > 0.
  OAGRID_REQUIRE(post_time_ >= 0.0, "post-processing time must be >= 0");
}

Seconds Cluster::main_time(ProcCount g) const {
  OAGRID_REQUIRE(g >= min_group() && g <= max_group(),
                 "group size outside the cluster's admissible range");
  return main_times_[static_cast<std::size_t>(g - min_group_)];
}

Cluster Cluster::with_resources(ProcCount r) const {
  Cluster copy = *this;
  OAGRID_REQUIRE(r >= 1, "cluster needs at least one processor");
  copy.resources_ = r;
  return copy;
}

}  // namespace oagrid::platform
