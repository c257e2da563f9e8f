#include "platform/cluster.hpp"

#include "common/hash.hpp"

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
  signature_ = compute_signature();
}

std::uint64_t Cluster::compute_signature() const noexcept {
  Fnv1a h;
  h.i64(resources_);
  h.i64(min_group_);
  for (const Seconds t : main_times_) h.f64(t);
  h.f64(post_time_);
  return h.state;
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
  copy.signature_ = copy.compute_signature();
  return copy;
}

}  // namespace oagrid::platform
