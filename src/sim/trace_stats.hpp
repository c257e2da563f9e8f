#pragma once
/// \file trace_stats.hpp
/// \brief Post-hoc analytics over execution traces.
///
/// The closed-form model reasons about aggregate quantities (backlog,
/// leftover posts); these statistics read the same quantities off a real
/// trace: per-unit utilization, and the *post latency* — how long a month's
/// diagnostics waited between the main task finishing and its post task
/// starting, i.e. the paper's Figure 4/5 "overpassing" made measurable.

#include <vector>

#include "sim/trace.hpp"

namespace oagrid::sim {

struct UnitStats {
  UnitKind kind = UnitKind::kGroup;
  int unit = 0;
  Count tasks = 0;
  Seconds busy = 0.0;
  Seconds first_start = 0.0;
  Seconds last_end = 0.0;
  /// busy / makespan (the whole-campaign horizon, not the unit's own span).
  double utilization = 0.0;
};

struct TraceStats {
  Seconds makespan = 0.0;
  std::vector<UnitStats> units;       ///< groups first, then post workers
  double group_utilization = 0.0;     ///< aggregate over group units
  Seconds mean_post_latency = 0.0;    ///< post.start - main.end, averaged
  Seconds max_post_latency = 0.0;
  Count posts_measured = 0;
};

/// Computes the statistics over the done mains and the posts. Throws
/// std::invalid_argument on an empty trace or one that fails Trace::verify().
[[nodiscard]] TraceStats analyze_trace(const Trace& trace);

}  // namespace oagrid::sim
