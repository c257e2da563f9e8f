#include "sim/trace_stats.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace oagrid::sim {

TraceStats analyze_trace(const Trace& trace) {
  OAGRID_REQUIRE(!trace.empty(), "cannot analyze an empty trace");
  if (const std::string issue = trace.verify(); !issue.empty())
    throw std::invalid_argument("oagrid: trace invalid: " + issue);

  TraceStats stats;
  std::map<std::pair<int, int>, UnitStats> units;  // (kind rank, unit)
  std::map<std::pair<ScenarioId, MonthIndex>, Seconds> main_end;
  std::map<std::pair<ScenarioId, MonthIndex>, Seconds> post_start;

  for (const auto& e : trace.entries()) {
    if (e.outcome != Outcome::kDone) continue;
    stats.makespan = std::max(stats.makespan, e.end);
    const int rank = e.unit_kind == UnitKind::kGroup ? 0 : 1;
    auto [it, inserted] = units.try_emplace({rank, e.unit});
    UnitStats& unit = it->second;
    if (inserted) {
      unit.kind = e.unit_kind;
      unit.unit = e.unit;
      unit.first_start = e.start;
    }
    unit.first_start = std::min(unit.first_start, e.start);
    unit.last_end = std::max(unit.last_end, e.end);
    unit.busy += e.end - e.start;
    ++unit.tasks;

    if (e.unit_kind == UnitKind::kGroup)
      main_end[{e.scenario, e.month}] = e.end;
    else
      post_start[{e.scenario, e.month}] = e.start;
  }

  double group_busy = 0.0;
  Count group_units = 0;
  for (auto& [key, unit] : units) {
    unit.utilization = stats.makespan > 0 ? unit.busy / stats.makespan : 0.0;
    if (unit.kind == UnitKind::kGroup) {
      group_busy += unit.busy;
      ++group_units;
    }
    stats.units.push_back(unit);
  }
  stats.group_utilization =
      group_units > 0 && stats.makespan > 0
          ? group_busy / (static_cast<double>(group_units) * stats.makespan)
          : 0.0;

  double latency_sum = 0.0;
  for (const auto& [key, start] : post_start) {
    const auto main_it = main_end.find(key);
    if (main_it == main_end.end()) continue;  // verify() precludes this
    const Seconds latency = start - main_it->second;
    latency_sum += latency;
    stats.max_post_latency = std::max(stats.max_post_latency, latency);
    ++stats.posts_measured;
  }
  if (stats.posts_measured > 0)
    stats.mean_post_latency =
        latency_sum / static_cast<double>(stats.posts_measured);
  return stats;
}

}  // namespace oagrid::sim
