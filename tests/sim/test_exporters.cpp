#include "sim/exporters.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "appmodel/month.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sim/ensemble_sim.hpp"

namespace oagrid::sim {
namespace {

Trace sample_trace() {
  Trace trace;
  trace.record(TraceEntry{UnitKind::kGroup, 0, 0, 0, 0.0, 100.0});
  trace.record(TraceEntry{UnitKind::kGroup, 1, 1, 0, 0.0, 120.0});
  trace.record(TraceEntry{UnitKind::kPostWorker, 0, 0, 0, 100.0, 110.0});
  return trace;
}

TEST(SvgGantt, EmitsWellFormedSvg) {
  std::ostringstream out;
  SvgOptions options;
  options.title = "two groups & a post";
  write_svg_gantt(out, sample_trace(), options);
  const std::string svg = out.str();
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("two groups &amp; a post"), std::string::npos);
  // One rect per entry plus the background.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_EQ(rects, 4u);
  // Row labels for both kinds.
  EXPECT_NE(svg.find(">G0<"), std::string::npos);
  EXPECT_NE(svg.find(">P0<"), std::string::npos);
}

TEST(SvgGantt, RejectsEmptyTraceAndTinyCanvas) {
  std::ostringstream out;
  EXPECT_THROW(write_svg_gantt(out, Trace{}), std::invalid_argument);
  SvgOptions tiny;
  tiny.width = 10;
  EXPECT_THROW(write_svg_gantt(out, sample_trace(), tiny),
               std::invalid_argument);
}

TEST(SvgGantt, RealSimulationTraceRenders) {
  const auto cluster = platform::make_builtin_cluster(1, 30);
  const appmodel::Ensemble ensemble{4, 6};
  SimOptions options;
  options.capture_trace = true;
  const SimResult result = simulate_with_heuristic(
      cluster, sched::Heuristic::kKnapsack, ensemble, options);
  std::ostringstream out;
  write_svg_gantt(out, result.trace);
  EXPECT_GT(out.str().size(), 1000u);
}

TEST(SimTimeline, OneSlicePerEntryOnNamedTracks) {
  Trace trace = sample_trace();
  trace.group_sizes = {4, 7};
  trace.record(
      TraceEntry{UnitKind::kGroup, 0, 0, 1, 100.0, 150.0, Outcome::kKilled});
  obs::TraceBuffer buffer;
  export_sim_timeline(trace, buffer, 256, "azur");

  const std::vector<obs::TraceEvent> events = buffer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "s0 m0");
  EXPECT_EQ(events[0].category, "main");
  EXPECT_EQ(events[0].pid, obs::kSimPid);
  EXPECT_EQ(events[0].track, 256);
  EXPECT_EQ(events[0].dur_us, 100.0);
  EXPECT_EQ(events[1].track, 257);
  EXPECT_EQ(events[2].name, "post s0 m0");
  EXPECT_EQ(events[2].category, "post");
  EXPECT_EQ(events[2].track, 258);  // above the two group tracks
  EXPECT_EQ(events[2].ts_us, 100.0);
  EXPECT_EQ(events[3].name, "s0 m1");
  EXPECT_EQ(events[3].category, "killed");
  EXPECT_EQ(events[3].dur_us, 50.0);

  const auto names = buffer.track_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names.at({obs::kSimPid, 256}), "azur group 0 (4p)");
  EXPECT_EQ(names.at({obs::kSimPid, 257}), "azur group 1 (7p)");
  EXPECT_EQ(names.at({obs::kSimPid, 258}), "azur post worker 0");
}

TEST(SimTimeline, SimulatorRecordsItsGroupLayout) {
  const auto cluster = platform::make_builtin_cluster(1, 30);
  const appmodel::Ensemble ensemble{4, 6};
  const auto schedule = sched::knapsack_grouping(cluster, ensemble);
  SimOptions options;
  options.capture_trace = true;
  const SimResult result =
      simulate_ensemble(cluster, schedule, ensemble, options);
  EXPECT_EQ(result.trace.group_sizes, schedule.group_sizes);
  obs::TraceBuffer buffer;
  export_sim_timeline(result.trace, buffer);
  EXPECT_EQ(buffer.size(), result.trace.entries().size());
}

TEST(Dot, EmitsMonthDag) {
  const appmodel::MonthDag month = appmodel::make_month_dag();
  std::ostringstream out;
  write_dot(out, month.graph, "month");
  const std::string dot = out.str();
  EXPECT_EQ(dot.rfind("digraph \"month\"", 0), 0u);
  EXPECT_NE(dot.find("pcr"), std::string::npos);
  EXPECT_NE(dot.find("doubleoctagon"), std::string::npos);  // moldable pcr
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // rigid tasks
  // 6 nodes, 5 edges.
  std::size_t arrows = 0, pos = 0;
  while ((pos = dot.find("->", pos)) != std::string::npos) {
    ++arrows;
    ++pos;
  }
  EXPECT_EQ(arrows, 5u);
}

TEST(Dot, LabelsDataVolumes) {
  const auto chain = appmodel::make_fused_scenario(3);
  std::ostringstream out;
  write_dot(out, chain.graph, "scenario");
  EXPECT_NE(out.str().find("120 MB"), std::string::npos);
}

TEST(Dot, RequiresFrozenDag) {
  dag::Dag unfrozen;
  std::ostringstream out;
  EXPECT_THROW(write_dot(out, unfrozen), std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::sim
