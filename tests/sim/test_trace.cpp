#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace oagrid::sim {
namespace {

TraceEntry main_entry(int group, ScenarioId s, MonthIndex m, Seconds start,
                      Seconds end, Outcome outcome = Outcome::kDone) {
  return TraceEntry{UnitKind::kGroup, group, s, m, start, end, outcome};
}

TraceEntry post_entry(int worker, ScenarioId s, MonthIndex m, Seconds start,
                      Seconds end) {
  return TraceEntry{UnitKind::kPostWorker, worker, s, m, start, end};
}

TEST(Trace, CleanTraceVerifies) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10));
  trace.record(main_entry(0, 0, 1, 10, 20));
  trace.record(post_entry(0, 0, 0, 10, 12));
  trace.record(post_entry(0, 0, 1, 20, 22));
  EXPECT_EQ(trace.verify(), "");
}

TEST(Trace, DetectsUnitOverlap) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10));
  trace.record(main_entry(0, 1, 0, 5, 15));
  EXPECT_NE(trace.verify().find("overlap"), std::string::npos);
}

TEST(Trace, DistinctUnitsMayOverlap) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10));
  trace.record(main_entry(1, 1, 0, 5, 15));
  EXPECT_EQ(trace.verify(), "");
}

TEST(Trace, DetectsOutOfOrderMonths) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 10, 20));
  trace.record(main_entry(1, 0, 1, 0, 9));  // month 1 before month 0 ends
  EXPECT_NE(trace.verify().find("before its predecessor"), std::string::npos);
}

TEST(Trace, DetectsEarlyPost) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10));
  trace.record(post_entry(0, 0, 0, 5, 7));
  EXPECT_NE(trace.verify().find("before its main"), std::string::npos);
}

TEST(Trace, DetectsOrphanPost) {
  Trace trace;
  trace.record(post_entry(0, 0, 0, 5, 7));
  EXPECT_NE(trace.verify().find("without"), std::string::npos);
}

TEST(Trace, DetectsDuplicateExecution) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10));
  trace.record(main_entry(1, 0, 0, 20, 30));
  EXPECT_NE(trace.verify().find("duplicate"), std::string::npos);
}

TEST(Trace, DetectsNegativeDuration) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 10, 5));
  EXPECT_NE(trace.verify().find("end < start"), std::string::npos);
}

TEST(Trace, KilledAndRetriedMainsOccupyTheirGroup) {
  for (const Outcome outcome : {Outcome::kKilled, Outcome::kRetry}) {
    Trace trace;
    trace.record(main_entry(0, 0, 0, 0, 10, outcome));
    trace.record(main_entry(0, 1, 0, 5, 15));
    EXPECT_NE(trace.verify().find("overlap"), std::string::npos)
        << to_string(outcome);
  }
}

TEST(Trace, RewoundMonthRunsAndIsPostedAgain) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10, Outcome::kRewound));
  trace.record(post_entry(0, 0, 0, 10, 12));
  trace.record(main_entry(0, 0, 1, 10, 14, Outcome::kKilled));
  trace.record(main_entry(1, 0, 0, 20, 30));
  trace.record(post_entry(0, 0, 0, 30, 32));
  EXPECT_EQ(trace.verify(), "");
}

TEST(Trace, EachPostWaitsForItsOwnExecution) {
  // Two posts of one month pair up with its two executions in time order:
  // the second post may not start before the re-execution ends.
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10, Outcome::kRewound));
  trace.record(main_entry(1, 0, 0, 20, 30));
  trace.record(post_entry(0, 0, 0, 10, 12));
  trace.record(post_entry(0, 0, 0, 25, 27));
  EXPECT_NE(trace.verify().find("before its main"), std::string::npos);
}

TEST(Trace, ExtraPostWithoutAnExecutionIsRejected) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 10));
  trace.record(main_entry(1, 0, 0, 0, 10, Outcome::kRetry));
  trace.record(post_entry(0, 0, 0, 10, 12));
  trace.record(post_entry(1, 0, 0, 10, 12));
  EXPECT_NE(trace.verify().find("without"), std::string::npos);
}

TEST(Trace, CsvExport) {
  Trace trace;
  trace.record(main_entry(2, 1, 3, 0, 10));
  trace.record(main_entry(2, 1, 4, 10, 12, Outcome::kKilled));
  std::ostringstream os;
  trace.write_csv(os);
  EXPECT_EQ(os.str(),
            "unit_kind,unit,scenario,month,start,end,outcome\n"
            "group,2,1,3,0,10,done\n"
            "group,2,1,4,10,12,killed\n");
}

TEST(Trace, GanttShowsOnlyDoneMains) {
  Trace trace;
  trace.record(main_entry(0, 1, 0, 0, 50));
  trace.record(main_entry(1, 2, 0, 0, 100, Outcome::kKilled));
  const std::string gantt = trace.render_gantt(40);
  EXPECT_NE(gantt.find("G0"), std::string::npos);
  EXPECT_EQ(gantt.find("G1"), std::string::npos);
  EXPECT_NE(gantt.find("time 0 .. 50 s"), std::string::npos);
}

TEST(Trace, GanttShowsUnitsAndScenarios) {
  Trace trace;
  trace.record(main_entry(0, 1, 0, 0, 50));
  trace.record(post_entry(0, 1, 0, 50, 100));
  const std::string gantt = trace.render_gantt(40);
  EXPECT_NE(gantt.find("G0"), std::string::npos);
  EXPECT_NE(gantt.find("P0"), std::string::npos);
  // Scenario 1 renders as '1' on both rows (uppercase rule only changes
  // letters).
  EXPECT_NE(gantt.find('1'), std::string::npos);
}

TEST(Trace, EmptyGantt) {
  const Trace trace;
  EXPECT_EQ(trace.render_gantt(), "(empty trace)\n");
}

TEST(Trace, ClearEmptiesTrace) {
  Trace trace;
  trace.record(main_entry(0, 0, 0, 0, 1));
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace oagrid::sim
