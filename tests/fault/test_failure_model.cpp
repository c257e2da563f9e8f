#include "fault/failure.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "fault/checkpoint.hpp"

namespace oagrid::fault {
namespace {

TEST(FailureModel, DefaultIsInactive) {
  const FailureModel model;
  EXPECT_EQ(model.cluster_count(), 0);
  EXPECT_FALSE(model.active());

  const FailureModel sized(3);
  EXPECT_EQ(sized.cluster_count(), 3);
  EXPECT_FALSE(sized.active());
  for (ClusterId c = 0; c < 3; ++c) EXPECT_FALSE(sized.cluster_active(c));
}

TEST(FailureModel, ProcessesActivatePerCluster) {
  FailureModel model(3);
  model.set_exponential(1, 1000.0, 50.0);
  EXPECT_TRUE(model.active());
  EXPECT_FALSE(model.cluster_active(0));
  EXPECT_TRUE(model.cluster_active(1));
  EXPECT_FALSE(model.cluster_active(2));
  EXPECT_EQ(model.process(1).kind, ProcessKind::kExponential);
  EXPECT_EQ(model.process(1).mtbf, 1000.0);
  EXPECT_EQ(model.process(1).mttr, 50.0);

  model.add_outage(2, 100.0, 10.0);
  EXPECT_TRUE(model.cluster_active(2));
  EXPECT_EQ(model.process(2).kind, ProcessKind::kNone);
}

TEST(FailureModel, ValidationErrors) {
  EXPECT_THROW(FailureModel(-1), std::invalid_argument);
  FailureModel model(2);
  EXPECT_THROW(model.set_exponential(0, -1.0, 50.0), std::invalid_argument);
  EXPECT_THROW(model.set_exponential(0, 1000.0, -1.0), std::invalid_argument);
  EXPECT_THROW(model.set_weibull(0, 0.0, 1000.0, 50.0), std::invalid_argument);
  EXPECT_THROW(model.set_exponential(2, 1000.0, 50.0), std::invalid_argument);
  EXPECT_THROW(model.add_outage(0, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(model.add_outage(0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)model.process(5), std::invalid_argument);
}

TEST(FailureModel, OutagesKeptSortedByStart) {
  FailureModel model(1);
  model.add_outage(0, 500.0, 10.0);
  model.add_outage(0, 100.0, 10.0);
  model.add_outage(0, 300.0, 10.0);
  const auto& outages = model.process(0).outages;
  ASSERT_EQ(outages.size(), 3u);
  EXPECT_EQ(outages[0].start, 100.0);
  EXPECT_EQ(outages[1].start, 300.0);
  EXPECT_EQ(outages[2].start, 500.0);
}

TEST(FailureModel, SteadyStateAvailability) {
  FailureModel model(3);
  model.set_exponential(0, 900.0, 100.0);
  model.set_down(1);
  EXPECT_DOUBLE_EQ(model.process(0).availability(), 0.9);
  EXPECT_EQ(model.process(1).availability(), 0.0);
  EXPECT_EQ(model.process(2).availability(), 1.0);
}

TEST(FailureModel, SignatureCoversParametersAndSeed) {
  FailureModel a(2);
  a.set_exponential(0, 1000.0, 50.0);
  FailureModel b(2);
  b.set_exponential(0, 1000.0, 50.0);
  EXPECT_EQ(a.signature(), b.signature());

  b.set_seed(99);
  EXPECT_NE(a.signature(), b.signature());
  b.set_seed(a.seed());
  EXPECT_EQ(a.signature(), b.signature());

  b.set_exponential(0, 1000.0, 51.0);
  EXPECT_NE(a.signature(), b.signature());

  FailureModel c(2);
  c.set_exponential(0, 1000.0, 50.0);
  c.add_outage(1, 10.0, 5.0);
  EXPECT_NE(a.signature(), c.signature());
}

TEST(FailureModel, SignatureValueIsStable) {
  // Eval-cache keys carry this signature, so its value (not just its
  // equality) must survive refactors of the hash behind it.
  EXPECT_EQ(FailureModel::uniform_exponential(3, 86411.0, 3600.0, 7)
                .signature(),
            0x081891440ff9e3eeULL);
}

TEST(RecoveryPolicy, NamesRoundTrip) {
  EXPECT_EQ(recovery_policy_from("wait"), RecoveryPolicy::kWaitForRepair);
  EXPECT_EQ(recovery_policy_from("reschedule"),
            RecoveryPolicy::kRescheduleInCluster);
  EXPECT_EQ(recovery_policy_from("migrate"),
            RecoveryPolicy::kMigrateWithState);
  EXPECT_THROW((void)recovery_policy_from("bogus"), std::invalid_argument);
  EXPECT_EQ(recovery_policy_from(to_string(RecoveryPolicy::kWaitForRepair)),
            RecoveryPolicy::kWaitForRepair);
  EXPECT_EQ(
      recovery_policy_from(to_string(RecoveryPolicy::kRescheduleInCluster)),
      RecoveryPolicy::kRescheduleInCluster);
  EXPECT_EQ(recovery_policy_from(to_string(RecoveryPolicy::kMigrateWithState)),
            RecoveryPolicy::kMigrateWithState);
}

TEST(OutageStream, InactiveStreamYieldsNothing) {
  const FailureModel model(2);
  OutageStream stream(model, 0, 0);
  EXPECT_FALSE(stream.next(0.0).has_value());

  OutageStream defaulted;
  EXPECT_FALSE(defaulted.next(0.0).has_value());
}

TEST(OutageStream, DeterministicInSeedClusterAndUnit) {
  FailureModel model(2);
  model.set_exponential(0, 5000.0, 200.0);
  model.set_exponential(1, 5000.0, 200.0);

  const auto draw = [&](ClusterId cluster, int unit) {
    OutageStream stream(model, cluster, unit);
    std::vector<Outage> outages;
    Seconds t = 0.0;
    for (int i = 0; i < 8; ++i) {
      const auto o = stream.next(t);
      if (!o) break;
      outages.push_back(*o);
      t = o->start + o->duration;
    }
    return outages;
  };

  const auto first = draw(0, 0);
  const auto again = draw(0, 0);
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].start, again[i].start);
    EXPECT_EQ(first[i].duration, again[i].duration);
  }

  // Different unit / different cluster -> independent streams.
  const auto other_unit = draw(0, 1);
  const auto other_cluster = draw(1, 0);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(other_unit.empty());
  EXPECT_NE(first[0].start, other_unit[0].start);
  EXPECT_NE(first[0].start, other_cluster[0].start);
}

TEST(OutageStream, TraceOutagesSharedByAllUnits) {
  FailureModel model(1);
  model.add_outage(0, 1000.0, 60.0);
  model.add_outage(0, 5000.0, 120.0);
  for (const int unit : {0, 1, 7}) {
    OutageStream stream(model, 0, unit);
    const auto first = stream.next(0.0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->start, 1000.0);
    EXPECT_EQ(first->duration, 60.0);
    const auto second = stream.next(first->start + first->duration);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->start, 5000.0);
  }
}

TEST(OutageStream, WindowsStartingInThePastAreSkipped) {
  FailureModel model(1);
  model.add_outage(0, 1000.0, 60.0);
  model.add_outage(0, 5000.0, 120.0);
  OutageStream stream(model, 0, 0);
  const auto o = stream.next(2000.0);  // the 1000 s window already passed
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->start, 5000.0);
}

TEST(OutageStream, PermanentDownClampsToQueryTime) {
  FailureModel model(1);
  model.set_down(0);
  OutageStream stream(model, 0, 0);
  const auto o = stream.next(700.0);
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->start, 700.0);
  EXPECT_GE(o->duration, kInfiniteTime);
}

TEST(AvailabilityTracker, ExactFractionsForTraceWindows) {
  FailureModel model(1);
  model.add_outage(0, 100.0, 50.0);  // down over [100, 150)
  AvailabilityTracker tracker(model, 0, 0);
  EXPECT_EQ(tracker.down_fraction(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(tracker.down_fraction(100.0, 200.0), 0.5);
  EXPECT_EQ(tracker.down_fraction(200.0, 300.0), 0.0);
}

TEST(AvailabilityTracker, PermanentlyDownIsAlwaysDown) {
  FailureModel model(1);
  model.set_down(0);
  AvailabilityTracker tracker(model, 0, 0);
  EXPECT_DOUBLE_EQ(tracker.down_fraction(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(tracker.down_fraction(1e6, 1e6 + 10.0), 1.0);
}

TEST(AvailabilityTracker, InactiveStreamIsAlwaysUp) {
  const FailureModel model(1);
  AvailabilityTracker tracker(model, 0, 0);
  EXPECT_EQ(tracker.down_fraction(0.0, 1e9), 0.0);
}

TEST(Checkpoint, YoungDalyInterval) {
  EXPECT_DOUBLE_EQ(young_daly_interval(20000.0, 10.0),
                   std::sqrt(2.0 * 10.0 * 20000.0));
  EXPECT_EQ(young_daly_interval(0.0, 10.0), kUnavailableTime);
  EXPECT_EQ(young_daly_interval(-5.0, 10.0), kUnavailableTime);
  EXPECT_EQ(young_daly_interval(20000.0, 0.0), 0.0);
}

TEST(Checkpoint, OptimalMonthsClampsToRange) {
  // Interval sqrt(2*50*10000) = 1000 s -> 2 months of 500 s.
  EXPECT_EQ(optimal_checkpoint_months(500.0, 50.0, 10000.0, 12), 2);
  // Free checkpoints -> every month.
  EXPECT_EQ(optimal_checkpoint_months(500.0, 0.0, 10000.0, 12), 1);
  // Huge interval clamps at max_months.
  EXPECT_EQ(optimal_checkpoint_months(1.0, 1e9, 1e12, 12), 12);
}

TEST(Checkpoint, ExpectedMakespanShapes) {
  FailureProcess none;
  EXPECT_EQ(expected_makespan(1234.5, none, 100.0), 1234.5);  // exact

  FailureProcess down;
  down.kind = ProcessKind::kDown;
  EXPECT_EQ(expected_makespan(1234.5, down, 100.0), kUnavailableTime);

  FailureProcess exp;
  exp.kind = ProcessKind::kExponential;
  exp.mtbf = 10000.0;
  exp.mttr = 500.0;
  // clean * (1 + (mttr + period/2) / mtbf)
  EXPECT_DOUBLE_EQ(expected_makespan(1000.0, exp, 200.0),
                   1000.0 * (1.0 + (500.0 + 100.0) / 10000.0));
  // Longer checkpoint period -> more redone work expected.
  EXPECT_GT(expected_makespan(1000.0, exp, 2000.0),
            expected_makespan(1000.0, exp, 200.0));
}

TEST(FaultStats, MergeAccumulates) {
  FaultStats a;
  a.outages = 2;
  a.kills = 1;
  a.rewound_months = 3;
  a.downtime_seconds = 10.0;
  a.lost_seconds = 5.0;
  FaultStats b;
  b.outages = 1;
  b.lost_seconds = 2.5;
  a.merge(b);
  EXPECT_EQ(a.outages, 3);
  EXPECT_EQ(a.kills, 1);
  EXPECT_EQ(a.rewound_months, 3);
  EXPECT_EQ(a.downtime_seconds, 10.0);
  EXPECT_EQ(a.lost_seconds, 7.5);
}

}  // namespace
}  // namespace oagrid::fault
