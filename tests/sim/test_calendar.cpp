#include "sim/calendar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace oagrid::sim {
namespace {

/// Pops every pending event, recording payloads in pop order.
std::vector<int> drain(Calendar<int>& calendar) {
  std::vector<int> order;
  while (!calendar.empty()) order.push_back(calendar.pop());
  return order;
}

TEST(Calendar, ExecutesInTimeOrder) {
  Calendar<int> calendar;
  calendar.schedule(5.0, 2);
  calendar.schedule(1.0, 1);
  calendar.schedule(9.0, 3);
  EXPECT_EQ(calendar.pending(), 3u);
  EXPECT_EQ(drain(calendar), (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(calendar.now(), 9.0);
}

TEST(Calendar, TiesBreakByInsertionOrder) {
  Calendar<int> calendar;
  for (int i = 0; i < 10; ++i) calendar.schedule(7.0, i);
  calendar.schedule(3.0, -1);
  std::vector<int> expected{-1};
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(drain(calendar), expected);
}

TEST(Calendar, EventsMayScheduleMoreEvents) {
  // The DES pattern: handling one event schedules its successor.
  Calendar<int> calendar;
  calendar.schedule(0.0, 0);
  int handled = 0;
  while (!calendar.empty()) {
    const int tick = calendar.pop();
    ++handled;
    if (tick < 4) calendar.schedule(calendar.now() + 1.0, tick + 1);
  }
  EXPECT_EQ(handled, 5);
  EXPECT_DOUBLE_EQ(calendar.now(), 4.0);
}

TEST(Calendar, ZeroDelayEventsRunAtCurrentTime) {
  Calendar<int> calendar;
  calendar.schedule(3.0, 1);
  calendar.schedule(3.0, 2);
  EXPECT_EQ(calendar.pop(), 1);
  // Scheduled at now(): after the already-pending tie, at the same time.
  calendar.schedule(calendar.now(), 3);
  EXPECT_EQ(drain(calendar), (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(calendar.now(), 3.0);
}

TEST(Calendar, RejectsPastEvents) {
  Calendar<int> calendar;
  calendar.schedule(5.0, 1);
  (void)calendar.pop();
  EXPECT_THROW(calendar.schedule(4.0, 2), std::invalid_argument);
  EXPECT_TRUE(calendar.empty());
  calendar.schedule(5.0, 3);  // now() itself is still allowed
  EXPECT_EQ(calendar.pending(), 1u);
}

TEST(Calendar, PartialDrainLeavesTheRestPending) {
  Calendar<int> calendar;
  for (int i = 0; i < 10; ++i) calendar.schedule(static_cast<double>(i), i);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(calendar.pop(), i);
  EXPECT_EQ(calendar.pending(), 7u);
  EXPECT_EQ(drain(calendar), (std::vector<int>{3, 4, 5, 6, 7, 8, 9}));
}

// pop() leaves its slot open for the next schedule() to fill; none of the
// cases below may tell.

TEST(Calendar, ScheduleBetweenSimultaneousPopsKeepsInsertionOrder) {
  Calendar<int> calendar;
  calendar.schedule(2.0, 1);
  calendar.schedule(2.0, 2);
  calendar.schedule(2.0, 3);
  EXPECT_EQ(calendar.pop(), 1);
  // Fills the popped slot, at the same time as the pending ties: it runs
  // after them, in the order it was scheduled.
  calendar.schedule(2.0, 4);
  EXPECT_EQ(calendar.pop(), 2);
  calendar.schedule(2.0, 5);
  EXPECT_EQ(drain(calendar), (std::vector<int>{3, 4, 5}));
  EXPECT_DOUBLE_EQ(calendar.now(), 2.0);
}

TEST(Calendar, PendingAndEmptyRightAfterPop) {
  Calendar<int> calendar;
  calendar.schedule(1.0, 1);
  calendar.schedule(3.0, 3);
  EXPECT_EQ(calendar.pop(), 1);
  EXPECT_EQ(calendar.pending(), 1u);  // no following schedule
  EXPECT_FALSE(calendar.empty());
  calendar.schedule(2.0, 2);  // fills the popped slot
  EXPECT_EQ(calendar.pending(), 2u);
  EXPECT_EQ(calendar.pop(), 2);
  EXPECT_EQ(calendar.pop(), 3);
  EXPECT_EQ(calendar.pending(), 0u);  // the last pop, nothing scheduled
  EXPECT_TRUE(calendar.empty());
  calendar.schedule(4.0, 4);
  EXPECT_EQ(calendar.pending(), 1u);
  EXPECT_FALSE(calendar.empty());
}

TEST(Calendar, DrainsAfterTheLastPopAndStartsAgain) {
  Calendar<int> calendar;
  calendar.schedule(1.0, 1);
  EXPECT_EQ(calendar.pop(), 1);
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(drain(calendar), std::vector<int>{});
  // A drained calendar takes new events at or after the last time.
  calendar.schedule(5.0, 3);
  calendar.schedule(1.0, 2);
  EXPECT_EQ(calendar.pending(), 2u);
  EXPECT_EQ(drain(calendar), (std::vector<int>{2, 3}));
  EXPECT_TRUE(calendar.empty());
  EXPECT_DOUBLE_EQ(calendar.now(), 5.0);
}

TEST(Calendar, NegativeZeroOrdersAsZeroAndKeepsItsSign) {
  // -0.0 passes the past check at time 0; it ties with 0.0 by insertion
  // order, and now() reports the time exactly as it was scheduled.
  Calendar<int> calendar;
  calendar.schedule(1.0, 3);
  calendar.schedule(0.0, 1);
  calendar.schedule(-0.0, 2);
  EXPECT_EQ(calendar.pop(), 1);
  EXPECT_FALSE(std::signbit(calendar.now()));
  EXPECT_EQ(calendar.pop(), 2);
  EXPECT_TRUE(std::signbit(calendar.now()));
  EXPECT_EQ(calendar.pop(), 3);
  EXPECT_EQ(calendar.now(), 1.0);
}

TEST(Calendar, MatchesAReferenceUnderInterleavedPopsAndSchedules) {
  // A fixed pseudo-random mix of pops and zero to two schedules before each
  // one, with many exact ties, against a list in insertion order: the first
  // earliest entry of the list is the one due.
  Calendar<int> calendar;
  std::vector<std::pair<double, int>> pending;  // (time, payload)
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>(state >> 59);  // 0..31
  };
  int payload = 0;
  for (int step = 0; step < 2000; ++step) {
    const int schedules = (pending.empty() ? 1 : 0) + next() % 3;
    for (int k = 0; k < schedules; ++k) {
      const double when = calendar.now() + static_cast<double>(next() % 3);
      calendar.schedule(when, payload);
      pending.emplace_back(when, payload++);
    }
    ASSERT_EQ(calendar.pending(), pending.size());
    const auto due = std::min_element(
        pending.begin(), pending.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(calendar.pop(), due->second) << "step " << step;
    ASSERT_EQ(calendar.now(), due->first);
    pending.erase(due);
  }
}

TEST(Calendar, EmptyCalendarStartsAtZero) {
  Calendar<int> calendar;
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.pending(), 0u);
  EXPECT_DOUBLE_EQ(calendar.now(), 0.0);
}

}  // namespace
}  // namespace oagrid::sim
