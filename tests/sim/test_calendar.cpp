#include "sim/calendar.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
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

TEST(Calendar, EmptyCalendarStartsAtZero) {
  Calendar<int> calendar;
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.pending(), 0u);
  EXPECT_DOUBLE_EQ(calendar.now(), 0.0);
}

}  // namespace
}  // namespace oagrid::sim
