#include "platform/speedup.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace oagrid::platform {
namespace {

TEST(CoupledModel, PaperAnchors) {
  // The reference table must hit the paper's pcr benchmark: ~1260 s on 11
  // processors (1258 from the model + 2 s fused pre-processing). It covers
  // G = 4..11: index 0 is pinned + 1 processors.
  const std::vector<Seconds> times = coupled_main_times();
  EXPECT_EQ(CoupledParams{}.pinned + 1, 4);
  ASSERT_EQ(times.size(), 8u);
  EXPECT_NEAR(times.back(), 1258.0, 5.0);
}

TEST(CoupledModel, MonotoneDecreasing) {
  const std::vector<Seconds> times = coupled_main_times();
  for (std::size_t i = 0; i + 1 < times.size(); ++i)
    EXPECT_GT(times[i], times[i + 1]) << "at g=" << 4 + i;
}

TEST(CoupledModel, SaturationStopsSpeedup) {
  CoupledParams p;
  p.max_group = 14;  // allow beyond the paper's 11 to observe the plateau
  const std::vector<Seconds> times = coupled_main_times(p);
  // 11 procs = 8 atmosphere workers = saturation; 12, 13, 14 change nothing.
  ASSERT_EQ(times.size(), 11u);
  EXPECT_DOUBLE_EQ(times[12 - 4], times[11 - 4]);
  EXPECT_DOUBLE_EQ(times[14 - 4], times[11 - 4]);
}

TEST(CoupledModel, SpeedFactorScalesLinearly) {
  CoupledParams p;
  p.speed_factor = 2.0;
  const std::vector<Seconds> slow = coupled_main_times(p);
  const std::vector<Seconds> fast = coupled_main_times();
  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(slow[i], 2.0 * fast[i], 1e-9);
}

TEST(CoupledModel, ValidatesParams) {
  CoupledParams p;
  p.speed_factor = 0;
  EXPECT_THROW((void)coupled_main_times(p), std::invalid_argument);
  p = CoupledParams{};
  p.max_group = 3;  // <= pinned
  EXPECT_THROW((void)coupled_main_times(p), std::invalid_argument);
  p = CoupledParams{};
  p.atm_work = -1;
  EXPECT_THROW((void)coupled_main_times(p), std::invalid_argument);
}

TEST(AmdahlMainTimes, LimitsAndShape) {
  const std::vector<Seconds> times = amdahl_main_times(100.0, 0.2, 1, 64);
  ASSERT_EQ(times.size(), 64u);
  EXPECT_DOUBLE_EQ(times.front(), 100.0);
  // Infinite processors would leave the serial 20 s; 64 is close.
  EXPECT_NEAR(times.back(), 100.0 * (0.2 + 0.8 / 64), 1e-9);
  for (std::size_t i = 0; i + 1 < times.size(); ++i)
    EXPECT_GT(times[i], times[i + 1]);
}

TEST(AmdahlMainTimes, Validation) {
  EXPECT_THROW((void)amdahl_main_times(0, 0.5, 1, 4), std::invalid_argument);
  EXPECT_THROW((void)amdahl_main_times(10, 1.5, 1, 4), std::invalid_argument);
  EXPECT_THROW((void)amdahl_main_times(10, 0.5, 4, 1), std::invalid_argument);
}

TEST(PowerLawMainTimes, Shape) {
  const std::vector<Seconds> times = power_law_main_times(100.0, 0.5, 1, 16);
  ASSERT_EQ(times.size(), 16u);
  EXPECT_DOUBLE_EQ(times[1 - 1], 100.0);
  EXPECT_NEAR(times[4 - 1], 50.0, 1e-9);
  EXPECT_NEAR(times[16 - 1], 25.0, 1e-9);
}

TEST(PowerLawMainTimes, Validation) {
  EXPECT_THROW((void)power_law_main_times(10, 0.0, 1, 4),
               std::invalid_argument);
  EXPECT_THROW((void)power_law_main_times(10, 1.5, 1, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::platform
