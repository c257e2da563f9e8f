#include "climate/field.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace oagrid::climate {
namespace {

TEST(Region, ContainsBasicBox) {
  const Region box{"box", -10, 10, 20, 40};
  EXPECT_TRUE(box.contains(0, 30));
  EXPECT_FALSE(box.contains(15, 30));
  EXPECT_FALSE(box.contains(0, 50));
}

TEST(Region, WrapsDateLine) {
  const Region pacific{"pacific", -10, 10, 160, -160};
  EXPECT_TRUE(pacific.contains(0, 170));
  EXPECT_TRUE(pacific.contains(0, -170));
  EXPECT_FALSE(pacific.contains(0, 0));
}

TEST(Region, KeyRegionsIncludePaperRelevantOnes) {
  const auto& regions = key_regions();
  EXPECT_GE(regions.size(), 4u);
  EXPECT_EQ(regions[0].name, "global");
}

TEST(Field, ConstructionAndAccess) {
  Field f(4, 8, 3.5);
  EXPECT_EQ(f.nlat(), 4);
  EXPECT_EQ(f.nlon(), 8);
  EXPECT_EQ(f.size(), 32u);
  EXPECT_DOUBLE_EQ(f.at(0, 0), 3.5);
  f.at(2, 3) = -1.0;
  EXPECT_DOUBLE_EQ(f.at(2, 3), -1.0);
  EXPECT_THROW((void)f.at(4, 0), std::invalid_argument);
  EXPECT_THROW((void)f.at(0, 8), std::invalid_argument);
  EXPECT_THROW(Field(1, 8), std::invalid_argument);
}

TEST(Field, CellCenters) {
  const Field f(4, 8);
  EXPECT_DOUBLE_EQ(f.latitude(0), -67.5);
  EXPECT_DOUBLE_EQ(f.latitude(3), 67.5);
  EXPECT_DOUBLE_EQ(f.longitude(0), -157.5);
  EXPECT_DOUBLE_EQ(f.longitude(7), 157.5);
}

TEST(Field, WeightedMeanOfConstantIsConstant) {
  Field f(12, 24, 7.25);
  EXPECT_NEAR(f.weighted_mean(), 7.25, 1e-12);
}

TEST(Field, WeightedMeanDiscountsPoles) {
  // Warm tropics, cold poles: an unweighted mean of this checkerboard would
  // be 0; the area weighting must pull it towards the tropical value.
  Field f(18, 36);
  f.fill_with([](double lat, double) { return std::abs(lat) < 30 ? 1.0 : -1.0; });
  EXPECT_GT(f.weighted_mean(), -0.35);  // cos-weighted: tropics dominate
  double unweighted = 0;
  for (const double v : f.data()) unweighted += v;
  unweighted /= static_cast<double>(f.size());
  EXPECT_GT(f.weighted_mean(), unweighted);
}

TEST(Field, RegionalMeanSelectsBox) {
  Field f(18, 36);
  f.fill_with([](double lat, double) { return lat > 60 ? 5.0 : 1.0; });
  const Region arctic{"arctic", 66.5, 90, -180, 180};
  EXPECT_NEAR(f.regional_mean(arctic), 5.0, 1e-12);
  const Region tropics{"tropics", -23.5, 23.5, -180, 180};
  EXPECT_NEAR(f.regional_mean(tropics), 1.0, 1e-12);
}

TEST(Field, RegionalMeanThrowsOnEmptyRegion) {
  const Field f(4, 8);
  const Region sliver{"sliver", 89.99, 90, 0, 0.01};
  EXPECT_THROW((void)f.regional_mean(sliver), std::invalid_argument);
  try {
    (void)f.regional_mean(sliver);
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "oagrid: region 'sliver' covers no grid cell [violated: den "
                 "> 0.0]");
  }
}

TEST(Field, MinMax) {
  Field f(4, 8, 2.0);
  f.at(1, 1) = -5;
  f.at(3, 7) = 9;
  EXPECT_DOUBLE_EQ(f.min(), -5);
  EXPECT_DOUBLE_EQ(f.max(), 9);
}

TEST(Field, LaplacianOfConstantIsZero) {
  const Field f(8, 16, 4.0);
  Field lap(8, 16);
  f.laplacian(lap);
  for (const double v : lap.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Field, LaplacianSumsToZeroWithInsulatedBoundaries) {
  // Insulated boundaries conserve the integral: sum of the Laplacian is 0.
  Field f(8, 16);
  f.fill_with([](double lat, double lon) { return lat * 0.1 + std::sin(lon / 30.0); });
  Field lap(8, 16);
  f.laplacian(lap);
  double sum = 0;
  for (const double v : lap.data()) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Field, LaplacianSmoothsPeaks) {
  Field f(8, 16, 0.0);
  f.at(4, 8) = 10.0;
  Field lap(8, 16);
  f.laplacian(lap);
  EXPECT_LT(lap.at(4, 8), 0.0);   // peak decays
  EXPECT_GT(lap.at(4, 9), 0.0);   // neighbors warm
  EXPECT_GT(lap.at(3, 8), 0.0);
}

TEST(Field, LaplacianPeriodicInLongitude) {
  Field f(4, 8, 0.0);
  f.at(2, 0) = 6.0;
  Field lap(4, 8);
  f.laplacian(lap);
  EXPECT_GT(lap.at(2, 7), 0.0);  // wraps around the date line
}

TEST(Field, LaplacianDimsChecked) {
  const Field f(4, 8);
  Field wrong(4, 12);
  EXPECT_THROW(f.laplacian(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace oagrid::climate
