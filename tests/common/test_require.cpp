#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace oagrid {
namespace {

/// what() of the std::invalid_argument `check` throws.
template <typename Check>
std::string what_of(Check check) {
  try {
    check();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "no exception";
}

TEST(Require, LiteralMessageText) {
  const int groups = 0;
  EXPECT_EQ(what_of([&] {
              OAGRID_REQUIRE(groups >= 1, "need at least one group");
            }),
            "oagrid: need at least one group [violated: groups >= 1]");
}

TEST(Require, MessageIsBuiltOnlyWhenTheCheckFails) {
  int built = 0;
  const auto message = [&] {
    ++built;
    return std::string("unused");
  };
  OAGRID_REQUIRE(built == 0, message());
  EXPECT_EQ(built, 0);
}

}  // namespace
}  // namespace oagrid
