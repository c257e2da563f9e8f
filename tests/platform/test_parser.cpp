#include "platform/parser.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/parse_error.hpp"
#include "platform/profiles.hpp"

namespace oagrid::platform {
namespace {

constexpr const char* kValid = R"(
# two-cluster grid
cluster alpha
resources 53
min_group 4
main_times 4722 2902 2175 1852 1660 1537 1454 1258
post_time 180

cluster beta
resources 20
min_group 4
main_times 500 400 300 200 150 120 110 100
post_time 30
)";

TEST(Parser, ParsesValidFile) {
  const Grid grid = parse_grid_string(kValid);
  ASSERT_EQ(grid.cluster_count(), 2);
  EXPECT_EQ(grid.cluster(0).name(), "alpha");
  EXPECT_EQ(grid.cluster(0).resources(), 53);
  EXPECT_DOUBLE_EQ(grid.cluster(0).main_time(11), 1258);
  EXPECT_DOUBLE_EQ(grid.cluster(1).post_time(), 30);
  EXPECT_EQ(grid.cluster(1).max_group(), 11);
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  const Grid grid = parse_grid_string(
      "cluster x # trailing comment\n# full comment\n\nresources 10\n"
      "min_group 4\nmain_times 9 8\npost_time 1\n");
  EXPECT_EQ(grid.cluster(0).name(), "x");
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_grid_string("cluster x\nresources nope\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("grid:2: "), std::string::npos);
  }
  // A directive consumes its whole line and a number its whole token.
  const std::pair<const char*, int> malformed[] = {
      {"cluster x\nresources 5\nmain_times 1500 1400 x 1300 1200\n", 3},
      {"cluster x\nresources 20.7\n", 2},
      {"cluster x\nresources 20\npost_time 30 extra\n", 3},
      {"cluster x y\n", 1},
  };
  for (const auto& [text, line] : malformed) {
    try {
      (void)parse_grid_string(text, "g.txt");
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.source(), "g.txt") << text;
      EXPECT_EQ(e.line(), line) << text;
    }
  }
}

TEST(Parser, DuplicateClusterNameRejected) {
  // Failure processes are keyed by cluster name: a repeat would alias them.
  const std::string body =
      "resources 20\nmin_group 4\nmain_times 9 8\npost_time 1\n";
  try {
    (void)parse_grid_string("cluster a\n" + body + "cluster a\n" + body,
                            "g.txt");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 6);
    EXPECT_NE(e.message().find("duplicate cluster name 'a'"),
              std::string::npos);
  }
}

TEST(Parser, DirectiveBeforeClusterRejected) {
  EXPECT_THROW((void)parse_grid_string("resources 5\n"), std::invalid_argument);
}

TEST(Parser, MissingFieldRejected) {
  EXPECT_THROW((void)parse_grid_string(
                   "cluster x\nresources 5\nmin_group 4\npost_time 1\n"),
               std::invalid_argument);  // no main_times
  EXPECT_THROW((void)parse_grid_string(
                   "cluster x\nresources 5\nmain_times 1 2\npost_time 1\n"),
               std::invalid_argument);  // no min_group
}

TEST(Parser, UnknownDirectiveRejected) {
  EXPECT_THROW((void)parse_grid_string("cluster x\nfrobnicate 5\n"),
               std::invalid_argument);
}

TEST(Parser, NonPositiveValuesRejected) {
  EXPECT_THROW((void)parse_grid_string("cluster x\nresources 0\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_grid_string(
          "cluster x\nresources 5\nmin_group 4\nmain_times 1 -2\npost_time 1\n"),
      std::invalid_argument);
}

TEST(Parser, EmptyInputRejected) {
  EXPECT_THROW((void)parse_grid_string(""), std::invalid_argument);
  EXPECT_THROW((void)parse_grid_string("# only a comment\n"),
               std::invalid_argument);
}

TEST(Parser, RoundTripsThroughWriter) {
  const Grid original = make_builtin_grid(40);
  std::ostringstream os;
  write_grid(os, original);
  const Grid reparsed = parse_grid_string(os.str());
  ASSERT_EQ(reparsed.cluster_count(), original.cluster_count());
  for (int c = 0; c < original.cluster_count(); ++c) {
    EXPECT_EQ(reparsed.cluster(c).name(), original.cluster(c).name());
    EXPECT_EQ(reparsed.cluster(c).resources(), original.cluster(c).resources());
    for (ProcCount g = 4; g <= 11; ++g)
      EXPECT_NEAR(reparsed.cluster(c).main_time(g),
                  original.cluster(c).main_time(g), 1e-6);
    EXPECT_NEAR(reparsed.cluster(c).post_time(), original.cluster(c).post_time(),
                1e-6);
  }
}

}  // namespace
}  // namespace oagrid::platform
