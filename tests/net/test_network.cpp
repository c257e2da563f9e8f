#include "net/network.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "net/parser.hpp"

namespace oagrid::net {
namespace {

TEST(NetworkModel, DefaultsToFreeLinks) {
  const NetworkModel model(4);
  EXPECT_EQ(model.cluster_count(), 4);
  EXPECT_TRUE(model.is_free());
  for (ClusterId a = 0; a < 4; ++a)
    for (ClusterId b = 0; b < 4; ++b) {
      EXPECT_TRUE(model.link(a, b).is_free());
      // A transfer over a free link costs exactly zero, not epsilon.
      EXPECT_EQ(model.transfer_time(a, b, 1e9), 0.0);
    }
}

TEST(NetworkModel, TransferTimeIsLatencyPlusSizeOverBandwidth) {
  NetworkModel model(2);
  model.set_link(0, 1, LinkSpec{100.0, 0.5});
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 1, 250.0), 0.5 + 2.5);
  // Symmetric setter covers both directions.
  EXPECT_DOUBLE_EQ(model.transfer_time(1, 0, 250.0), 0.5 + 2.5);
  // Zero-size transfers cost exactly nothing (no latency charge).
  EXPECT_EQ(model.transfer_time(0, 1, 0.0), 0.0);
}

TEST(NetworkModel, IntraAndInterAreIndependent) {
  NetworkModel model(2);
  model.set_default_inter(LinkSpec{10.0, 1.0});
  model.set_intra(0, LinkSpec{1000.0, 0.001});
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 0, 100.0), 0.001 + 0.1);
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 1, 100.0), 1.0 + 10.0);
  EXPECT_TRUE(model.link(1, 1).is_free());  // untouched intra fabric
}

TEST(NetworkModel, ValidationErrors) {
  EXPECT_THROW(NetworkModel(0), std::invalid_argument);
  NetworkModel model(2);
  EXPECT_THROW(model.set_link(0, 0, LinkSpec{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(model.set_link(0, 2, LinkSpec{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(model.set_link(0, 1, LinkSpec{-5.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(model.set_link(0, 1, LinkSpec{1.0, -0.1}),
               std::invalid_argument);
  EXPECT_THROW((void)model.link(0, 2), std::invalid_argument);
}

TEST(NetworkModel, RenaterProfileShape) {
  const NetworkModel model = renater_network(3);
  EXPECT_FALSE(model.is_free());
  // Inter-site slower and laggier than intra fabric.
  EXPECT_LT(model.link(0, 0).latency, model.link(0, 1).latency);
  EXPECT_GT(model.link(0, 0).bandwidth_mbps, model.link(0, 1).bandwidth_mbps);
  // ~120 MB restart over the backbone lands in the paper-era tens-of-seconds
  // ballpark, not milliseconds or hours.
  const Seconds restart = model.transfer_time(0, 1, 120.0);
  EXPECT_GT(restart, 0.1);
  EXPECT_LT(restart, 60.0);
}

TEST(NetworkParser, ParsesDirectivesAndComments) {
  const std::string text = R"(# Grid'5000 subset
network 3
inter_default 125 0.008
intra_default 1000 0.0001   # trailing comment
link 0 2 50 0.02
intra 1 500 0.001
)";
  const NetworkModel model = parse_network_string(text);
  EXPECT_EQ(model.cluster_count(), 3);
  EXPECT_EQ(model.link(0, 1), (LinkSpec{125.0, 0.008}));
  EXPECT_EQ(model.link(0, 2), (LinkSpec{50.0, 0.02}));
  EXPECT_EQ(model.link(2, 0), (LinkSpec{50.0, 0.02}));
  EXPECT_EQ(model.link(0, 0), (LinkSpec{1000.0, 0.0001}));
  EXPECT_EQ(model.link(1, 1), (LinkSpec{500.0, 0.001}));
}

TEST(NetworkParser, InfBandwidthToken) {
  const NetworkModel model =
      parse_network_string("network 2\nlink 0 1 inf 0.25\n");
  EXPECT_EQ(model.link(0, 1).bandwidth_mbps, kInfiniteBandwidth);
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 1, 1000.0), 0.25);
}

TEST(NetworkParser, ErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)parse_network_string(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  // Unified "<source>:<line>: message" diagnostics (common/parse_error.hpp).
  EXPECT_NE(message_of("link 0 1 10 0\n").find("network:1: "),
            std::string::npos);
  EXPECT_NE(message_of("network 2\nbogus 1 2\n").find("network:2: "),
            std::string::npos);
  EXPECT_NE(message_of("network 2\nlink 0 0 10 0\n").find("network:2: "),
            std::string::npos);
  EXPECT_NE(message_of("network 2\nlink 0 5 10 0\n").find("network:2: "),
            std::string::npos);
  EXPECT_NE(message_of("network 2\nlink 0 1 -3 0\n").find("bandwidth"),
            std::string::npos);
  EXPECT_NE(message_of("").find("no 'network"), std::string::npos);
  // A directive consumes its whole line and a number its whole token.
  for (const char* text :
       {"network 2\nintra 0 100 0.01 trailing garbage\n",
        "network 2\nlink 0 1 100abc 0.1\n", "network 2\nlink 0 1 100 0.1s\n",
        "network 2\nintra 1.5 100 0.1\n"})
    EXPECT_NE(message_of(text).find("network:2: "), std::string::npos) << text;
  EXPECT_NE(message_of("network 2\nlink 0 1 100abc 0.1\n").find("bandwidth"),
            std::string::npos);
  EXPECT_NE(message_of("network 2 3\n").find("network:1: "),
            std::string::npos);
}

TEST(NetworkParser, WriteParseRoundTripsExactly) {
  NetworkModel model = renater_network(4);
  model.set_link(1, 3, LinkSpec{33.125, 0.0123456789012345});
  model.set_intra(2, LinkSpec{kInfiniteBandwidth, 0.5});

  std::ostringstream out;
  write_network(out, model);
  const NetworkModel reparsed = parse_network_string(out.str());
  EXPECT_EQ(model, reparsed);
}

TEST(NetworkParser, FreeModelRoundTrips) {
  std::ostringstream out;
  write_network(out, free_network(2));
  const NetworkModel reparsed = parse_network_string(out.str());
  EXPECT_TRUE(reparsed.is_free());
  EXPECT_EQ(reparsed, free_network(2));
}

}  // namespace
}  // namespace oagrid::net
