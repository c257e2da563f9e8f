#include "fault/parser.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace oagrid::fault {
namespace {

TEST(FaultParser, ParsesEveryDirective) {
  const FailureModel model = parse_failures_string(
      "# comment line\n"
      "failures 4\n"
      "seed 42\n"
      "mtbf 0 86400 3600\n"
      "weibull 1 0.7 43200 1800  # infant mortality\n"
      "outage 2 1000 500\n"
      "outage 2 9000 250\n"
      "down 3\n");
  EXPECT_EQ(model.cluster_count(), 4);
  EXPECT_EQ(model.seed(), 42u);
  EXPECT_EQ(model.process(0).kind, ProcessKind::kExponential);
  EXPECT_EQ(model.process(0).mtbf, 86400.0);
  EXPECT_EQ(model.process(0).mttr, 3600.0);
  EXPECT_EQ(model.process(1).kind, ProcessKind::kWeibull);
  EXPECT_EQ(model.process(1).shape, 0.7);
  ASSERT_EQ(model.process(2).outages.size(), 2u);
  EXPECT_EQ(model.process(2).outages[0].start, 1000.0);
  EXPECT_EQ(model.process(2).outages[0].duration, 500.0);
  EXPECT_EQ(model.process(3).kind, ProcessKind::kDown);
}

TEST(FaultParser, WriteParseRoundTripsExactly) {
  FailureModel model(3);
  model.set_seed(1234567890123ull);
  model.set_exponential(0, 86400.125, 3600.0625);
  model.set_weibull(1, 0.712345678901234, 43210.9876543210987, 1813.5);
  model.add_outage(1, 0.1234567890123456, 7.5);
  model.set_down(2);
  model.add_outage(2, 100.0, 0.000244140625);

  std::ostringstream out;
  write_failures(out, model);
  const FailureModel reparsed = parse_failures_string(out.str());

  // Exact double round trip: the 64-bit content signature covers every
  // parameter, outage window and the seed.
  EXPECT_EQ(model.signature(), reparsed.signature());
  EXPECT_EQ(reparsed.process(1).mtbf, 43210.9876543210987);
  EXPECT_EQ(reparsed.process(1).outages[0].start, 0.1234567890123456);

  // And the writer is a fixed point: write(parse(write(m))) == write(m).
  std::ostringstream again;
  write_failures(again, reparsed);
  EXPECT_EQ(out.str(), again.str());
}

std::string message_of(const std::string& text) {
  try {
    (void)parse_failures_string(text);
  } catch (const std::invalid_argument& e) {
    return std::string(e.what());
  }
  return std::string("no error");
}

TEST(FaultParser, ErrorsCarryLineNumbers) {
  // Directive before the header.
  EXPECT_NE(message_of("mtbf 0 100 10\n").find("failures:1: "), std::string::npos);
  // Unknown directive.
  EXPECT_NE(message_of("failures 2\nbogus 1 2\n").find("failures:2: "),
            std::string::npos);
  EXPECT_NE(message_of("failures 2\nbogus 1 2\n").find("bogus"),
            std::string::npos);
  // Duplicate header.
  EXPECT_NE(message_of("failures 2\nfailures 2\n").find("failures:2: "),
            std::string::npos);
  // Bad cluster id.
  EXPECT_NE(message_of("failures 2\nmtbf 5 100 10\n").find("failures:2: "),
            std::string::npos);
  // A blank/comment line still advances the line counter.
  EXPECT_NE(
      message_of("failures 2\n# comment\n\nmtbf 0 -100 10\n")
          .find("failures:4: "),
      std::string::npos);
}

TEST(FaultParser, RejectsNegativeMtbf) {
  const std::string message = message_of("failures 1\nmtbf 0 -86400 3600\n");
  EXPECT_NE(message.find("failures:2: "), std::string::npos);
  EXPECT_NE(message.find("positive MTBF"), std::string::npos);
  EXPECT_NE(message_of("failures 1\nweibull 0 0.7 -1 10\n").find("MTBF"),
            std::string::npos);
  EXPECT_NE(message_of("failures 1\nmtbf 0 100 -1\n").find("MTTR"),
            std::string::npos);
}

TEST(FaultParser, RejectsTruncatedLines) {
  // mtbf missing the MTTR field.
  const std::string message = message_of("failures 1\nmtbf 0 86400\n");
  EXPECT_NE(message.find("failures:2: "), std::string::npos);
  EXPECT_NE(message.find("MTTR"), std::string::npos);
  // outage missing the duration.
  EXPECT_NE(message_of("failures 1\noutage 0 100\n").find("failures:2: "),
            std::string::npos);
  // weibull missing everything after the cluster.
  EXPECT_NE(message_of("failures 1\nweibull 0\n").find("failures:2: "),
            std::string::npos);
  // header missing the count.
  EXPECT_NE(message_of("failures\n").find("failures:1: "), std::string::npos);
}

TEST(FaultParser, RejectsOtherBadValues) {
  EXPECT_NE(message_of("failures 0\n").find("positive cluster count"),
            std::string::npos);
  EXPECT_NE(message_of("failures 1\noutage 0 -5 10\n").find("outage start"),
            std::string::npos);
  EXPECT_NE(message_of("failures 1\noutage 0 5 0\n").find("outage duration"),
            std::string::npos);
  EXPECT_NE(message_of("failures 1\nseed nope\n").find("seed"),
            std::string::npos);
  // A directive consumes its whole line and a number its whole token.
  for (const char* text :
       {"failures 1\nmtbf 0 86400 3600 oops\n", "failures 1\nseed 12abc\n",
        "failures 1\nmtbf 0.5 86400 3600\n", "failures 1\ndown 0 0\n",
        "failures 1\noutage 0 100 50s\n"})
    EXPECT_NE(message_of(text).find("failures:2: "), std::string::npos)
        << text;
}

TEST(FaultParser, RequiresHeader) {
  EXPECT_NE(message_of("").find("no 'failures"), std::string::npos);
  EXPECT_NE(message_of("# only comments\n\n").find("no 'failures"),
            std::string::npos);
}

TEST(FaultParser, StreamOverloadMatchesStringOverload) {
  const std::string text = "failures 1\nmtbf 0 1000 100\n";
  std::istringstream in(text);
  EXPECT_EQ(parse_failures(in).signature(),
            parse_failures_string(text).signature());
}

}  // namespace
}  // namespace oagrid::fault
