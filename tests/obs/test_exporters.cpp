/// \file test_exporters.cpp
/// \brief Golden-output tests for the three exporters. The inputs are built
/// deterministically (fixed values, single-threaded), so the serialized
/// bytes are stable and any format drift is caught exactly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace oagrid::obs {
namespace {

TEST(JsonEscape, HandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ChromeTrace, GoldenOutput) {
  TraceBuffer buffer;
  buffer.set_track_name(kSimPid, 0, "group 0");
  TraceEvent event;
  event.name = "s0 m1";
  event.category = "main";
  event.pid = kSimPid;
  event.track = 0;
  event.ts_us = 1.5;
  event.dur_us = 2.0;
  buffer.emit_complete(event);

  std::ostringstream os;
  write_chrome_trace(os, buffer);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"args\":{\"name\":\"simulated time (1 us = 1 s)\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
            "\"args\":{\"name\":\"group 0\"}},\n"
            "{\"name\":\"s0 m1\",\"cat\":\"main\",\"ph\":\"X\",\"pid\":2,"
            "\"tid\":0,\"ts\":1.5,\"dur\":2,\"args\":{\"depth\":0}}"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTrace, TimestampsParseBackToTheSameDouble) {
  // Simulated timestamps reach 1e7 s and beyond; six significant digits
  // would merge neighbouring slices into one timestamp.
  std::mt19937_64 rng(20261016);
  std::uniform_real_distribution<double> uniform(0.0, 1e9);
  TraceBuffer buffer;
  std::vector<double> want;
  for (int i = 0; i < 2000; ++i) {
    TraceEvent event;
    event.name = "x";
    event.pid = kSimPid;
    event.ts_us = i == 0 ? 4257130.123456789 : uniform(rng);
    event.dur_us = uniform(rng);
    want.push_back(event.ts_us);
    want.push_back(event.dur_us);
    buffer.emit_complete(event);
  }
  std::ostringstream os;
  write_chrome_trace(os, buffer);
  const std::string text = os.str();

  std::vector<double> got;
  for (std::size_t at = text.find("\"ts\":"); at != std::string::npos;
       at = text.find("\"ts\":", at + 1)) {
    got.push_back(std::strtod(text.c_str() + at + 5, nullptr));
    const std::size_t dur = text.find("\"dur\":", at);
    got.push_back(std::strtod(text.c_str() + dur + 6, nullptr));
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "value " << i;
}

TEST(ChromeTrace, EmptyBufferIsStillValidJson) {
  TraceBuffer buffer;
  std::ostringstream os;
  write_chrome_trace(os, buffer);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(ChromeTrace, WallTimelineMetadataOnlyWhenUsed) {
  TraceBuffer buffer;
  TraceEvent event;
  event.name = "w";
  event.pid = kWallPid;
  buffer.emit_complete(event);
  std::ostringstream os;
  write_chrome_trace(os, buffer);
  EXPECT_NE(os.str().find("wall clock (us)"), std::string::npos);
  EXPECT_EQ(os.str().find("simulated time"), std::string::npos);
}

TEST(Prometheus, GoldenOutput) {
  MetricsRegistry registry;
  registry.histogram("lat").record(4.0);
  registry.gauge("queue.depth").set(2.5);
  registry.counter("requests").add(3);

  std::ostringstream os;
  write_prometheus(os, registry);
  // Sorted by name; dots sanitized to underscores; single-value histogram
  // quantiles clamp to that value.
  EXPECT_EQ(os.str(),
            "# TYPE oagrid_lat summary\n"
            "oagrid_lat{quantile=\"0.5\"} 4\n"
            "oagrid_lat{quantile=\"0.95\"} 4\n"
            "oagrid_lat{quantile=\"0.99\"} 4\n"
            "oagrid_lat_sum 4\n"
            "oagrid_lat_count 1\n"
            "# TYPE oagrid_queue_depth gauge\n"
            "oagrid_queue_depth 2.5\n"
            "# TYPE oagrid_requests counter\n"
            "oagrid_requests 3\n");
}

TEST(MetricsTable, OneRowPerMetricWithQuantileColumns) {
  MetricsRegistry registry;
  registry.counter("sim.events").add(42);
  registry.histogram("wait_us").record(8.0);
  registry.histogram("wait_us").record(8.0);

  std::ostringstream os;
  write_metrics_table(os, registry);
  const std::string text = os.str();

  // Header plus one line per metric (plus the separator rule).
  EXPECT_NE(text.find("metric"), std::string::npos);
  EXPECT_NE(text.find("value/sum"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("sim.events"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("wait_us"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  EXPECT_NE(text.find("16"), std::string::npos);  // sum of the two records
}

}  // namespace
}  // namespace oagrid::obs
