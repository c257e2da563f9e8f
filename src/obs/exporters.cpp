#include "obs/exporters.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/table.hpp"

namespace oagrid::obs {

namespace {

/// Exact, locale-free representation: the shortest decimal that parses back
/// to the same double (a trace timestamp must keep every bit to stay ordered
/// against its neighbours), without an exponent below 1e15.
std::string fmt_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[400];  // fixed notation of the smallest subnormal fits
  const auto format = std::abs(value) < 1e15 ? std::chars_format::fixed
                                             : std::chars_format::general;
  return {buf, std::to_chars(buf, buf + sizeof buf, value, format).ptr};
}

std::string sanitize_prometheus(const std::string& name) {
  std::string out = "oagrid_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

const char* kind_label(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter: return "counter";
    case MetricSnapshot::Kind::kGauge: return "gauge";
    case MetricSnapshot::Kind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const TraceBuffer& buffer) {
  const std::vector<TraceEvent> events = buffer.events();
  const auto names = buffer.track_names();

  os << "{\"traceEvents\":[";
  bool first = true;
  const auto separator = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Process-name metadata: one entry per timeline actually used.
  bool wall_used = false;
  bool sim_used = false;
  for (const TraceEvent& event : events) {
    wall_used = wall_used || event.pid == kWallPid;
    sim_used = sim_used || event.pid == kSimPid;
  }
  for (const auto& [key, name] : names) {
    wall_used = wall_used || key.first == kWallPid;
    sim_used = sim_used || key.first == kSimPid;
  }
  if (wall_used) {
    separator();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kWallPid
       << ",\"args\":{\"name\":\"wall clock (us)\"}}";
  }
  if (sim_used) {
    separator();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
       << ",\"args\":{\"name\":\"simulated time (1 us = 1 s)\"}}";
  }
  for (const auto& [key, name] : names) {
    separator();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
       << ",\"tid\":" << key.second << ",\"args\":{\"name\":\""
       << json_escape(name) << "\"}}";
  }

  for (const TraceEvent& event : events) {
    separator();
    os << "{\"name\":\"" << json_escape(event.name) << "\",";
    if (!event.category.empty())
      os << "\"cat\":\"" << json_escape(event.category) << "\",";
    os << "\"ph\":\"X\",\"pid\":" << event.pid << ",\"tid\":" << event.track
       << ",\"ts\":" << fmt_number(event.ts_us)
       << ",\"dur\":" << fmt_number(event.dur_us)
       << ",\"args\":{\"depth\":" << event.depth << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void write_prometheus(std::ostream& os, const MetricsRegistry& registry) {
  for (const MetricSnapshot& metric : registry.snapshot()) {
    const std::string name = sanitize_prometheus(metric.name);
    switch (metric.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << " " << fmt_number(metric.value) << "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << fmt_number(metric.value) << "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const HistogramSnapshot& h = metric.histogram;
        os << "# TYPE " << name << " summary\n";
        for (const double q : {0.5, 0.95, 0.99})
          os << name << "{quantile=\"" << fmt_number(q) << "\"} "
             << fmt_number(h.quantile(q)) << "\n";
        os << name << "_sum " << fmt_number(h.sum) << "\n"
           << name << "_count " << h.count << "\n";
        break;
      }
    }
  }
}

void write_metrics_table(std::ostream& os, const MetricsRegistry& registry) {
  TableWriter table(
      {"metric", "kind", "count", "value/sum", "p50", "p95", "p99", "max"});
  for (const MetricSnapshot& metric : registry.snapshot()) {
    switch (metric.kind) {
      case MetricSnapshot::Kind::kCounter:
      case MetricSnapshot::Kind::kGauge:
        table.add_row({metric.name, kind_label(metric.kind), "-",
                       fmt_number(metric.value), "-", "-", "-", "-"});
        break;
      case MetricSnapshot::Kind::kHistogram: {
        const HistogramSnapshot& h = metric.histogram;
        table.add_row({metric.name, kind_label(metric.kind),
                       std::to_string(h.count), fmt_number(h.sum),
                       fmt_number(h.quantile(0.5)),
                       fmt_number(h.quantile(0.95)),
                       fmt_number(h.quantile(0.99)), fmt_number(h.max)});
        break;
      }
    }
  }
  table.print(os);
}

}  // namespace oagrid::obs
