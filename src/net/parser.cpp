#include "net/parser.hpp"

#include <optional>
#include <ostream>
#include <sstream>

#include "common/parse_error.hpp"

namespace oagrid::net {
namespace {

/// Reads "<bandwidth> <latency>" where bandwidth may be `inf`.
LinkSpec read_spec(std::istream& in, const std::string& source, int line) {
  std::string bw_token;
  LinkSpec spec;
  if (!(in >> bw_token))
    throw_parse_error(source, line, "expected a bandwidth [MB/s]");
  if (bw_token == "inf") {
    spec.bandwidth_mbps = kInfiniteBandwidth;
  } else {
    std::istringstream bw(bw_token);
    if (!read_number(bw, spec.bandwidth_mbps) || spec.bandwidth_mbps <= 0.0)
      throw_parse_error(source, line,
                        "bandwidth must be a positive number or 'inf'");
  }
  if (!read_number(in, spec.latency) || spec.latency < 0.0)
    throw_parse_error(source, line, "expected a latency >= 0 [s]");
  return spec;
}

}  // namespace

NetworkModel parse_network(std::istream& in, const std::string& source) {
  std::optional<NetworkModel> model;
  for_each_directive(in, source, [&](const std::string& keyword,
                                     std::istream& line, int line_no) {
    if (keyword == "network") {
      if (model)
        throw_parse_error(source, line_no, "duplicate 'network' directive");
      int clusters = 0;
      if (!read_number(line, clusters) || clusters < 1)
        throw_parse_error(source, line_no,
                          "'network' needs a positive cluster count");
      model.emplace(clusters);
    } else if (!model) {
      throw_parse_error(source, line_no, "directive '" + keyword +
                                             "' before 'network <count>'");
    } else if (keyword == "inter_default") {
      model->set_default_inter(read_spec(line, source, line_no));
    } else if (keyword == "intra_default") {
      model->set_default_intra(read_spec(line, source, line_no));
    } else if (keyword == "link") {
      const ClusterId a =
          read_cluster_id(line, source, line_no, model->cluster_count());
      const ClusterId b =
          read_cluster_id(line, source, line_no, model->cluster_count());
      if (a == b)
        throw_parse_error(source, line_no,
                          "'link' endpoints must differ (use 'intra')");
      model->set_link(a, b, read_spec(line, source, line_no));
    } else if (keyword == "intra") {
      const ClusterId c =
          read_cluster_id(line, source, line_no, model->cluster_count());
      model->set_intra(c, read_spec(line, source, line_no));
    } else {
      throw_parse_error(source, line_no,
                        "unknown directive '" + keyword + "'");
    }
  });
  if (!model) throw_parse_error(source, "no 'network <count>' line");
  return *model;
}

NetworkModel parse_network_string(const std::string& text,
                                  const std::string& source) {
  std::istringstream in(text);
  return parse_network(in, source);
}

void write_network(std::ostream& out, const NetworkModel& model) {
  // 17 significant digits round-trip any double exactly.
  out.precision(17);
  const auto spec_of = [&out](const LinkSpec& spec) {
    if (spec.bandwidth_mbps == kInfiniteBandwidth)
      out << "inf";
    else
      out << spec.bandwidth_mbps;
    out << ' ' << spec.latency << '\n';
  };
  out << "network " << model.cluster_count() << '\n';
  for (ClusterId a = 0; a < model.cluster_count(); ++a)
    for (ClusterId b = a + 1; b < model.cluster_count(); ++b) {
      out << "link " << a << ' ' << b << ' ';
      spec_of(model.link(a, b));
    }
  for (ClusterId c = 0; c < model.cluster_count(); ++c) {
    out << "intra " << c << ' ';
    spec_of(model.link(c, c));
  }
}

}  // namespace oagrid::net
