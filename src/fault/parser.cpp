#include "fault/parser.hpp"

#include <optional>
#include <ostream>
#include <sstream>

#include "common/parse_error.hpp"

namespace oagrid::fault {
namespace {

double read_positive(std::istream& in, const std::string& source, int line,
                     const std::string& what) {
  double v = 0.0;
  if (!read_number(in, v) || v <= 0.0)
    throw_parse_error(source, line, "expected a positive " + what);
  return v;
}

double read_non_negative(std::istream& in, const std::string& source,
                         int line, const std::string& what) {
  double v = -1.0;
  if (!read_number(in, v) || v < 0.0)
    throw_parse_error(source, line, "expected a non-negative " + what);
  return v;
}

}  // namespace

FailureModel parse_failures(std::istream& in, const std::string& source) {
  std::optional<FailureModel> model;
  for_each_directive(in, source, [&](const std::string& keyword,
                                     std::istream& line, int line_no) {
    if (keyword == "failures") {
      if (model)
        throw_parse_error(source, line_no, "duplicate 'failures' directive");
      int clusters = 0;
      if (!read_number(line, clusters) || clusters < 1)
        throw_parse_error(source, line_no,
                          "'failures' needs a positive cluster count");
      model.emplace(clusters);
    } else if (!model) {
      throw_parse_error(source, line_no, "directive '" + keyword +
                                             "' before 'failures <count>'");
    } else if (keyword == "seed") {
      std::uint64_t seed = 0;
      if (!read_number(line, seed))
        throw_parse_error(source, line_no, "'seed' needs an unsigned integer");
      model->set_seed(seed);
    } else if (keyword == "mtbf") {
      const ClusterId c =
          read_cluster_id(line, source, line_no, model->cluster_count());
      const double mtbf = read_positive(line, source, line_no, "MTBF [s]");
      const double mttr =
          read_non_negative(line, source, line_no, "MTTR [s]");
      model->set_exponential(c, mtbf, mttr);
    } else if (keyword == "weibull") {
      const ClusterId c =
          read_cluster_id(line, source, line_no, model->cluster_count());
      const double shape =
          read_positive(line, source, line_no, "Weibull shape");
      const double mtbf = read_positive(line, source, line_no, "MTBF [s]");
      const double mttr =
          read_non_negative(line, source, line_no, "MTTR [s]");
      model->set_weibull(c, shape, mtbf, mttr);
    } else if (keyword == "outage") {
      const ClusterId c =
          read_cluster_id(line, source, line_no, model->cluster_count());
      const double start =
          read_non_negative(line, source, line_no, "outage start [s]");
      const double duration =
          read_positive(line, source, line_no, "outage duration [s]");
      model->add_outage(c, start, duration);
    } else if (keyword == "down") {
      model->set_down(
          read_cluster_id(line, source, line_no, model->cluster_count()));
    } else {
      throw_parse_error(source, line_no,
                        "unknown directive '" + keyword + "'");
    }
  });
  if (!model) throw_parse_error(source, "no 'failures <count>' line");
  return *model;
}

FailureModel parse_failures_string(const std::string& text,
                                   const std::string& source) {
  std::istringstream in(text);
  return parse_failures(in, source);
}

void write_failures(std::ostream& out, const FailureModel& model) {
  // 17 significant digits round-trip any double exactly.
  out.precision(17);
  out << "failures " << model.cluster_count() << '\n';
  out << "seed " << model.seed() << '\n';
  for (ClusterId c = 0; c < model.cluster_count(); ++c) {
    const FailureProcess& p = model.process(c);
    switch (p.kind) {
      case ProcessKind::kNone:
        break;
      case ProcessKind::kExponential:
        out << "mtbf " << c << ' ' << p.mtbf << ' ' << p.mttr << '\n';
        break;
      case ProcessKind::kWeibull:
        out << "weibull " << c << ' ' << p.shape << ' ' << p.mtbf << ' '
            << p.mttr << '\n';
        break;
      case ProcessKind::kDown:
        out << "down " << c << '\n';
        break;
    }
    for (const Outage& o : p.outages)
      out << "outage " << c << ' ' << o.start << ' ' << o.duration << '\n';
  }
}

}  // namespace oagrid::fault
