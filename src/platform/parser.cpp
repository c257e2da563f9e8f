#include "platform/parser.hpp"

#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "common/parse_error.hpp"

namespace oagrid::platform {
namespace {

struct PendingCluster {
  std::string name;
  std::optional<ProcCount> resources;
  std::optional<ProcCount> min_group;
  std::vector<Seconds> main_times;
  std::optional<Seconds> post_time;
  int start_line = 0;
};

Cluster finish(const PendingCluster& p, const std::string& source) {
  const auto missing = [&](const char* directive) {
    throw_parse_error(source, p.start_line,
                      "cluster '" + p.name + "' missing '" + directive + "'");
  };
  if (!p.resources) missing("resources");
  if (!p.min_group) missing("min_group");
  if (p.main_times.empty()) missing("main_times");
  if (!p.post_time) missing("post_time");
  return Cluster(p.name, *p.resources, *p.min_group, p.main_times, *p.post_time);
}

}  // namespace

Grid parse_grid(std::istream& in, const std::string& source) {
  Grid grid;
  std::optional<PendingCluster> current;
  std::set<std::string> names;
  for_each_directive(in, source, [&](const std::string& keyword,
                                     std::istream& line, int line_no) {
    const auto fail = [&](const std::string& message) {
      throw_parse_error(source, line_no, message);
    };
    if (keyword == "cluster") {
      if (current) grid.add_cluster(finish(*current, source));
      current.emplace();
      current->start_line = line_no;
      if (!(line >> current->name)) fail("'cluster' needs a name");
      // The failure-aware estimator finds a cluster's process by name.
      if (!names.insert(current->name).second)
        fail("duplicate cluster name '" + current->name + "'");
    } else if (!current) {
      fail("directive '" + keyword + "' before any 'cluster'");
    } else if (keyword == "resources") {
      ProcCount r = 0;
      if (!read_number(line, r) || r < 1)
        fail("'resources' needs a positive integer");
      current->resources = r;
    } else if (keyword == "min_group") {
      ProcCount g = 0;
      if (!read_number(line, g) || g < 1)
        fail("'min_group' needs a positive integer");
      current->min_group = g;
    } else if (keyword == "main_times") {
      Seconds t = 0;
      while (!(line >> std::ws).eof()) {
        if (!read_number(line, t) || t <= 0)
          fail("'main_times' entries must be positive numbers");
        current->main_times.push_back(t);
      }
      if (current->main_times.empty()) fail("'main_times' needs >= 1 value");
    } else if (keyword == "post_time") {
      Seconds t = 0;
      if (!read_number(line, t) || t <= 0)
        fail("'post_time' needs a positive number");
      current->post_time = t;
    } else {
      fail("unknown directive '" + keyword + "'");
    }
  });
  if (current) grid.add_cluster(finish(*current, source));
  if (grid.cluster_count() == 0)
    throw_parse_error(source, "no 'cluster' directive");
  return grid;
}

Grid parse_grid_string(const std::string& text, const std::string& source) {
  std::istringstream in(text);
  return parse_grid(in, source);
}

void write_grid(std::ostream& out, const Grid& grid) {
  // 17 significant digits round-trip any double exactly.
  out.precision(17);
  for (const auto& c : grid.clusters()) {
    out << "cluster " << c.name() << '\n';
    out << "resources " << c.resources() << '\n';
    out << "min_group " << c.min_group() << '\n';
    out << "main_times";
    for (const Seconds t : c.main_times()) out << ' ' << t;
    out << '\n';
    out << "post_time " << c.post_time() << "\n\n";
  }
}

}  // namespace oagrid::platform
