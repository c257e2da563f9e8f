#include "sim/exporters.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

namespace oagrid::sim {
namespace {

/// Color-blind-friendly categorical palette (Okabe-Ito), cycled by scenario.
const char* scenario_color(ScenarioId scenario) {
  static const char* kPalette[] = {"#0072B2", "#E69F00", "#009E73", "#CC79A7",
                                   "#56B4E9", "#D55E00", "#F0E442", "#999999"};
  return kPalette[static_cast<std::size_t>(scenario) % 8];
}

std::string xml_escape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += ch;
    }
  }
  return out;
}

}  // namespace

void export_sim_timeline(const Trace& trace, obs::TraceBuffer& buffer,
                         int track_base, const std::string& label) {
  const std::string prefix = label.empty() ? "" : label + " ";
  const auto groups = static_cast<int>(trace.group_sizes.size());
  for (int g = 0; g < groups; ++g)
    buffer.set_track_name(
        obs::kSimPid, track_base + g,
        prefix + "group " + std::to_string(g) + " (" +
            std::to_string(trace.group_sizes[static_cast<std::size_t>(g)]) +
            "p)");
  std::set<int> workers;
  for (const TraceEntry& e : trace.entries()) {
    const bool post = e.unit_kind == UnitKind::kPostWorker;
    const int track = track_base + (post ? groups : 0) + e.unit;
    if (post && workers.insert(e.unit).second)
      buffer.set_track_name(obs::kSimPid, track,
                            prefix + "post worker " + std::to_string(e.unit));
    const char* category = to_string(e.outcome);
    if (e.outcome == Outcome::kDone) category = post ? "post" : "main";
    buffer.emit_complete({(post ? "post s" : "s") + std::to_string(e.scenario) +
                              " m" + std::to_string(e.month),
                          category, obs::kSimPid, track, e.start,
                          e.end - e.start});
  }
}

void write_svg_gantt(std::ostream& out, const Trace& trace,
                     const SvgOptions& options) {
  OAGRID_REQUIRE(!trace.empty(), "cannot render an empty trace");
  OAGRID_REQUIRE(options.width >= 100 && options.row_height >= 8,
                 "SVG dimensions too small");

  Seconds horizon = 0.0;
  // Stable row order: groups first then post workers, by unit index.
  std::map<std::pair<int, int>, int> row_of;
  for (const auto& e : trace.entries()) {
    if (e.outcome != Outcome::kDone) continue;
    horizon = std::max(horizon, e.end);
    row_of.try_emplace({e.unit_kind == UnitKind::kGroup ? 0 : 1, e.unit}, 0);
  }
  int next_row = 0;
  for (auto& [key, row] : row_of) row = next_row++;
  if (horizon <= 0.0) horizon = 1.0;

  const int margin_left = 60;
  const int margin_top = options.title.empty() ? 20 : 44;
  const int height = margin_top + next_row * options.row_height + 40;
  const int total_width = margin_left + options.width + 20;

  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << total_width
      << "\" height=\"" << height << "\" font-family=\"sans-serif\" "
      << "font-size=\"11\">\n";
  out << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  if (!options.title.empty())
    out << "<text x=\"" << margin_left << "\" y=\"24\" font-size=\"15\">"
        << xml_escape(options.title) << "</text>\n";

  // Row labels and lanes.
  for (const auto& [key, row] : row_of) {
    const int y = margin_top + row * options.row_height;
    out << "<text x=\"6\" y=\"" << y + options.row_height - 5 << "\">"
        << (key.first == 0 ? "G" : "P") << key.second << "</text>\n";
    out << "<line x1=\"" << margin_left << "\" y1=\"" << y + options.row_height
        << "\" x2=\"" << margin_left + options.width << "\" y2=\""
        << y + options.row_height
        << "\" stroke=\"#eeeeee\" stroke-width=\"1\"/>\n";
  }

  // Execution rectangles.
  auto x_of = [&](Seconds t) {
    return margin_left +
           static_cast<double>(options.width) * (t / horizon);
  };
  for (const auto& e : trace.entries()) {
    if (e.outcome != Outcome::kDone) continue;
    const int row = row_of.at({e.unit_kind == UnitKind::kGroup ? 0 : 1, e.unit});
    const double x = x_of(e.start);
    const double w = std::max(0.5, x_of(e.end) - x);
    const int y = margin_top + row * options.row_height + 1;
    out << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << w
        << "\" height=\"" << options.row_height - 3 << "\" fill=\""
        << scenario_color(e.scenario) << "\""
        << (e.unit_kind == UnitKind::kPostWorker ? " opacity=\"0.55\"" : "")
        << "><title>scenario " << e.scenario << " month " << e.month << " ["
        << e.start << ", " << e.end << "]</title></rect>\n";
  }

  // Time axis.
  const int axis_y = margin_top + next_row * options.row_height + 14;
  out << "<line x1=\"" << margin_left << "\" y1=\"" << axis_y - 10
      << "\" x2=\"" << margin_left + options.width << "\" y2=\"" << axis_y - 10
      << "\" stroke=\"black\"/>\n";
  for (int tick = 0; tick <= 5; ++tick) {
    const double frac = tick / 5.0;
    const double x = margin_left + options.width * frac;
    out << "<line x1=\"" << x << "\" y1=\"" << axis_y - 13 << "\" x2=\"" << x
        << "\" y2=\"" << axis_y - 7 << "\" stroke=\"black\"/>\n";
    out << "<text x=\"" << x - 10 << "\" y=\"" << axis_y + 6 << "\">"
        << static_cast<long long>(horizon * frac) << "s</text>\n";
  }
  out << "</svg>\n";
}

void write_dot(std::ostream& out, const dag::Dag& graph,
               const std::string& name) {
  OAGRID_REQUIRE(graph.frozen(), "DAG must be frozen");
  out << "digraph \"" << name << "\" {\n";
  out << "  rankdir=LR;\n  node [fontname=\"sans-serif\"];\n";
  for (dag::NodeId v = 0; v < graph.node_count(); ++v) {
    const dag::TaskSpec& spec = graph.task(v);
    out << "  n" << v << " [label=\"" << spec.name << "\\n"
        << spec.ref_duration << " s";
    if (spec.shape == dag::TaskShape::kMoldable)
      out << "\\n[" << spec.min_procs << ".." << spec.max_procs
          << "] procs\" shape=doubleoctagon";
    else
      out << "\" shape=box";
    out << "];\n";
  }
  for (const dag::Edge& e : graph.edges()) {
    out << "  n" << e.from << " -> n" << e.to;
    if (e.data_mb > 0.0) out << " [label=\"" << e.data_mb << " MB\"]";
    out << ";\n";
  }
  out << "}\n";
}

}  // namespace oagrid::sim
