#pragma once
/// \file exporters.hpp
/// \brief Publication-quality exports: SVG Gantt charts and Chrome slices of
/// traces, Graphviz DOT of workflow DAGs — the visual artifacts a release of
/// this system would ship alongside its numbers.

#include <iosfwd>
#include <string>

#include "dag/dag.hpp"
#include "obs/trace.hpp"
#include "sim/trace.hpp"

namespace oagrid::sim {

/// Appends one slice per trace entry to `buffer`'s simulated timeline, after
/// the run. Group g is track `track_base + g` ("<label> group g (Np)"), post
/// worker w is `track_base + groups + w` ("<label> post worker w"); slices
/// are "s{S} m{M}" / "post s{S} m{M}" in category main, retry, killed,
/// rewound or post.
void export_sim_timeline(const Trace& trace, obs::TraceBuffer& buffer,
                         int track_base = 0, const std::string& label = "");

struct SvgOptions {
  int width = 1000;         ///< drawing width in px (plus margins)
  int row_height = 18;      ///< px per unit row
  std::string title;        ///< optional chart title
};

/// Writes the trace's done mains and posts as a standalone SVG Gantt: one
/// row per unit (groups on top, post workers below), one rect per
/// execution, colored by scenario, with a time axis. Throws
/// std::invalid_argument on an empty trace.
void write_svg_gantt(std::ostream& out, const Trace& trace,
                     const SvgOptions& options = {});

/// Writes a frozen DAG in Graphviz DOT: moldable tasks as double octagons
/// with their processor range, rigid tasks as boxes, edges labeled with
/// their data volume when nonzero.
void write_dot(std::ostream& out, const dag::Dag& graph,
               const std::string& name = "workflow");

}  // namespace oagrid::sim
