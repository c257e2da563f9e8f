#pragma once
/// \file parser.hpp
/// \brief Text description format for grids, so experiments can run against
/// user-supplied benchmark tables (the workflow the paper's authors used:
/// benchmark each Grid'5000 cluster, feed the tables to the scheduler).
///
/// Format (line-oriented, '#' starts a comment):
///
///   cluster sagittaire
///   resources 53
///   min_group 4
///   main_times 4722 2902 2175 1852 1660 1537 1454 1258
///   post_time 180
///
///   cluster azur
///   ...
///
/// Every `cluster` directive opens a new cluster; the other four directives
/// must all appear before the next `cluster` or end of input.

#include <iosfwd>
#include <string>

#include "platform/grid.hpp"

namespace oagrid::platform {

/// Parses a grid description. Throws oagrid::ParseError (a
/// std::invalid_argument) with a "<source>:<line>: message" diagnostic on any
/// malformed input; pass the file path as `source` for clickable errors.
[[nodiscard]] Grid parse_grid(std::istream& in,
                              const std::string& source = "grid");

/// Convenience overload over an in-memory string.
[[nodiscard]] Grid parse_grid_string(const std::string& text,
                                     const std::string& source = "grid");

/// Serializes a grid back to the same format (round-trips with parse_grid).
void write_grid(std::ostream& out, const Grid& grid);

}  // namespace oagrid::platform
