#include "common/parse_error.hpp"

#include <sstream>

namespace oagrid {
namespace {

std::string format(const std::string& source, int line,
                   const std::string& message) {
  std::string out = source;
  if (line > 0) {
    out += ':';
    out += std::to_string(line);
  }
  out += ": ";
  out += message;
  return out;
}

}  // namespace

ParseError::ParseError(std::string source, int line, std::string message)
    : std::invalid_argument(format(source, line, message)),
      source_(std::move(source)),
      line_(line),
      message_(std::move(message)) {}

ParseError::ParseError(std::string source, std::string message)
    : ParseError(std::move(source), 0, std::move(message)) {}

void throw_parse_error(const std::string& source, int line,
                       const std::string& message) {
  throw ParseError(source, line, message);
}

void throw_parse_error(const std::string& source, const std::string& message) {
  throw ParseError(source, message);
}

void expect_line_end(std::istream& rest, const std::string& source, int line) {
  std::string extra;
  if (rest >> extra)
    throw_parse_error(source, line, "unexpected trailing '" + extra + "'");
}

ClusterId read_cluster_id(std::istream& in, const std::string& source,
                          int line, int count) {
  ClusterId c = -1;
  if (!read_number(in, c) || c < 0 || c >= count)
    throw_parse_error(source, line, "expected a cluster id in [0, " +
                                        std::to_string(count) + ")");
  return c;
}

void for_each_directive(std::istream& in, const std::string& source,
                        const Directive& directive) {
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string keyword;
    if (!(line >> keyword)) continue;  // blank / comment-only line
    directive(keyword, line, line_no);
    expect_line_end(line, source, line_no);
  }
}

}  // namespace oagrid
