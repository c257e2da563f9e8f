#include "common/parse_error.hpp"

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

}  // namespace oagrid
