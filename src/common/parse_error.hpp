#pragma once
/// \file parse_error.hpp
/// \brief One diagnostic format for every oagrid input parser.
///
/// The repo grew one text/binary parser per subsystem (platform grids,
/// network files, failure traces, climate restart/diagnostic streams), each
/// with its own error phrasing. Tooling that wants to surface "where is the
/// problem" — editors, the CLI error tests, the property-test shrinker —
/// should not have to know per-parser prose, so every parser now throws
/// through these helpers in the conventional compiler format:
///
///   <source>:<line>: <message>        (line-oriented text inputs)
///   <source>: <message>               (binary streams — no line structure)
///
/// `source` defaults to a format label ("network", "failures", "restart");
/// callers that read from a named file pass the path so the diagnostic is
/// directly clickable.

#include <cctype>
#include <functional>
#include <istream>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace oagrid {

/// Thrown by every input parser. Derives from std::invalid_argument so all
/// existing catch sites (and EXPECT_THROW assertions) keep working; carries
/// the structured fields so tools can re-render without re-parsing what().
class ParseError : public std::invalid_argument {
 public:
  /// Line-numbered form: "<source>:<line>: <message>".
  ParseError(std::string source, int line, std::string message);
  /// Lineless form (binary streams): "<source>: <message>".
  ParseError(std::string source, std::string message);

  [[nodiscard]] const std::string& source() const noexcept { return source_; }
  /// 0 when the input has no line structure.
  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  std::string source_;
  int line_ = 0;
  std::string message_;
};

/// Convenience throwers, so parser code reads as a one-liner.
[[noreturn]] void throw_parse_error(const std::string& source, int line,
                                    const std::string& message);
[[noreturn]] void throw_parse_error(const std::string& source,
                                    const std::string& message);

/// Reads the next whitespace-separated token of a line-oriented input as a
/// number spanning the whole token: false on "100abc", or "20.7" for an
/// integer, instead of silently keeping the numeric prefix.
template <typename T>
[[nodiscard]] bool read_number(std::istream& in, T& value) {
  if (!(in >> value)) return false;
  const int next = in.peek();
  return next == std::char_traits<char>::eof() || std::isspace(next) != 0;
}

/// Throws a ParseError at `source:line` when `rest` holds another token: a
/// directive must consume its whole line.
void expect_line_end(std::istream& rest, const std::string& source, int line);

/// Reads the next token as a cluster id in [0, count), or throws a ParseError
/// at `source:line`.
[[nodiscard]] ClusterId read_cluster_id(std::istream& in,
                                        const std::string& source, int line,
                                        int count);

/// One directive: its keyword, the rest of its line, and its line number.
using Directive =
    std::function<void(const std::string& keyword, std::istream& rest,
                       int line)>;

/// The line loop of every directive-per-line text input (grid, network and
/// failure files): counts each line, cuts it at '#', skips it when blank,
/// calls `directive` with its first token and the rest, then requires the
/// directive to have consumed the whole line (expect_line_end).
void for_each_directive(std::istream& in, const std::string& source,
                        const Directive& directive);

}  // namespace oagrid
