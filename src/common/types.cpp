#include "common/types.hpp"

namespace oagrid::detail {

void require_failed(std::string_view msg, const char* cond) {
  std::string what = "oagrid: ";
  what += msg;
  what += " [violated: ";
  what += cond;
  what += ']';
  throw std::invalid_argument(what);
}

}  // namespace oagrid::detail
