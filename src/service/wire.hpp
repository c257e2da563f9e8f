#pragma once
/// \file wire.hpp
/// \brief Flat host-endian binary encoding helpers shared by the journal
/// record codec and the snapshot state codec (service-internal).

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace oagrid::service::wire {

template <typename T>
void put(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

inline void put_string(std::string& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked reader over an encoded payload; throws
/// std::invalid_argument on any over-read (truncated payload).
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    need(sizeof value);
    std::memcpy(&value, data_.data() + pos_, sizeof value);
    pos_ += sizeof value;
    return value;
  }

  std::string get_string() {
    const auto size = get<std::uint32_t>();
    need(size);
    std::string s(data_, pos_, size);
    pos_ += size;
    return s;
  }

  /// Reads an element count and refuses it, before anything is sized by
  /// it, when `count` elements of at least `min_bytes` each would run past
  /// the end of the payload.
  std::uint32_t get_count(std::size_t min_bytes) {
    const auto count = get<std::uint32_t>();
    need(static_cast<std::size_t>(count) * min_bytes);
    return count;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size())
      throw std::invalid_argument("oagrid: truncated journal record payload");
  }

  const std::string& data_;
  std::size_t pos_ = 0;
};

}  // namespace oagrid::service::wire
