#pragma once
/// \file hash.hpp
/// \brief 64-bit FNV-1a, the content hash of the eval-cache keys and cluster
/// signatures, the failure-model and service-state signatures, and the
/// local-search memo.
///
/// Values are part of observable behaviour: the eval cache picks shards and
/// eviction order by them, and signatures are compared across runs, so the
/// byte order fed in is fixed by each caller and must not change.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace oagrid {

/// Incremental FNV-1a over a byte stream. Multi-byte values are hashed as
/// their host-order bytes. `Fnv1a h{basis}` starts from another offset
/// basis.
struct Fnv1a {
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001b3ULL;

  std::uint64_t state = kOffset;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= kPrime;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
};

/// The offset basis fault::FailureModel::signature and
/// service::CampaignService::state_signature start from: the standard
/// basis 14695981039346656037 with its last decimal digit lost. Kept, so
/// those signatures keep the values they always had.
inline constexpr std::uint64_t kFnv1aShortBasis = 1469598103934665603ULL;

/// FNV-1a of a whole byte string.
[[nodiscard]] inline std::uint64_t fnv1a(
    std::string_view data, std::uint64_t basis = Fnv1a::kOffset) noexcept {
  Fnv1a h{basis};
  h.bytes(data.data(), data.size());
  return h.state;
}

}  // namespace oagrid
