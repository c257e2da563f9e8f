#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace oagrid {
namespace {

TEST(Fnv1a, PublishedTestVectors) {
  // 64-bit FNV-1a reference values (Fowler/Noll/Vo test suite).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, WordsHashAsTheirBytes) {
  const std::uint64_t word = 0x0123456789abcdefULL;
  const double real = 1260.5;
  std::string bytes(sizeof word + sizeof real, '\0');
  std::memcpy(bytes.data(), &word, sizeof word);
  std::memcpy(bytes.data() + sizeof word, &real, sizeof real);
  Fnv1a h;
  h.u64(word);
  h.f64(real);
  EXPECT_EQ(h.state, fnv1a(bytes));
  Fnv1a signed_h;
  signed_h.i64(-1);
  Fnv1a unsigned_h;
  unsigned_h.u64(~0ULL);
  EXPECT_EQ(signed_h.state, unsigned_h.state);
}

}  // namespace
}  // namespace oagrid
