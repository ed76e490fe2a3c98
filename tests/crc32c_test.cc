#include "flodb/disk/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace flodb {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Extend (the dispatched path) plus both implementations behind it, so
// the fallback is tested on CPUs where Extend never calls it.
const std::vector<std::pair<const char*, ExtendFn>>& AllPaths() {
  static const std::vector<std::pair<const char*, ExtendFn>> paths = {
      {"Extend", &crc32c::Extend},
      {"portable", &crc32c::internal::ExtendPortable},
      {"hardware", &crc32c::internal::ExtendHardware},
  };
  return paths;
}

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng());
  }
  return out;
}

TEST(Crc32cTest, KnownVectors) {
  char zeros[32] = {};
  char ffs[32];
  memset(ffs, 0xff, sizeof(ffs));
  for (const auto& [name, extend] : AllPaths()) {
    SCOPED_TRACE(name);
    // Standard CRC32C check value: "123456789" -> 0xE3069283.
    EXPECT_EQ(extend(0, "123456789", 9), 0xE3069283u);
    // 32 zero bytes -> 0x8A9136AA (iSCSI test vector).
    EXPECT_EQ(extend(0, zeros, sizeof(zeros)), 0x8A9136AAu);
    // 32 0xFF bytes -> 0x62A8AB43.
    EXPECT_EQ(extend(0, ffs, sizeof(ffs)), 0x62A8AB43u);
    EXPECT_EQ(extend(0, "", 0), 0u);
  }
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, PathsAgreeOnEveryShortLength) {
  const std::string data = RandomBytes(1024, 1);
  for (size_t n = 0; n <= data.size(); ++n) {
    const uint32_t expected = crc32c::internal::ExtendPortable(0, data.data(), n);
    ASSERT_EQ(crc32c::internal::ExtendHardware(0, data.data(), n), expected) << "n=" << n;
    ASSERT_EQ(crc32c::Extend(0, data.data(), n), expected) << "n=" << n;
  }
}

TEST(Crc32cTest, PathsAgreeOnBlocksAtEveryAlignment) {
  for (const size_t n : {size_t{4096}, size_t{65536}}) {
    // 8 spare bytes so a buffer can start at each offset within a word.
    const std::string data = RandomBytes(n + 8, static_cast<uint32_t>(n));
    for (size_t offset = 0; offset < 8; ++offset) {
      const char* p = data.data() + offset;
      const uint32_t expected = crc32c::internal::ExtendPortable(0, p, n);
      EXPECT_EQ(crc32c::internal::ExtendHardware(0, p, n), expected)
          << "n=" << n << " offset=" << offset;
      EXPECT_EQ(crc32c::Extend(0, p, n), expected) << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(Crc32cTest, ChainedExtendMatchesWholeAtEverySplit) {
  const std::string data = RandomBytes(100, 7);
  for (const auto& [name, extend] : AllPaths()) {
    SCOPED_TRACE(name);
    const uint32_t whole = extend(0, data.data(), data.size());
    for (size_t split = 0; split <= data.size(); ++split) {
      const uint32_t head = extend(0, data.data(), split);
      EXPECT_EQ(extend(head, data.data() + split, data.size() - split), whole)
          << "split=" << split;
    }
  }
}

TEST(Crc32cTest, ExtendComposesLikeConcatenation) {
  const std::string a = "hello ";
  const std::string b = "world";
  const uint32_t whole = crc32c::Value((a + b).data(), a.size() + b.size());
  const uint32_t chained = crc32c::Extend(crc32c::Value(a.data(), a.size()), b.data(), b.size());
  EXPECT_EQ(whole, chained);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("b", 1));
  EXPECT_NE(crc32c::Value("ab", 2), crc32c::Value("ba", 2));
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
  }
}

TEST(Crc32cTest, MaskChangesValue) {
  const uint32_t crc = crc32c::Value("data", 4);
  EXPECT_NE(crc32c::Mask(crc), crc);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(crc32c::Value("", 0), 0u);
}

}  // namespace
}  // namespace flodb
