#include "flodb/disk/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace flodb::crc32c {

namespace {

// CRC32C polynomial, reversed bit order.
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same (Castagnoli, reflected)
// CRC as the table, 8 bytes per step. Compiled for SSE4.2 regardless of
// the build's -march; only called after the runtime CPU check.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc, const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return crc32 ^ 0xffffffffu;
}
#endif

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

bool HardwareAvailable() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (HardwareAvailable()) {
    return ExtendSse42(init_crc, data, n);
  }
#endif
  return ExtendPortable(init_crc, data, n);
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  // Checked once: the CPU cannot change under a running process.
  static const bool hardware = internal::HardwareAvailable();
  if (hardware) {
    return ExtendSse42(init_crc, data, n);
  }
#endif
  return internal::ExtendPortable(init_crc, data, n);
}

}  // namespace flodb::crc32c
