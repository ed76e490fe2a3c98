// CRC32C (Castagnoli), the checksum of SSTable blocks, WAL records, vlog
// records and MANIFEST snapshots.
//
// On x86-64 CPUs with SSE4.2, Extend uses the hardware crc32 instruction
// (8 bytes per step); elsewhere it falls back to a byte-at-a-time table.
// The path is picked once per process. Both compute the same polynomial,
// so every stored checksum is identical whichever path wrote or reads it.

#ifndef FLODB_DISK_CRC32C_H_
#define FLODB_DISK_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace flodb::crc32c {

// CRC of data[0, n); `init_crc` chains partial computations (pass the
// previous Value result to extend).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// The two implementations behind Extend, exposed so tests can check that
// they agree on every machine.
namespace internal {
// Table-driven; runs everywhere.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
// SSE4.2 crc32 when the CPU has it, else the same as ExtendPortable.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
// True when ExtendHardware (and so Extend) uses the crc32 instruction.
bool HardwareAvailable();
}  // namespace internal

// Stored CRCs are masked (rotated + offset) so that computing the CRC of a
// string that embeds its own CRC is not degenerate (same scheme LevelDB
// uses).
inline constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + kMaskDelta; }

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace flodb::crc32c

#endif  // FLODB_DISK_CRC32C_H_
