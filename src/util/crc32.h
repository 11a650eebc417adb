// CRC-32 (IEEE 802.3 polynomial, reflected) for journal record integrity.
//
// The persist layer (src/persist/journal.h) frames every record as
// [length | crc | payload] and verifies the checksum on read, so a torn
// write at the tail of a campaign journal — the expected failure mode of
// a crash mid-append — is detected and the journal recovered up to the
// last intact record. Table-driven slicing-by-8 (eight bytes per step).
#ifndef INCENTAG_UTIL_CRC32_H_
#define INCENTAG_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace incentag {
namespace util {

// CRC-32 of `data`, continuing from `seed` (pass the previous return value
// to checksum a logical buffer in chunks). The default seed checksums from
// scratch.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

}  // namespace util
}  // namespace incentag

#endif  // INCENTAG_UTIL_CRC32_H_
