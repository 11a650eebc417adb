#include "src/util/crc32.h"

#include <array>
#include <cstring>

namespace incentag {
namespace util {

namespace {

// Reflected IEEE polynomial 0xEDB88320, the crc32 of zlib/gzip/PNG.
constexpr uint32_t kPolynomial = 0xEDB88320u;

constexpr size_t kNumTables = 8;

// table[0] is the classic one-byte-at-a-time table; table[k] advances a
// byte that sits k positions further from the end of the message, so
// eight table lookups retire eight message bytes at once (Intel's
// "slicing-by-8"). The derivation is the standard recurrence
// table[k][i] = (table[k-1][i] >> 8) ^ table[0][table[k-1][i] & 0xFF].
std::array<std::array<uint32_t, 256>, kNumTables> BuildTables() {
  std::array<std::array<uint32_t, 256>, kNumTables> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < kNumTables; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

const std::array<std::array<uint32_t, 256>, kNumTables>& Tables() {
  static const std::array<std::array<uint32_t, 256>, kNumTables> tables =
      BuildTables();
  return tables;
}

inline uint32_t LoadLe32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& tables = Tables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  // Slicing-by-8: fold eight bytes per iteration through the eight
  // shifted tables. Journal encode runs a CRC pass per record, so this
  // shows up directly in the batched append path's profile.
  while (size >= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
    bytes += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    crc = tables[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace util
}  // namespace incentag
