#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace mmdb {

namespace {

// Slicing tables: table[0] is the classic byte-at-a-time CRC-32
// (reflected, polynomial 0xEDB88320); table[k][b] extends table[k-1][b]
// by one zero byte. Sixteen input bytes fold in parallel per iteration,
// which matters because every simulated disk transfer checksums its
// whole page — the byte-serial loop was ~30% of bench host time.
std::array<std::array<uint32_t, 256>, 16> MakeTables() {
  std::array<std::array<uint32_t, 256>, 16> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 16; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const std::array<std::array<uint32_t, 256>, 16>& Tables() {
  static const std::array<std::array<uint32_t, 256>, 16> kT = MakeTables();
  return kT;
}

}  // namespace

uint32_t Crc32Reference(const void* data, size_t n, uint32_t seed) {
  const auto& kT = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  while (n-- > 0) {
    c = kT[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto& kT = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  // The word-folding path assumes little-endian lane order (every
  // supported target); anything else takes the byte-serial tail loop.
  while (std::endian::native == std::endian::little && n >= 16) {
    uint32_t w0;
    uint32_t w1;
    uint32_t w2;
    uint32_t w3;
    std::memcpy(&w0, p, 4);
    std::memcpy(&w1, p + 4, 4);
    std::memcpy(&w2, p + 8, 4);
    std::memcpy(&w3, p + 12, 4);
    w0 ^= c;
    c = kT[15][w0 & 0xFFu] ^ kT[14][(w0 >> 8) & 0xFFu] ^
        kT[13][(w0 >> 16) & 0xFFu] ^ kT[12][w0 >> 24] ^ kT[11][w1 & 0xFFu] ^
        kT[10][(w1 >> 8) & 0xFFu] ^ kT[9][(w1 >> 16) & 0xFFu] ^
        kT[8][w1 >> 24] ^ kT[7][w2 & 0xFFu] ^ kT[6][(w2 >> 8) & 0xFFu] ^
        kT[5][(w2 >> 16) & 0xFFu] ^ kT[4][w2 >> 24] ^ kT[3][w3 & 0xFFu] ^
        kT[2][(w3 >> 8) & 0xFFu] ^ kT[1][(w3 >> 16) & 0xFFu] ^
        kT[0][w3 >> 24];
    p += 16;
    n -= 16;
  }
  while (n-- > 0) {
    c = kT[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace mmdb
