#ifndef MMDB_UTIL_CRC32_H_
#define MMDB_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace mmdb {

/// CRC-32 (IEEE 802.3 polynomial) over `n` bytes starting at `data`,
/// seeded with `seed` so checksums can be chained across buffers.
/// Used to validate checkpoint images and log pages read back from the
/// simulated disks.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Byte-at-a-time reference implementation — the simulator's checksum
/// hot path before the slicing-by-16 rewrite. Bit-identical to Crc32();
/// kept as the oracle util_test checks Crc32() against, and as the
/// baseline of bench_sim_scale's crc32_speedup ratio.
uint32_t Crc32Reference(const void* data, size_t n, uint32_t seed = 0);

}  // namespace mmdb

#endif  // MMDB_UTIL_CRC32_H_
