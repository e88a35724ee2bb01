#include "src/wire/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace rpcscope {

namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // CRC32C reflected polynomial.

// Slice-by-8 tables: kTables[0] is the classic one-byte table; kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight lookups fold one
// 64-bit word.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// The word fold below XORs the CRC into the low bytes of a native load.
static_assert(std::endian::native == std::endian::little,
              "slice-by-8 CRC32C assumes a little-endian host");

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffff;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    word ^= crc;
    crc = kTables[7][word & 0xff] ^ kTables[6][(word >> 8) & 0xff] ^
          kTables[5][(word >> 16) & 0xff] ^ kTables[4][(word >> 24) & 0xff] ^
          kTables[3][(word >> 32) & 0xff] ^ kTables[2][(word >> 40) & 0xff] ^
          kTables[1][(word >> 48) & 0xff] ^ kTables[0][word >> 56];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *data) & 0xff];
  }
  return crc ^ 0xffffffff;
}

uint32_t Crc32c(const std::vector<uint8_t>& data) { return Crc32c(data.data(), data.size()); }

}  // namespace rpcscope
