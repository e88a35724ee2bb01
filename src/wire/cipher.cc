#include "src/wire/cipher.h"

#include <bit>
#include <cstddef>
#include <cstring>

#include "src/common/rng.h"

namespace rpcscope {

// Keystream byte b of a block is bits [8b, 8b+8): little-endian, so one
// native 64-bit load/XOR/store applies a whole block.
static_assert(std::endian::native == std::endian::little,
              "StreamCipher's word XOR assumes a little-endian host");

StreamCipher::StreamCipher(uint64_t key, uint64_t nonce) {
  uint64_t sm = key ^ Mix64(nonce);
  for (auto& lane : s_) {
    lane = SplitMix64(sm);
  }
}

uint64_t StreamCipher::NextBlock() {
  auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void StreamCipher::Apply(std::vector<uint8_t>& data) {
  uint8_t* const bytes = data.data();
  const size_t size = data.size();
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    word ^= NextBlock();
    std::memcpy(bytes + i, &word, sizeof(word));
  }
  if (i < size) {
    const uint64_t ks = NextBlock();
    for (int b = 0; i < size; ++i, ++b) {
      bytes[i] ^= static_cast<uint8_t>(ks >> (8 * b));
    }
  }
}

}  // namespace rpcscope
