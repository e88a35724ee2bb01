// Golden-bytes regression for the wire kernels: the bytes RatelCompress,
// Crc32c and StreamCipher produce are part of every frame body, CRC, wire
// size, simulated latency and model digest, so any rewrite of the kernels
// must reproduce them exactly.
//
// The pinned digests below were recorded by running this test body against
// the byte-at-a-time kernels (table-per-byte CRC32C, per-byte keystream XOR,
// byte-extending LZ) before they were rewritten to work a word at a time.
// Do not update them to make a kernel change pass: a mismatch means wire
// bytes changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/wire/checksum.h"
#include "src/wire/cipher.h"
#include "src/wire/compressor.h"
#include "src/wire/message.h"

namespace rpcscope {
namespace {

constexpr uint64_t kFnvBasis = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FoldBytes(uint64_t& digest, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    digest = (digest ^ data[i]) * kFnvPrime;
  }
}

void FoldU64(uint64_t& digest, uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    digest = (digest ^ ((value >> (8 * b)) & 0xff)) * kFnvPrime;
  }
}

// Serialized GeneratePayload messages from 0 B to 128 KiB at redundancy
// 0/0.3/0.6/1, plus short-period runs (offsets 1-16, lengths not multiples of
// 8) and uniformly random bytes, so every match-copy shape appears.
std::vector<std::vector<uint8_t>> Corpus() {
  std::vector<std::vector<uint8_t>> corpus;
  Rng rng(20231013);
  const size_t sizes[] = {0,    1,    7,    8,     9,     15,    16,    17,    63,     64,
                          100,  255,  1000, 1530,  4096,  8191,  10000, 32768, 65536,
                          65537, 100000, 131072};
  for (double redundancy : {0.0, 0.3, 0.6, 1.0}) {
    for (size_t size : sizes) {
      corpus.push_back(Message::GeneratePayload(rng, size, redundancy).Serialize());
    }
  }
  for (size_t period = 1; period <= 16; ++period) {
    for (size_t len : {size_t{5}, size_t{13}, size_t{67}, size_t{1001}, size_t{40003}}) {
      std::vector<uint8_t> run(len);
      for (size_t i = 0; i < len; ++i) {
        run[i] = static_cast<uint8_t>(i % period * 37 + period);
      }
      corpus.push_back(std::move(run));
    }
  }
  for (size_t len : {size_t{3}, size_t{4097}, size_t{70001}}) {
    std::vector<uint8_t> noise(len);
    for (auto& b : noise) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    corpus.push_back(std::move(noise));
  }
  return corpus;
}

TEST(GoldenBytesTest, CompressCrcCipherDigestsArePinned) {
  const auto corpus = Corpus();
  uint64_t compress_digest = kFnvBasis;
  uint64_t crc_digest = kFnvBasis;
  uint64_t cipher_digest = kFnvBasis;
  size_t compressed_bytes = 0;
  RatelScratch scratch;  // Reused across the corpus, as the codec does.
  std::vector<uint8_t> block;
  for (size_t m = 0; m < corpus.size(); ++m) {
    const auto& input = corpus[m];
    RatelCompress(input, scratch, block);
    compressed_bytes += block.size();
    FoldU64(compress_digest, block.size());
    FoldBytes(compress_digest, block.data(), block.size());

    FoldU64(crc_digest, Crc32c(input));
    FoldU64(crc_digest, Crc32c(block));

    std::vector<uint8_t> sealed = block;
    StreamCipher(0x5eed0000 + m, m * 7919).Apply(sealed);
    FoldBytes(cipher_digest, sealed.data(), sealed.size());

    auto restored = RatelDecompress(block);
    ASSERT_TRUE(restored.ok()) << m;
    ASSERT_EQ(*restored, input) << m;
  }
  EXPECT_EQ(corpus.size(), 171u);
  EXPECT_EQ(compressed_bytes, 898597u);
  EXPECT_EQ(compress_digest, 6976075475783018005ull);
  EXPECT_EQ(crc_digest, 4491563570735750629ull);
  EXPECT_EQ(cipher_digest, 1284179342611219856ull);
}

uint32_t ReferenceCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffff;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return crc ^ 0xffffffff;
}

TEST(GoldenBytesTest, Crc32cMatchesBitwiseReferenceAtEveryOffset) {
  Rng rng(77);
  std::vector<uint8_t> buf(64 + 8);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32c(buf.data() + start, len), ReferenceCrc32c(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

// xoshiro256** keystream applied one byte at a time, little-endian within
// each 64-bit block, seeded exactly as StreamCipher documents.
std::vector<uint8_t> ReferenceCipher(uint64_t key, uint64_t nonce, std::vector<uint8_t> data) {
  uint64_t s[4];
  uint64_t sm = key ^ Mix64(nonce);
  for (auto& lane : s) {
    lane = SplitMix64(sm);
  }
  auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  uint64_t ks = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (i % 8 == 0) {
      ks = rotl(s[1] * 5, 7) * 9;
      const uint64_t t = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= t;
      s[3] = rotl(s[3], 45);
    }
    data[i] ^= static_cast<uint8_t>(ks >> (8 * (i % 8)));
  }
  return data;
}

TEST(GoldenBytesTest, CipherMatchesBytewiseReferenceForShortLengths) {
  Rng rng(78);
  for (size_t len = 0; len <= 17; ++len) {
    std::vector<uint8_t> data(len);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    const auto expected = ReferenceCipher(991, len, data);
    StreamCipher(991, len).Apply(data);
    EXPECT_EQ(data, expected) << "len " << len;
  }
}

}  // namespace
}  // namespace rpcscope
