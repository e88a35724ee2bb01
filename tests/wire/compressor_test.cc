#include "src/wire/compressor.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/rng.h"
#include "src/wire/message.h"
#include "src/wire/varint.h"

namespace rpcscope {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return out;
}

std::vector<std::vector<uint8_t>> PayloadCorpus(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> corpus;
  corpus.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const size_t size = 1 + rng.NextBounded(i % 50 == 0 ? 70000 : 3000);
    const double redundancy = static_cast<double>(i % 5) / 4.0;
    corpus.push_back(Message::GeneratePayload(rng, size, redundancy).Serialize());
  }
  return corpus;
}

TEST(CompressorTest, ReusedScratchMatchesFreshScratch) {
  const auto corpus = PayloadCorpus(31, 1000);
  RatelScratch reused;
  std::vector<uint8_t> out;
  for (size_t i = 0; i < corpus.size(); ++i) {
    RatelCompress(corpus[i], reused, out);
    ASSERT_EQ(out, RatelCompress(corpus[i])) << i;
  }
}

TEST(CompressorTest, ScratchBaseWrapResetsWithoutChangingBytes) {
  const auto corpus = PayloadCorpus(32, 40);
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    const auto& warm = corpus[i];
    const auto& input = corpus[i + 1];
    const std::vector<uint8_t> expected = RatelCompress(input);
    // Bases so close to the top that this call must zero the table and
    // restart (gaps 1 and n), and a base leaving exactly room for this call
    // (gap n + 1), which must not.
    const auto n = static_cast<uint32_t>(input.size());
    for (uint32_t gap : {uint32_t{1}, n, n + 1}) {
      RatelScratch scratch;
      std::vector<uint8_t> out;
      RatelCompress(warm, scratch, out);  // Leave stale slots behind.
      scratch.base = UINT32_MAX - gap;
      RatelCompress(input, scratch, out);
      EXPECT_EQ(out, expected) << i << " gap " << gap;
      RatelCompress(warm, scratch, out);  // Next call after the wrap.
      EXPECT_EQ(out, RatelCompress(warm)) << i << " gap " << gap;
    }
  }
}

// A hand-built LZ block: `prefix` as a literal run, then one match of
// `len` bytes at `offset`, then a 3-byte literal tail. The expected output
// is computed one byte at a time.
TEST(CompressorTest, DecodesOverlappingMatchesAtEveryShortOffset) {
  std::vector<uint8_t> prefix(16);
  for (size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<uint8_t>(0x40 + i);
  }
  const std::vector<uint8_t> tail = {7, 8, 9};
  for (uint64_t offset = 1; offset <= 16; ++offset) {
    for (uint64_t len : {4u, 5u, 7u, 9u, 12u, 15u, 17u, 23u, 31u, 33u, 63u, 100u, 1001u}) {
      std::vector<uint8_t> expected = prefix;
      for (uint64_t i = 0; i < len; ++i) {
        expected.push_back(expected[expected.size() - offset]);
      }
      expected.insert(expected.end(), tail.begin(), tail.end());

      std::vector<uint8_t> block = {1};  // LZ block.
      PutVarint64(block, expected.size());
      PutVarint64(block, prefix.size() << 1);
      block.insert(block.end(), prefix.begin(), prefix.end());
      PutVarint64(block, ((len - 4) << 1) | 1);
      PutVarint64(block, offset);
      PutVarint64(block, tail.size() << 1);
      block.insert(block.end(), tail.begin(), tail.end());

      auto out = RatelDecompress(block);
      ASSERT_TRUE(out.ok()) << "offset " << offset << " len " << len;
      EXPECT_EQ(*out, expected) << "offset " << offset << " len " << len;
    }
  }
}

TEST(CompressorTest, RoundTripsEmpty) {
  const std::vector<uint8_t> empty;
  auto out = RatelDecompress(RatelCompress(empty));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(CompressorTest, RoundTripsTiny) {
  const std::vector<uint8_t> tiny = {1, 2, 3};
  auto out = RatelDecompress(RatelCompress(tiny));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, tiny);
}

TEST(CompressorTest, RoundTripsRandomData) {
  Rng rng(6);
  for (size_t n : {10u, 100u, 1000u, 65536u}) {
    const auto data = RandomBytes(rng, n);
    auto out = RatelDecompress(RatelCompress(data));
    ASSERT_TRUE(out.ok()) << n;
    EXPECT_EQ(*out, data) << n;
  }
}

TEST(CompressorTest, CompressesRepetitiveData) {
  std::vector<uint8_t> data(100000, 'a');
  const auto compressed = RatelCompress(data);
  EXPECT_LT(compressed.size(), data.size() / 10);
  auto out = RatelDecompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

TEST(CompressorTest, RoundTripsOverlappingMatches) {
  // "abcabcabc..." forces overlapping match copies.
  std::vector<uint8_t> data;
  for (int i = 0; i < 10000; ++i) {
    data.push_back(static_cast<uint8_t>('a' + (i % 3)));
  }
  auto out = RatelDecompress(RatelCompress(data));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

TEST(CompressorTest, IncompressibleFallsBackToStored) {
  Rng rng(8);
  const auto data = RandomBytes(rng, 4096);
  const auto compressed = RatelCompress(data);
  // Stored block: original + small header.
  EXPECT_LE(compressed.size(), data.size() + 16);
}

TEST(CompressorTest, RedundantPayloadCompressesBetterThanRandom) {
  Rng rng1(9), rng2(9);
  const auto random_payload = Message::GeneratePayload(rng1, 32768, 0.0).Serialize();
  const auto redundant_payload = Message::GeneratePayload(rng2, 32768, 0.95).Serialize();
  const double r_random = CompressionRatio(random_payload.size(),
                                           RatelCompress(random_payload).size());
  const double r_redundant = CompressionRatio(redundant_payload.size(),
                                              RatelCompress(redundant_payload).size());
  EXPECT_LT(r_redundant, r_random);
  EXPECT_LT(r_redundant, 0.8);
}

TEST(CompressorTest, CorruptBlockDetected) {
  std::vector<uint8_t> data(1000, 'q');
  auto compressed = RatelCompress(data);
  ASSERT_GT(compressed.size(), 8u);
  compressed[compressed.size() / 2] ^= 0xff;
  auto out = RatelDecompress(compressed);
  // Either a decode error or a size mismatch; never a silent wrong answer of
  // the right size.
  if (out.ok()) {
    EXPECT_NE(*out, data);
  }
}

TEST(CompressorTest, EmptyBlockRejected) {
  EXPECT_FALSE(RatelDecompress({}).ok());
}

TEST(CompressorTest, UnknownKindRejected) {
  std::vector<uint8_t> bogus = {9, 0};
  EXPECT_FALSE(RatelDecompress(bogus).ok());
}

}  // namespace
}  // namespace rpcscope
