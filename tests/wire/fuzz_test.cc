// Adversarial-input tests: random and mutated bytes must never crash the
// decoders — they either parse cleanly or return an error.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/rpc/codec.h"
#include "src/trace/storage.h"
#include "src/wire/compressor.h"
#include "src/wire/message.h"

namespace rpcscope {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t max_len) {
  std::vector<uint8_t> out(rng.NextBounded(max_len + 1));
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  return out;
}

TEST(FuzzTest, MessageParseSurvivesRandomBytes) {
  Rng rng(101);
  int parsed = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = RandomBytes(rng, 256);
    Result<Message> result = Message::Parse(bytes);
    if (result.ok()) {
      ++parsed;
      // Whatever parsed must re-serialize without crashing.
      (void)result->Serialize();
    }
  }
  // Some random inputs are valid encodings; most are not. Neither crashes.
  EXPECT_GE(parsed, 0);
}

TEST(FuzzTest, MessageParseSurvivesMutatedValidInput) {
  Rng rng(102);
  const Message original = Message::GeneratePayload(rng, 2048, 0.5);
  const std::vector<uint8_t> valid = original.Serialize();
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint8_t> mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    (void)Message::Parse(mutated);  // Must not crash or hang.
  }
}

TEST(FuzzTest, DecompressSurvivesRandomBlocks) {
  Rng rng(103);
  for (int i = 0; i < 5000; ++i) {
    (void)RatelDecompress(RandomBytes(rng, 512));
  }
}

TEST(FuzzTest, DecompressSurvivesMutatedBlocks) {
  Rng rng(104);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) {
    b = static_cast<uint8_t>('a' + rng.NextBounded(8));
  }
  const std::vector<uint8_t> valid = RatelCompress(data);
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint8_t> mutated = valid;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    Result<std::vector<uint8_t>> out = RatelDecompress(mutated);
    if (out.ok()) {
      // A successful decode of corrupted input must still respect the
      // declared size bound (no unbounded output).
      EXPECT_LE(out->size(), data.size());
    }
  }
}

TEST(FuzzTest, TinyBlockDeclaringOneGibIsRejectedWithoutLargeAllocation) {
  // [LZ kind][varint 1 GiB][a 1-byte literal run][a 4-byte match at offset 1]:
  // 10 bytes that claim 2^30 output bytes and produce 5.
  const std::vector<uint8_t> block = {1, 0x80, 0x80, 0x80, 0x80, 0x04, 2, 'z', 1, 1};
  ASSERT_EQ(block.size(), 10u);
  std::vector<uint8_t> out;
  EXPECT_FALSE(RatelDecompress(block, out).ok());
  EXPECT_LE(out.capacity(), (size_t{1} << 20) + 16);
  EXPECT_FALSE(RatelDecompress(block).ok());
}

TEST(FuzzTest, SpanBatchDecodeSurvivesMutation) {
  Rng rng(105);
  std::vector<Span> spans(20);
  for (size_t i = 0; i < spans.size(); ++i) {
    spans[i].trace_id = i + 1;
    spans[i].span_id = i + 100;
    spans[i].method_id = static_cast<int32_t>(i);
    spans[i].latency[RpcComponent::kServerApp] = Millis(static_cast<int64_t>(i));
  }
  const std::vector<uint8_t> valid = SerializeSpans(spans);
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint8_t> mutated = valid;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    (void)DeserializeSpans(mutated);
  }
}

TEST(FuzzTest, FrameDecodeSurvivesMutation) {
  Rng rng(106);
  const Message msg = Message::GeneratePayload(rng, 1024, 0.6);
  const WireFrame valid = EncodeFrame(Payload::Real(msg), 42, 7);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    WireFrame mutated = valid;
    if (!mutated.body.empty()) {
      mutated.body[rng.NextBounded(mutated.body.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    if (DecodeFrame(mutated, 42).ok()) {
      ++accepted;
    }
  }
  // The CRC catches essentially all single-bit corruptions.
  EXPECT_EQ(accepted, 0);
}

}  // namespace
}  // namespace rpcscope
