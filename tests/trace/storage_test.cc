#include "src/trace/storage.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/common/rng.h"

namespace rpcscope {
namespace {

Span RandomSpan(Rng& rng, int32_t method, int32_t service) {
  Span s;
  s.trace_id = rng.NextUint64() | 1;
  s.span_id = rng.NextUint64() | 1;
  s.parent_span_id = rng.NextBool(0.5) ? rng.NextUint64() : 0;
  s.method_id = method;
  s.service_id = service;
  s.client_cluster = static_cast<ClusterId>(rng.NextBounded(96));
  s.server_cluster = static_cast<ClusterId>(rng.NextBounded(96));
  s.start_time = static_cast<SimTime>(rng.NextBounded(static_cast<uint64_t>(kDay)));
  for (SimDuration& d : s.latency.components) {
    d = static_cast<SimDuration>(rng.NextBounded(static_cast<uint64_t>(Seconds(2))));
  }
  s.status = rng.NextBool(0.05) ? StatusCode::kCancelled : StatusCode::kOk;
  s.request_payload_bytes = static_cast<int64_t>(rng.NextBounded(1 << 20));
  s.response_payload_bytes = static_cast<int64_t>(rng.NextBounded(1 << 20));
  s.request_wire_bytes = s.request_payload_bytes / 2;
  s.response_wire_bytes = s.response_payload_bytes / 2;
  s.has_cpu_annotation = rng.NextBool(0.5);
  s.normalized_cpu_cycles = rng.NextDouble() * 10;
  return s;
}

bool SpansEqual(const Span& a, const Span& b) {
  return a.trace_id == b.trace_id && a.span_id == b.span_id &&
         a.parent_span_id == b.parent_span_id && a.method_id == b.method_id &&
         a.service_id == b.service_id && a.client_cluster == b.client_cluster &&
         a.server_cluster == b.server_cluster && a.start_time == b.start_time &&
         a.latency.components == b.latency.components && a.status == b.status &&
         a.request_payload_bytes == b.request_payload_bytes &&
         a.response_payload_bytes == b.response_payload_bytes &&
         a.request_wire_bytes == b.request_wire_bytes &&
         a.response_wire_bytes == b.response_wire_bytes &&
         a.has_cpu_annotation == b.has_cpu_annotation &&
         a.normalized_cpu_cycles == b.normalized_cpu_cycles;
}

TEST(SpanCodecTest, RoundTripsEveryField) {
  Rng rng(9);
  std::vector<Span> spans;
  for (int i = 0; i < 500; ++i) {
    spans.push_back(RandomSpan(rng, i % 17, i % 5));
  }
  const std::vector<uint8_t> bytes = SerializeSpans(spans);
  Result<std::vector<Span>> back = DeserializeSpans(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_TRUE(SpansEqual(spans[i], (*back)[i])) << i;
  }
}

TEST(SpanCodecTest, EmptyBatch) {
  const std::vector<uint8_t> bytes = SerializeSpans({});
  Result<std::vector<Span>> back = DeserializeSpans(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(SpanCodecTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeSpans({}).ok());
  EXPECT_FALSE(DeserializeSpans({'X', 'Y', 'Z', 'W', 1, 0}).ok());
}

TEST(SpanCodecTest, RejectsTruncation) {
  Rng rng(10);
  std::vector<Span> spans = {RandomSpan(rng, 1, 1)};
  std::vector<uint8_t> bytes = SerializeSpans(spans);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(DeserializeSpans(bytes).ok());
}

// A header declaring more spans than its bytes can hold is rejected before
// anything is reserved: a 10-byte file declaring 2^32 - 1 spans used to
// abort in DeserializeSpans with std::bad_alloc, and 2^63 with length_error.
TEST(SpanCodecTest, RejectsCountsTheBytesCannotHold) {
  const std::vector<uint8_t> huge = {'R', 'S', 'P', 'N', 2, 0xff, 0xff, 0xff, 0xff, 0x0f};
  EXPECT_EQ(SpanReader::Open(huge).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeSpans(huge).status().code(), StatusCode::kInvalidArgument);
  std::vector<uint8_t> max = {'R', 'S', 'P', 'N', 2};
  for (int i = 0; i < 9; ++i) {
    max.push_back(0x80);
  }
  max.push_back(0x01);  // Varint 2^63.
  EXPECT_EQ(DeserializeSpans(max).status().code(), StatusCode::kInvalidArgument);
}

TEST(SpanCodecTest, CountBoundIsTheSmallestRecord) {
  // Default spans encode every field in one byte: 26-byte v2 records.
  const std::vector<uint8_t> bytes = SerializeSpans(std::vector<Span>(3));
  ASSERT_EQ(bytes.size(), 6u + 3 * 26);
  Result<std::vector<Span>> back = DeserializeSpans(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), 3u);
  std::vector<uint8_t> one_more = bytes;
  one_more[5] = 4;  // The count byte: 4 records cannot fit in 78 bytes.
  EXPECT_EQ(DeserializeSpans(one_more).status().code(), StatusCode::kInvalidArgument);
  // A count that fits but a record cut short is still a truncation error.
  std::vector<uint8_t> cut = bytes;
  cut[6] = 0xff;  // First trace id becomes a multi-byte varint.
  for (int i = 0; i < 8; ++i) {
    cut.insert(cut.begin() + 7, 0xff);
  }
  cut.resize(bytes.size());
  EXPECT_EQ(DeserializeSpans(cut).status().code(), StatusCode::kInternal);
}

TEST(SpanReaderTest, StreamsTheBatchOneSpanAtATime) {
  Rng rng(11);
  std::vector<Span> spans;
  for (int i = 0; i < 200; ++i) {
    spans.push_back(RandomSpan(rng, i % 17, i % 5));
  }
  const std::vector<uint8_t> bytes = SerializeSpans(spans);
  Result<SpanReader> reader = SpanReader::Open(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->count(), spans.size());
  Span span;
  size_t i = 0;
  for (;;) {
    Result<bool> more = reader->Next(span);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) {
      break;
    }
    ASSERT_LT(i, spans.size());
    EXPECT_TRUE(SpansEqual(spans[i], span)) << i;
    ++i;
    EXPECT_EQ(reader->remaining(), spans.size() - i);
  }
  EXPECT_EQ(i, spans.size());
  // End-of-batch is sticky.
  Result<bool> again = reader->Next(span);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
}

TEST(SpanReaderTest, SurfacesTruncationMidStream) {
  Rng rng(12);
  std::vector<Span> spans = {RandomSpan(rng, 1, 1), RandomSpan(rng, 2, 2)};
  std::vector<uint8_t> bytes = SerializeSpans(spans);
  bytes.resize(bytes.size() - 3);  // Clip the tail of the second record.
  Result<SpanReader> reader = SpanReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  Span span;
  Result<bool> first = reader->Next(span);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  EXPECT_FALSE(reader->Next(span).ok());
}

TEST(SpanReaderTest, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = SerializeSpans({});
  bytes.push_back(0x7f);
  Result<SpanReader> reader = SpanReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  Span span;
  EXPECT_FALSE(reader->Next(span).ok());
}

TEST(TraceStoreTest, IndexesByMethodServiceAndTrace) {
  Rng rng(11);
  TraceStore store;
  for (int i = 0; i < 300; ++i) {
    store.Add(RandomSpan(rng, i % 3, i % 2));
  }
  EXPECT_EQ(store.size(), 300u);
  EXPECT_EQ(store.ByMethod(0).size(), 100u);
  EXPECT_EQ(store.ByService(1).size(), 150u);
  EXPECT_TRUE(store.ByMethod(99).empty());
  const Span& probe = store.spans()[17];
  const auto trace = store.ByTrace(probe.trace_id);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0]->span_id, probe.span_id);
}

TEST(TraceStoreTest, TimeRangeQuery) {
  TraceStore store;
  for (int h = 0; h < 24; ++h) {
    Span s;
    s.method_id = 1;
    s.start_time = Hours(h);
    store.Add(s);
  }
  EXPECT_EQ(store.InTimeRange(Hours(6), Hours(12)).size(), 6u);
  EXPECT_EQ(store.InTimeRange(0, Days(1)).size(), 24u);
}

TEST(TraceStoreTest, FileRoundTrip) {
  Rng rng(12);
  TraceStore store;
  for (int i = 0; i < 200; ++i) {
    store.Add(RandomSpan(rng, i % 7, i % 3));
  }
  const std::string path = ::testing::TempDir() + "/spans.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  Result<TraceStore> loaded = TraceStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_TRUE(SpansEqual(store.spans()[i], loaded->spans()[i])) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreTest, LoadMissingFileFails) {
  EXPECT_EQ(TraceStore::LoadFromFile("/nonexistent/spans.bin").status().code(),
            StatusCode::kNotFound);
}

TEST(TraceStoreTest, LoadRejectsADirectory) {
  // ftell on a directory stream is meaningless; it used to size a huge read.
  const std::string dir = ::testing::TempDir() + "/spans_dir";
  std::filesystem::create_directories(dir);
  EXPECT_EQ(TraceStore::LoadFromFile(dir).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadSpanFile(dir).status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(dir);
}

TEST(TraceStoreTest, LoadRejectsAHugeCountFile) {
  const std::string path = ::testing::TempDir() + "/huge_count.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint8_t header[] = {'R', 'S', 'P', 'N', 2, 0xff, 0xff, 0xff, 0xff, 0x0f};
  ASSERT_EQ(std::fwrite(header, 1, sizeof(header), f), sizeof(header));
  std::fclose(f);
  EXPECT_EQ(TraceStore::LoadFromFile(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rpcscope
