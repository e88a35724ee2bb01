// Determinism regression test: the observability results in this repo are
// only meaningful if a fixed seed reproduces the exact same fleet execution.
// Runs the mini-fleet twice with the same seed and asserts that the
// (time, seq) event digest, the event count, and the full span stream match
// bit-for-bit, that the run reproduces golden values recorded before the
// event queue was replaced — then runs a different seed and asserts the
// digest moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"

namespace rpcscope {
namespace {

// FNV-1a over every determinism-relevant span field, in stream order.
uint64_t HashSpans(const std::vector<Span>& spans) {
  uint64_t digest = 14695981039346656037ull;
  auto mix = [&digest](uint64_t word) {
    constexpr uint64_t kPrime = 1099511628211ull;
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= kPrime;
    }
  };
  for (const Span& s : spans) {
    mix(s.trace_id);
    mix(s.span_id);
    mix(s.parent_span_id);
    mix(static_cast<uint64_t>(s.method_id));
    mix(static_cast<uint64_t>(s.service_id));
    mix(static_cast<uint64_t>(s.start_time));
    mix(static_cast<uint64_t>(s.status));
    mix(static_cast<uint64_t>(s.request_wire_bytes));
    mix(static_cast<uint64_t>(s.response_wire_bytes));
    for (SimDuration component : s.latency.components) {
      mix(static_cast<uint64_t>(component));
    }
  }
  return digest;
}

MiniFleetOptions TestOptions(uint64_t seed) {
  MiniFleetOptions options;
  options.duration = Seconds(1);
  options.warmup = Millis(200);
  options.frontend_rps = 300;
  options.seed = seed;
  return options;
}

TEST(DeterminismTest, SameSeedReproducesIdenticalEventStreamAndSpans) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult a = RunMiniFleet(catalog, TestOptions(0xf1ee7));
  const MiniFleetResult b = RunMiniFleet(catalog, TestOptions(0xf1ee7));

  EXPECT_GT(a.events_executed, 0u);
  EXPECT_GT(a.spans.size(), 0u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.root_calls, b.root_calls);
  EXPECT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(HashSpans(a.spans), HashSpans(b.spans));
  EXPECT_EQ(a.spans_per_service, b.spans_per_service);
}

TEST(DeterminismTest, FleetRunMatchesGoldenEventStreamAndSpans) {
  // Golden values for this fleet, recorded when the simulator still ran both
  // a ladder queue and a binary heap and produced them bit for bit on each.
  // Any event-queue change must reproduce the identical event stream (count
  // and (time, seq) digest) and the identical spans.
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult run = RunMiniFleet(catalog, TestOptions(0xf1ee7));

  EXPECT_EQ(run.events_executed, 28628u);
  EXPECT_EQ(run.event_digest, 0x162b5d498b7aac2ull);
  EXPECT_EQ(run.root_calls, 1798u);
  EXPECT_EQ(run.spans.size(), 2690u);
  EXPECT_EQ(HashSpans(run.spans), 0x6ee3bd26098bf94ull);
  const std::map<int32_t, int64_t> golden_spans_per_service = {
      {0, 144}, {1, 377}, {2, 244}, {3, 248}, {4, 52},
      {5, 912}, {6, 269}, {7, 216}, {8, 228}};
  EXPECT_EQ(run.spans_per_service, golden_spans_per_service);
}

TEST(DeterminismTest, DifferentSeedProducesDifferentEventStream) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  const MiniFleetResult a = RunMiniFleet(catalog, TestOptions(0xf1ee7));
  const MiniFleetResult c = RunMiniFleet(catalog, TestOptions(0xbeef));
  EXPECT_NE(a.event_digest, c.event_digest);
}

}  // namespace
}  // namespace rpcscope
