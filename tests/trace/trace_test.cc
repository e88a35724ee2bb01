#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/trace/collector.h"
#include "src/trace/span.h"
#include "src/trace/tree.h"

namespace rpcscope {
namespace {

TEST(LatencyBreakdownTest, TotalsTaxAndGroups) {
  LatencyBreakdown b;
  b[RpcComponent::kClientSendQueue] = 1;
  b[RpcComponent::kRequestProcStack] = 2;
  b[RpcComponent::kRequestWire] = 3;
  b[RpcComponent::kServerRecvQueue] = 4;
  b[RpcComponent::kServerApp] = 100;
  b[RpcComponent::kServerSendQueue] = 5;
  b[RpcComponent::kResponseProcStack] = 6;
  b[RpcComponent::kResponseWire] = 7;
  b[RpcComponent::kClientRecvQueue] = 8;
  EXPECT_EQ(b.Total(), 136);
  EXPECT_EQ(b.Tax(), 36);
  EXPECT_EQ(b.WireTotal(), 10);
  EXPECT_EQ(b.ProcStackTotal(), 8);
  EXPECT_EQ(b.QueueTotal(), 18);
  EXPECT_EQ(b.Tax(), b.WireTotal() + b.ProcStackTotal() + b.QueueTotal());
}

TEST(LatencyBreakdownTest, ComponentNames) {
  for (int i = 0; i < kNumRpcComponents; ++i) {
    EXPECT_NE(RpcComponentName(static_cast<RpcComponent>(i)), "invalid");
  }
}

TEST(TraceCollectorTest, RecordsEverythingAtFullSampling) {
  TraceCollector collector;
  Span s;
  s.trace_id = collector.NewTraceId();
  EXPECT_TRUE(collector.Record(s));
  EXPECT_EQ(collector.recorded(), 1u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceCollectorTest, SamplingIsPerTraceAndProportional) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.25;
  TraceCollector collector(opts);
  int kept = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const TraceId id = collector.NewTraceId();
    // The decision must be stable per trace id.
    EXPECT_EQ(collector.IsSampled(id), collector.IsSampled(id));
    Span s;
    s.trace_id = id;
    if (collector.Record(s)) {
      ++kept;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / n, 0.25, 0.02);
  EXPECT_EQ(collector.recorded() + collector.dropped(), static_cast<uint64_t>(n));
}

TEST(TraceCollectorTest, WholeTreeSharesSamplingDecision) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.5;
  TraceCollector collector(opts);
  for (int t = 0; t < 100; ++t) {
    const TraceId id = collector.NewTraceId();
    Span parent, child;
    parent.trace_id = id;
    child.trace_id = id;
    const bool kept_parent = collector.Record(parent);
    const bool kept_child = collector.Record(child);
    EXPECT_EQ(kept_parent, kept_child);
  }
}

// Regression: sampling probabilities within half an ulp of 1.0 used to
// compute the threshold as static_cast<uint64_t>(p * 2^64), where the double
// product rounds to exactly 2^64 — undefined behavior on the cast (caught by
// UBSan). The fixed path computes the threshold in 2^53 space.
TEST(TraceCollectorTest, ProbabilityJustBelowOneIsWellDefined) {
  TraceCollector::Options opts;
  opts.sampling_probability = std::nextafter(1.0, 0.0);
  TraceCollector collector(opts);
  int kept = 0;
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    Span s;
    s.trace_id = collector.NewTraceId();
    if (collector.Record(s)) {
      ++kept;
    }
  }
  // At p = 1 - 2^-53 a drop is a ~once-per-9-quadrillion event.
  EXPECT_EQ(kept, n);
  EXPECT_DOUBLE_EQ(collector.ObservedKeepFraction(), 1.0);
}

// Fixed-seed pin on the sampling decision itself. If the threshold math or
// the hash changes, the kept count for this exact id stream changes with it;
// update the constant only for a deliberate sampling-semantics change.
TEST(TraceCollectorTest, FixedSeedKeepCountRegression) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.1;
  opts.seed = 0xdadbeef;  // The default, pinned explicitly.
  TraceCollector collector(opts);
  uint64_t kept = 0;
  for (int i = 0; i < 10000; ++i) {
    Span s;
    s.trace_id = collector.NewTraceId();
    if (collector.Record(s)) {
      ++kept;
    }
  }
  EXPECT_EQ(kept, 1026u);
  EXPECT_EQ(collector.recorded(), kept);
  EXPECT_EQ(collector.dropped(), 10000u - kept);
  EXPECT_DOUBLE_EQ(collector.ObservedKeepFraction(), static_cast<double>(kept) / 10000.0);
}

// Sharded runs give every shard-local collector the same sampling seed but a
// disjoint id_offset. The keep decision must depend only on (trace id, seed)
// — never on local collector state — so all shards agree on whether a
// distributed trace is collected.
TEST(TraceCollectorTest, ShardsAgreeOnSamplingDecision) {
  TraceCollector::Options a_opts;
  a_opts.sampling_probability = 0.3;
  TraceCollector::Options b_opts = a_opts;
  b_opts.id_offset = uint64_t{7} << 40;
  TraceCollector a(a_opts);
  TraceCollector b(b_opts);
  for (int i = 0; i < 1000; ++i) {
    // Ids minted by either shard get the same verdict from both.
    const TraceId from_a = a.NewTraceId();
    const TraceId from_b = b.NewTraceId();
    EXPECT_EQ(a.IsSampled(from_a), b.IsSampled(from_a));
    EXPECT_EQ(a.IsSampled(from_b), b.IsSampled(from_b));
  }
}

// Disjoint id_offset ranges must never mint the same id (Mix64 is a
// bijection over the offset counter, | 1 only collides odd with even inputs
// mapping to the same odd value — check a prefix exhaustively).
TEST(TraceCollectorTest, ShardIdRangesAreDisjoint) {
  TraceCollector::Options a_opts;
  TraceCollector::Options b_opts;
  b_opts.id_offset = uint64_t{1} << 40;
  TraceCollector a(a_opts);
  TraceCollector b(b_opts);
  std::vector<TraceId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(a.NewTraceId());
    ids.push_back(b.NewTraceId());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceCollectorTest, ObservedKeepFractionTracksCounters) {
  TraceCollector::Options opts;
  opts.sampling_probability = 0.5;
  TraceCollector collector(opts);
  EXPECT_DOUBLE_EQ(collector.ObservedKeepFraction(), 1.0);  // Nothing offered.
  for (int i = 0; i < 5000; ++i) {
    Span s;
    s.trace_id = collector.NewTraceId();
    (void)collector.Record(s);
  }
  const double fraction = collector.ObservedKeepFraction();
  EXPECT_NEAR(fraction, 0.5, 0.05);
  EXPECT_DOUBLE_EQ(fraction, static_cast<double>(collector.recorded()) /
                                 static_cast<double>(collector.recorded() + collector.dropped()));
}

TEST(TraceCollectorTest, ClearResets) {
  TraceCollector collector;
  Span s;
  s.trace_id = 1;
  collector.Record(s);
  collector.Clear();
  EXPECT_TRUE(collector.spans().empty());
  EXPECT_EQ(collector.recorded(), 0u);
}

// Builds a small forest:
//   trace 1: root(a) -> b -> c ; root -> d        (4 spans, depth 2)
//   trace 2: lone orphan whose parent is missing  (treated as root)
std::vector<Span> MakeForest() {
  std::vector<Span> spans;
  auto add = [&spans](TraceId t, SpanId id, SpanId parent, int32_t method) {
    Span s;
    s.trace_id = t;
    s.span_id = id;
    s.parent_span_id = parent;
    s.method_id = method;
    spans.push_back(s);
  };
  add(1, 10, 0, 100);   // root a
  add(1, 11, 10, 101);  // b
  add(1, 12, 11, 102);  // c
  add(1, 13, 10, 103);  // d
  add(2, 20, 999, 104); // orphan
  return spans;
}

TEST(TraceForestTest, DescendantsAndAncestors) {
  const std::vector<Span> spans = MakeForest();
  TraceForest forest(spans);
  const auto& shapes = forest.span_shapes();
  ASSERT_EQ(shapes.size(), 5u);
  EXPECT_EQ(shapes[0].descendants, 3);  // a
  EXPECT_EQ(shapes[0].ancestors, 0);
  EXPECT_EQ(shapes[1].descendants, 1);  // b
  EXPECT_EQ(shapes[1].ancestors, 1);
  EXPECT_EQ(shapes[2].descendants, 0);  // c
  EXPECT_EQ(shapes[2].ancestors, 2);
  EXPECT_EQ(shapes[3].descendants, 0);  // d
  EXPECT_EQ(shapes[3].ancestors, 1);
  EXPECT_EQ(shapes[4].descendants, 0);  // orphan
  EXPECT_EQ(shapes[4].ancestors, 0);
}

TEST(TraceForestTest, TraceShapes) {
  TraceForest forest(MakeForest());
  const auto& traces = forest.trace_shapes();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].total_spans, 4);
  EXPECT_EQ(traces[0].max_depth, 2);
  EXPECT_EQ(traces[0].max_width, 2);  // b and d at depth 1.
  EXPECT_EQ(traces[1].total_spans, 1);
}

TEST(TraceForestTest, EmptyInput) {
  TraceForest forest({});
  EXPECT_TRUE(forest.span_shapes().empty());
  EXPECT_TRUE(forest.trace_shapes().empty());
}

// The per-span-vector, hash-map implementation TraceForest had before it
// moved to flat arrays, kept verbatim (modulo names) as a test oracle.
struct ReferenceForest {
  std::vector<SpanShape> span_shapes;
  std::vector<TraceShape> trace_shapes;

  explicit ReferenceForest(const std::vector<Span>& spans) {
    std::unordered_map<SpanId, size_t> by_span_id;
    by_span_id.reserve(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      by_span_id.emplace(spans[i].span_id, i);
    }
    std::vector<std::vector<size_t>> children(spans.size());
    std::vector<size_t> roots;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent_span_id == 0) {
        roots.push_back(i);
        continue;
      }
      auto it = by_span_id.find(s.parent_span_id);
      if (it == by_span_id.end() || it->second == i) {
        roots.push_back(i);
      } else {
        children[it->second].push_back(i);
      }
    }
    span_shapes.resize(spans.size());
    std::vector<bool> visited(spans.size(), false);
    std::map<TraceId, TraceShape> traces;
    std::vector<std::pair<size_t, int64_t>> stack;
    std::vector<size_t> order;
    for (size_t root : roots) {
      stack.clear();
      order.clear();
      stack.push_back({root, 0});
      int64_t max_depth = 0;
      std::unordered_map<int64_t, int64_t> width_at_depth;
      while (!stack.empty()) {
        auto [idx, depth] = stack.back();
        stack.pop_back();
        order.push_back(idx);
        visited[idx] = true;
        span_shapes[idx].span_index = idx;
        span_shapes[idx].ancestors = depth;
        max_depth = std::max(max_depth, depth);
        ++width_at_depth[depth];
        for (size_t child : children[idx]) {
          stack.push_back({child, depth + 1});
        }
      }
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        int64_t desc = 0;
        for (size_t child : children[*it]) {
          desc += 1 + span_shapes[child].descendants;
        }
        span_shapes[*it].descendants = desc;
      }
      TraceShape& shape = traces[spans[root].trace_id];
      shape.trace_id = spans[root].trace_id;
      shape.total_spans += static_cast<int64_t>(order.size());
      shape.max_depth = std::max(shape.max_depth, max_depth);
      for (const auto& [depth, width] : width_at_depth) {
        shape.max_width = std::max(shape.max_width, width);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      RPCSCOPE_CHECK(visited[i]) << "reference forest: parent-link cycle";
    }
    for (auto& [id, shape] : traces) {
      trace_shapes.push_back(shape);
    }
  }
};

void ExpectSameShapes(const std::vector<Span>& spans) {
  const TraceForest forest(spans);
  const ReferenceForest reference(spans);
  ASSERT_EQ(forest.span_shapes().size(), reference.span_shapes.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanShape& got = forest.span_shapes()[i];
    const SpanShape& want = reference.span_shapes[i];
    ASSERT_EQ(got.span_index, want.span_index) << i;
    ASSERT_EQ(got.descendants, want.descendants) << i;
    ASSERT_EQ(got.ancestors, want.ancestors) << i;
  }
  ASSERT_EQ(forest.trace_shapes().size(), reference.trace_shapes.size());
  for (size_t i = 0; i < reference.trace_shapes.size(); ++i) {
    const TraceShape& got = forest.trace_shapes()[i];
    const TraceShape& want = reference.trace_shapes[i];
    ASSERT_EQ(got.trace_id, want.trace_id) << i;
    ASSERT_EQ(got.total_spans, want.total_spans) << i;
    ASSERT_EQ(got.max_depth, want.max_depth) << i;
    ASSERT_EQ(got.max_width, want.max_width) << i;
  }
}

// Clears the parent link of one span on every parent-link cycle (parents
// resolve to the first span holding the id, as in TraceForest), so a
// shuffled forest stays a forest.
void BreakCycles(std::vector<Span>& spans) {
  std::unordered_map<SpanId, size_t> first;
  for (size_t i = 0; i < spans.size(); ++i) {
    first.emplace(spans[i].span_id, i);
  }
  // 0 = unseen, 1 = on the current walk, 2 = known to reach a root.
  std::vector<int> state(spans.size(), 0);
  std::vector<size_t> walk;
  for (size_t start = 0; start < spans.size(); ++start) {
    size_t at = start;
    walk.clear();
    while (state[at] == 0) {
      state[at] = 1;
      walk.push_back(at);
      const auto it = first.find(spans[at].parent_span_id);
      if (spans[at].parent_span_id == 0 || it == first.end() || it->second == at) {
        break;
      }
      if (state[it->second] == 1) {
        spans[at].parent_span_id = 0;  // Closes a cycle: make it a root.
        break;
      }
      at = it->second;
    }
    for (size_t idx : walk) {
      state[idx] = 2;
    }
  }
}

// Random forests with every edge case TraceForest defines: orphans whose
// parent id is absent, self-parents, duplicate span ids, children whose
// trace id differs from their root's, and many roots sharing a trace id.
std::vector<Span> RandomForest(Rng& rng, size_t n) {
  std::vector<Span> spans;
  spans.reserve(n);
  const uint64_t num_traces = 1 + n / 16;
  for (size_t i = 0; i < n; ++i) {
    Span s;
    s.span_id = (i > 0 && rng.NextBool(0.05)) ? spans[rng.NextBounded(i)].span_id
                                              : 1 + rng.NextBounded(uint64_t{1} << 40);
    s.trace_id = 1 + rng.NextBounded(num_traces);
    const double kind = rng.NextDouble();
    if (i > 0 && kind < 0.75) {
      const Span& parent = spans[rng.NextBounded(i)];
      s.parent_span_id = parent.span_id;
      if (rng.NextBool(0.9)) {
        s.trace_id = parent.trace_id;
      }
    } else if (kind < 0.85) {
      s.parent_span_id = (uint64_t{1} << 50) + rng.NextBounded(1000);  // Orphan.
    } else if (kind < 0.9) {
      s.parent_span_id = s.span_id;  // Self-parent.
    }
    spans.push_back(s);
  }
  // Shuffle so parents land on either side of their children.
  for (size_t i = n; i > 1; --i) {
    std::swap(spans[i - 1], spans[rng.NextBounded(i)]);
  }
  BreakCycles(spans);
  return spans;
}

TEST(TraceForestTest, MatchesReferenceOnRandomForests) {
  Rng rng(20231023);
  const size_t sizes[] = {1, 2, 3, 7, 64, 500, 4096, 30000};
  for (size_t n : sizes) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      ExpectSameShapes(RandomForest(rng, n));
    }
  }
}

TEST(TraceForestTest, MatchesReferenceOnEdgeCases) {
  auto make = [](TraceId trace, SpanId id, SpanId parent) {
    Span s;
    s.trace_id = trace;
    s.span_id = id;
    s.parent_span_id = parent;
    return s;
  };
  // Self-parent, duplicate ids (the second 5 is a child of the first), and
  // three orphan roots of trace 9 with trees of different shapes.
  const std::vector<Span> spans = {
      make(1, 5, 5),    make(1, 5, 5),     make(1, 6, 5),  make(9, 20, 77),
      make(9, 21, 20),  make(9, 22, 20),   make(9, 30, 78), make(9, 31, 30),
      make(9, 32, 31),  make(9, 40, 79),   make(3, 0, 0),   make(3, 0, 0),
  };
  ExpectSameShapes(spans);
  const TraceForest forest(spans);
  ASSERT_EQ(forest.trace_shapes().size(), 3u);
  const TraceShape& t9 = forest.trace_shapes()[2];
  EXPECT_EQ(t9.trace_id, 9u);
  EXPECT_EQ(t9.total_spans, 7);
  EXPECT_EQ(t9.max_depth, 2);  // 30 -> 31 -> 32.
  EXPECT_EQ(t9.max_width, 2);  // 21 and 22 under 20.
  EXPECT_EQ(forest.span_shapes()[0].descendants, 2);  // Second 5 and 6.
  EXPECT_EQ(forest.span_shapes()[1].ancestors, 1);
}

TEST(TraceForestTest, HundredThousandDeepChain) {
  // Recorded leaf-first, as a tracer records nested calls by completion.
  const size_t depth = 100000;
  std::vector<Span> spans(depth);
  for (size_t i = 0; i < depth; ++i) {
    Span& s = spans[depth - 1 - i];
    s.trace_id = 7;
    s.span_id = i + 1;
    s.parent_span_id = i;  // The root (span 1) has parent 0.
  }
  ExpectSameShapes(spans);
  const TraceForest forest(spans);
  EXPECT_EQ(forest.span_shapes()[depth - 1].descendants, static_cast<int64_t>(depth - 1));
  EXPECT_EQ(forest.span_shapes()[0].ancestors, static_cast<int64_t>(depth - 1));
  ASSERT_EQ(forest.trace_shapes().size(), 1u);
  EXPECT_EQ(forest.trace_shapes()[0].max_width, 1);
}

TEST(TraceForestDeathTest, TwoCycleFailsTheAcyclicityCheck) {
  auto make = [](SpanId id, SpanId parent) {
    Span s;
    s.trace_id = 1;
    s.span_id = id;
    s.parent_span_id = parent;
    return s;
  };
  // A healthy root next to a -> b -> a.
  const std::vector<Span> spans = {make(1, 0), make(2, 3), make(3, 2)};
  EXPECT_DEATH({ TraceForest forest(spans); }, "span index 1 .*parent-link cycle");
}

}  // namespace
}  // namespace rpcscope
