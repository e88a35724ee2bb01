#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/trace/storage.h"

namespace rpcscope {
namespace {

TEST(RpcSystemTest, ServerRegistryFollowsLifetime) {
  RpcSystem system(RpcSystemOptions{});
  const MachineId machine = system.topology().MachineAt(0, 0);
  EXPECT_EQ(system.ServerAt(machine), nullptr);
  {
    Server server(&system, machine, ServerOptions{});
    EXPECT_EQ(system.ServerAt(machine), &server);
  }
  // Destruction unregisters.
  EXPECT_EQ(system.ServerAt(machine), nullptr);
}

TEST(RpcSystemTest, HasMethodReflectsRegistration) {
  RpcSystem system(RpcSystemOptions{});
  Server server(&system, system.topology().MachineAt(0, 0), ServerOptions{});
  EXPECT_FALSE(server.HasMethod(1));
  server.RegisterMethod(1, "M", [](std::shared_ptr<ServerCall> call) {
    call->Finish(Status::Ok(), Payload());
  });
  EXPECT_TRUE(server.HasMethod(1));
  EXPECT_FALSE(server.HasMethod(2));
}

TEST(TraceIdsTest, FreshIdsAreUniqueAndNonZero) {
  TraceCollector collector;
  std::unordered_set<TraceId> seen;
  for (int i = 0; i < 20000; ++i) {
    const TraceId id = collector.NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << i;
  }
}

TEST(PayloadTest, ModeledAccessors) {
  const Payload p = Payload::Modeled(4096, 0.4);
  EXPECT_FALSE(p.is_real());
  EXPECT_EQ(p.modeled_bytes(), 4096);
  EXPECT_DOUBLE_EQ(p.assumed_ratio(), 0.4);
  EXPECT_EQ(p.SerializedSize(), 4096);
  const Payload empty;
  EXPECT_EQ(empty.SerializedSize(), 0);
}

TEST(PayloadTest, RealAccessors) {
  Message m;
  m.AddVarint(1, 7);
  const Payload p = Payload::Real(std::move(m));
  EXPECT_TRUE(p.is_real());
  EXPECT_GT(p.SerializedSize(), 0);
  EXPECT_EQ(p.message().FindField(1)->varint, 7u);
}

TEST(RpcSystemTest, FullFleetPipelineIsDeterministic) {
  // Two identically-configured systems running identical workloads must
  // produce byte-identical span streams (the reproducibility contract).
  auto run = []() {
    RpcSystemOptions opts;
    opts.seed = 99;
    RpcSystem system(opts);
    Server server(&system, system.topology().MachineAt(0, 0), ServerOptions{});
    auto rng = std::make_shared<Rng>(3);
    server.RegisterMethod(1, "M", [rng](std::shared_ptr<ServerCall> call) {
      call->Compute(DurationFromMicros(rng->NextExponential(200.0)), [call]() {
        call->Finish(Status::Ok(), Payload::Modeled(512));
      });
    });
    Client client(&system, system.topology().MachineAt(0, 1));
    for (int i = 0; i < 200; ++i) {
      system.sim().Schedule(Micros(30) * i, [&]() {
        client.Call(server.machine(), 1, Payload::Modeled(256), {},
                    [](const CallResult&, Payload) {});
      });
    }
    system.sim().Run();
    return system.tracer().spans();
  };
  const std::vector<Span> a = run();
  const std::vector<Span> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].span_id, b[i].span_id);
    EXPECT_EQ(a[i].latency.Total(), b[i].latency.Total());
    EXPECT_EQ(a[i].normalized_cpu_cycles, b[i].normalized_cpu_cycles);
  }
}

TEST(RpcSystemTest, SpanObserverSeesEverySpan) {
  RpcSystemOptions opts;
  opts.fabric.congestion_probability = 0;
  int observed = 0;
  SimDuration total = 0;
  opts.span_observer = [&](const Span& span) {
    ++observed;
    total += span.latency.Total();
  };
  RpcSystem system(opts);
  Server server(&system, system.topology().MachineAt(0, 0), ServerOptions{});
  server.RegisterMethod(1, "M", [](std::shared_ptr<ServerCall> call) {
    call->Compute(Micros(50), [call]() { call->Finish(Status::Ok(), Payload::Modeled(64)); });
  });
  Client client(&system, system.topology().MachineAt(0, 1));
  for (int i = 0; i < 25; ++i) {
    client.Call(server.machine(), 1, Payload::Modeled(64), {},
                [](const CallResult&, Payload) {});
  }
  system.sim().Run();
  EXPECT_EQ(observed, 25);
  EXPECT_GT(total, 0);
}

// MergedSpans sorts keys and gathers; its order must be byte-identical to a
// std::stable_sort of the shard-major concatenation by (start, trace, span),
// including where those keys tie within and across shards.
TEST(RpcSystemTest, MergedSpansMatchesStableSortOrder) {
  RpcSystemOptions opts;
  opts.num_shards = 4;
  opts.observability.streaming = false;
  RpcSystem system(opts);
  ASSERT_EQ(system.num_shards(), 4);
  Rng rng(5);
  for (int s = 0; s < system.num_shards(); ++s) {
    for (int i = 0; i < 700; ++i) {
      Span span;
      // Few distinct start times and ids: many spans share a start time, and
      // many share the whole (start, trace, span) key, in one shard and
      // across shards. method_id tells the tied spans apart.
      span.start_time = static_cast<SimTime>(rng.NextBounded(8));
      span.trace_id = 1 + rng.NextBounded(3);
      span.span_id = 1 + rng.NextBounded(3);
      span.method_id = s * 1000 + i;
      ASSERT_TRUE(system.shard(s).tracer.Record(span));
    }
  }
  std::vector<Span> reference;
  for (int s = 0; s < system.num_shards(); ++s) {
    const std::vector<Span>& spans = system.shard(s).tracer.spans();
    reference.insert(reference.end(), spans.begin(), spans.end());
  }
  std::stable_sort(reference.begin(), reference.end(), [](const Span& a, const Span& b) {
    if (a.start_time != b.start_time) {
      return a.start_time < b.start_time;
    }
    if (a.trace_id != b.trace_id) {
      return a.trace_id < b.trace_id;
    }
    return a.span_id < b.span_id;
  });
  const std::vector<Span> merged = system.MergedSpans();
  ASSERT_EQ(merged.size(), reference.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged[i].method_id, reference[i].method_id) << i;
  }
  EXPECT_EQ(SerializeSpans(merged), SerializeSpans(reference));
}

}  // namespace
}  // namespace rpcscope
