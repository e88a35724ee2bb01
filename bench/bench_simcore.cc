// DES-core benchmarks: the numbers behind BENCH_simcore.json (docs/PERF.md).
//
// One row per workload shape on the production Simulator: the churn workload
// at three pending-event depths, a deep-backlog drain and the mini-fleet
// end-to-end events/sec (docs/PERF.md#event-queue-design records the earlier
// Legacy / binary-heap / ladder rows these replaced). Plus the sharded
// executor rows (mini-fleet, burst rounds of a known size, pool dispatch
// cost), frame encode with reused WireScratch vs per-call allocation, frame
// decode, CRC32C, and the post-run span pipeline (merge, forest, replay).
//
// Refresh the tracked baseline with: tools/run_bench_simcore.sh
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"
#include "src/rpc/codec.h"
#include "src/sim/parallel/burst_load.h"
#include "src/sim/parallel/shard_executor.h"
#include "src/sim/simulator.h"
#include "src/trace/tree.h"
#include "src/wire/checksum.h"
#include "src/wire/message.h"

namespace rpcscope {
namespace {

// ---------------------------------------------------------------------------
// Churn workload: parallel self-rescheduling chains with mixed horizons —
// mostly microsecond-scale steps (the RPC-stack regime), periodic
// millisecond timers, and rare multi-second jumps. The chain count (benchmark
// arg) is the pending-event depth: 16 is the mini-fleet's regime (its peak
// depth is 33), 1024/8192 are uniformly churning synthetic backlogs deeper
// than any shipped binary sustains, where heap sift depth costs the most.

constexpr uint64_t kChurnEvents = 1 << 17;  // Total events per run, all depths.

struct Chain {
  Simulator* sim = nullptr;
  uint64_t remaining = 0;
  uint64_t tick = 0;
  int id = 0;

  SimDuration NextDelay() {
    ++tick;
    if (tick % 1024 == 0) {
      return Seconds(2);  // Far future.
    }
    if (tick % 64 == 0) {
      return Millis(5);  // Timer-scale.
    }
    return Micros(
        static_cast<int64_t>(1 + ((tick + static_cast<uint64_t>(id)) % 13)));
  }

  void Step() {
    if (remaining == 0) {
      return;
    }
    --remaining;
    sim->Schedule(NextDelay(), [this] { Step(); });
  }
};

uint64_t RunChurn(Simulator& sim, int chain_count) {
  std::vector<Chain> chains(static_cast<size_t>(chain_count));
  for (int i = 0; i < chain_count; ++i) {
    chains[static_cast<size_t>(i)].sim = &sim;
    chains[static_cast<size_t>(i)].id = i;
    chains[static_cast<size_t>(i)].remaining =
        kChurnEvents / static_cast<uint64_t>(chain_count);
    chains[static_cast<size_t>(i)].Step();
  }
  return sim.Run();
}

void BM_SimChurn(benchmark::State& state) {
  uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    events += RunChurn(sim, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_SimChurn)->Arg(16)->Arg(1024)->Arg(8192);

// ---------------------------------------------------------------------------
// Deep-backlog regime: all events scheduled up front, then drained, so every
// pop sifts through a 100k-deep heap.

constexpr int kBacklog = 100000;

void RunBacklog(Simulator& sim) {
  uint64_t tick = 0;
  for (int i = 0; i < kBacklog; ++i) {
    tick += 1 + (tick % 7);
    sim.Schedule(static_cast<SimDuration>(Micros(1) * static_cast<int64_t>(tick % 50000)),
                 [] {});
  }
  sim.Run();
}

void BM_SimBacklog(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    RunBacklog(sim);
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
}
BENCHMARK(BM_SimBacklog);

// ---------------------------------------------------------------------------
// End-to-end: mini-fleet virtual-events-per-host-second.

void BM_MiniFleet(benchmark::State& state) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions options;
  options.duration = Millis(500);
  options.warmup = Millis(100);
  options.frontend_rps = 400;
  uint64_t events = 0;
  for (auto _ : state) {
    const MiniFleetResult result = RunMiniFleet(catalog, options);
    events += result.events_executed;
    benchmark::DoNotOptimize(result.event_digest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_MiniFleet);

// ---------------------------------------------------------------------------
// Shard-domain execution (docs/PARALLEL.md): the mini-fleet spread across
// shard domains, swept over worker-thread counts. shards:1/workers:1 is the
// legacy single-domain path and must stay within noise of BM_MiniFleet;
// the multi-worker rows measure conservative-PDES scaling (they only beat the
// 1-worker row when the host actually has spare cores — see the committed
// BENCH_parallel.json context.num_cpus for the machine the baseline ran on).

void BM_MiniFleetSharded(benchmark::State& state) {
  const ServiceCatalog catalog = ServiceCatalog::BuildDefault();
  MiniFleetOptions options;
  options.duration = Millis(500);
  options.warmup = Millis(100);
  options.frontend_rps = 400;
  options.num_shards = static_cast<int>(state.range(0));
  options.worker_threads = static_cast<int>(state.range(1));
  uint64_t events = 0;
  uint64_t rounds = 0;
  uint64_t cross = 0;
  for (auto _ : state) {
    const MiniFleetResult result = RunMiniFleet(catalog, options);
    events += result.events_executed;
    rounds += result.rounds;
    cross += result.cross_domain_events;
    benchmark::DoNotOptimize(result.event_digest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  // rounds is always >= 1 per run: the single-domain fast path reports one
  // uninterrupted round, so avg_events_per_round stays meaningful across rows.
  state.counters["rounds"] =
      benchmark::Counter(static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  state.counters["avg_events_per_round"] =
      rounds == 0 ? 0.0 : static_cast<double>(events) / static_cast<double>(rounds);
  state.counters["cross_domain_events"] =
      benchmark::Counter(static_cast<double>(cross), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MiniFleetSharded)
    ->ArgNames({"shards", "workers"})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 8})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Rounds of a known size on both branches. Eight domains with a uniform 1 ms
// lookahead run one burst (src/sim/parallel/burst_load.h) of ~32 rounds
// holding events_per_round events each; every event spins kBurstWork mix
// rounds, sized so it costs about what a mini-fleet event does (~0.6 us,
// the `c` behind ShardExecutor::kMinOffloadedEvents; items_per_second at
// workers:1 gives the cost on the recording host). workers:1 runs every round
// inline; workers:W pools the rounds whose offloaded share — the events
// outside the coordinator's own slice, (W - 1) / W of the round — reaches the
// threshold, and pooled_rounds says how many did. Rows that pool must beat
// workers:1 at the same events_per_round; rows below the threshold must match
// it (docs/PARALLEL.md#inline-or-pooled-rounds).
constexpr uint32_t kBurstWork = 300;

void BM_BurstSharded(benchmark::State& state) {
  constexpr int kDomains = 8;
  constexpr SimDuration kLookahead = Millis(1);
  constexpr int kRounds = 32;
  const int64_t events_per_round = state.range(0);
  const SimDuration step = kLookahead * kDomains / events_per_round;
  ShardExecutorOptions opts;
  opts.worker_threads = static_cast<int>(state.range(1));
  opts.lookahead = kLookahead;
  opts.clamp_workers_to_hardware = true;
  ShardWorkerPool pool;  // One long-lived pool, as RpcSystem keeps.
  uint64_t events = 0;
  uint64_t rounds = 0;
  uint64_t pooled = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<SimDomain>> owned;
    std::vector<SimDomain*> domains;
    for (int i = 0; i < kDomains; ++i) {
      owned.push_back(std::make_unique<SimDomain>(i, kDomains));
      domains.push_back(owned.back().get());
    }
    PlantBurst(domains, 0, kLookahead * kRounds, step, kBurstWork);
    ShardExecutor executor(domains, opts, &pool);
    events += executor.RunToCompletion();
    rounds += executor.rounds();
    pooled += executor.pooled_rounds();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["rounds"] =
      benchmark::Counter(static_cast<double>(rounds), benchmark::Counter::kAvgIterations);
  state.counters["pooled_rounds"] =
      benchmark::Counter(static_cast<double>(pooled), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BurstSharded)
    ->ArgNames({"events_per_round", "workers"})
    ->ArgsProduct({{2048, 2736, 4096, 16384}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// One pooled round with no work in it: publish, wake the helpers, run an
// empty slice each, park them again. Between rounds the coordinator keeps
// busy for idle_us, as it does while it runs inline rounds, so the helpers
// have been parked that long when the next round wakes them; only the
// dispatch itself is timed. This is the per-round cost the executor's
// inline/pooled threshold (ShardExecutor::kMinOffloadedEvents) is derived
// from; the per-event side comes from the workers:1 sharded rows.
double HostSeconds() {
  // Host time for the manual dispatch timing only; nothing here reaches a digest.
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // NOLINT(detan-nondet-source) bench timer
      .count();
}

void BM_PoolDispatch(benchmark::State& state) {
  ShardWorkerPool pool;
  const int participants = static_cast<int>(state.range(0));
  const double idle_s = static_cast<double>(state.range(1)) * 1e-6;
  std::vector<uint64_t> hits(static_cast<size_t>(participants), 0);
  const std::function<void(int)> task = [&hits](int w) { ++hits[static_cast<size_t>(w)]; };
  pool.Run(participants, task);  // Start the helpers outside the timed loop.
  for (auto _ : state) {
    const double busy_until = HostSeconds() + idle_s;
    while (HostSeconds() < busy_until) {
    }
    const double start = HostSeconds();
    pool.Run(participants, task);
    state.SetIterationTime(HostSeconds() - start);
  }
  benchmark::DoNotOptimize(hits.data());
}
BENCHMARK(BM_PoolDispatch)
    ->ArgNames({"participants", "idle_us"})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({4, 100})
    ->Args({4, 1000})
    ->UseManualTime();

// ---------------------------------------------------------------------------
// Wire path: frame encode with per-call allocation (the pre-overhaul shape)
// vs a reused WireScratch (what Client/Server now do).

void BM_EncodeFrame_Alloc(benchmark::State& state) {
  Rng rng(7);
  const Message msg =
      Message::GeneratePayload(rng, static_cast<size_t>(state.range(0)), 0.6);
  const Payload payload = Payload::Real(msg);
  uint64_t nonce = 0;
  for (auto _ : state) {
    WireFrame frame = EncodeFrame(payload, 99, nonce++);
    benchmark::DoNotOptimize(frame.body.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(msg.ByteSize()));
}
BENCHMARK(BM_EncodeFrame_Alloc)->Arg(1530)->Arg(32768);

void BM_EncodeFrame_Scratch(benchmark::State& state) {
  Rng rng(7);
  const Message msg =
      Message::GeneratePayload(rng, static_cast<size_t>(state.range(0)), 0.6);
  const Payload payload = Payload::Real(msg);
  WireScratch scratch;
  uint64_t nonce = 0;
  for (auto _ : state) {
    WireFrame frame = EncodeFrame(payload, 99, nonce++, scratch);
    benchmark::DoNotOptimize(frame.body.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(msg.ByteSize()));
}
BENCHMARK(BM_EncodeFrame_Scratch)->Arg(1530)->Arg(32768);

// Decode (decrypt, CRC-check, decompress, parse) of the frame the encode rows
// produce, with a reused WireScratch as Client/Server hold.
void BM_DecodeFrame_Scratch(benchmark::State& state) {
  Rng rng(7);
  const Message msg =
      Message::GeneratePayload(rng, static_cast<size_t>(state.range(0)), 0.6);
  WireScratch scratch;
  const WireFrame frame = EncodeFrame(Payload::Real(msg), 99, 1, scratch);
  for (auto _ : state) {
    Result<Payload> decoded = DecodeFrame(frame, 99, scratch);
    if (!decoded.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded->SerializedSize());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(msg.ByteSize()));
}
BENCHMARK(BM_DecodeFrame_Scratch)->Arg(1530)->Arg(32768);

// The CRC32C that frames every message and guards every checkpoint section.
void BM_Crc32c(benchmark::State& state) {
  Rng rng(7);
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1048576);

// ---------------------------------------------------------------------------
// Post-run span pipeline (docs/PERF.md#post-run-span-pipeline): the canonical
// merge, trace-tree assembly and the reference replay that every DES run's
// consumers pay after the simulation, over ~200k synthetic spans — the span
// count of perfbench's fleet_des pass.

constexpr size_t kPipelineSpans = 200000;

// Traces of a root with up to three children and up to two grandchildren
// each, roots arriving ~600 us apart in virtual time (about 30 s for 200k
// spans), spans spread over the system's shards at random. Each trace is
// recorded leaf-first, as a tracer records nested calls when they complete,
// so record order is close to, but not, start-time order.
void RecordSyntheticSpans(RpcSystem& system, size_t total) {
  Rng rng(7);
  uint64_t next_id = 1;
  SimTime arrival = 0;
  std::vector<Span> trace;
  size_t made = 0;
  while (made < total) {
    trace.clear();
    auto add = [&](const Span* parent) {
      Span s;
      s.trace_id = parent == nullptr ? Mix64(next_id++) | 1 : parent->trace_id;
      s.span_id = Mix64(next_id++) | 1;
      s.parent_span_id = parent == nullptr ? 0 : parent->span_id;
      s.start_time = parent == nullptr
                         ? arrival
                         : parent->start_time + static_cast<SimDuration>(rng.NextBounded(
                                                    static_cast<uint64_t>(Micros(200))));
      s.method_id = static_cast<int32_t>(rng.NextBounded(64));
      s.latency[RpcComponent::kServerApp] =
          Micros(50) + static_cast<SimDuration>(rng.NextBounded(static_cast<uint64_t>(Millis(1))));
      trace.push_back(s);
      return s;
    };
    arrival += static_cast<SimDuration>(rng.NextBounded(static_cast<uint64_t>(Micros(1200))));
    const Span root = add(nullptr);
    const uint64_t children = rng.NextBounded(4);
    for (uint64_t c = 0; c < children; ++c) {
      const Span child = add(&root);
      const uint64_t grandchildren = rng.NextBounded(3);
      for (uint64_t g = 0; g < grandchildren; ++g) {
        add(&child);
      }
    }
    for (auto it = trace.rbegin(); it != trace.rend(); ++it) {
      const uint64_t shard = rng.NextBounded(static_cast<uint64_t>(system.num_shards()));
      system.shard(static_cast<int>(shard)).tracer.Record(*it);
    }
    made += trace.size();
  }
}

std::unique_ptr<RpcSystem> SyntheticSpanSystem(int num_shards) {
  RpcSystemOptions options;
  options.num_shards = num_shards;
  options.observability.streaming = false;
  auto system = std::make_unique<RpcSystem>(options);
  RecordSyntheticSpans(*system, kPipelineSpans);
  return system;
}

void BM_MergedSpans(benchmark::State& state) {
  const std::unique_ptr<RpcSystem> system = SyntheticSpanSystem(static_cast<int>(state.range(0)));
  size_t spans = 0;
  for (auto _ : state) {
    const std::vector<Span> merged = system->MergedSpans();
    spans += merged.size();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(spans));
}
BENCHMARK(BM_MergedSpans)->ArgName("shards")->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_TraceForest(benchmark::State& state) {
  const std::vector<Span> spans = SyntheticSpanSystem(8)->MergedSpans();
  for (auto _ : state) {
    const TraceForest forest(spans);
    benchmark::DoNotOptimize(forest.trace_shapes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(spans.size()));
}
BENCHMARK(BM_TraceForest)->Unit(benchmark::kMillisecond);

void BM_ReplayIntoHub(benchmark::State& state) {
  const std::vector<Span> spans = SyntheticSpanSystem(8)->MergedSpans();
  ObservabilityOptions options;
  options.window = Seconds(1);  // perfbench's fleet workloads use 1 s windows.
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayIntoHub(spans, options).AggregateDigest());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(spans.size()));
}
BENCHMARK(BM_ReplayIntoHub)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rpcscope

int main(int argc, char** argv) {
  // The library's own "library_build_type" context reflects how the system
  // benchmark package was compiled, not this binary. Record our build type so
  // tools/run_bench_*.sh can refuse to commit a non-optimized baseline.
#ifdef NDEBUG
  benchmark::AddCustomContext("rpcscope_build_type", "release");
#else
  benchmark::AddCustomContext("rpcscope_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
