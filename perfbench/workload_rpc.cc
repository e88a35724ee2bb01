// rpc_real_bytes: one Client and one Server exchanging real Message payloads
// through the full serialize -> compress -> encrypt -> CRC -> frame pipeline,
// the paper's RPC tax. The mini-fleet only sends Payload::Modeled, so this is
// the workload where the wire layer runs.
//
// The request corpus comes from the repository's own Fig. 6 size model: a
// seeded, popularity-weighted FleetSampler over the default method catalog
// (the calibrated fleet every fig* binary and example samples) gives each
// request its size (Span::request_payload_bytes) and its method's redundancy,
// and Message::GeneratePayload builds the bytes. The catalog stays fixed and
// the seed drives the sampler and the bytes: a per-seed catalog moves which
// methods are large, and with them a 10,000-request corpus's byte volume, by
// 25% between seeds. Requests are capped at 128 KiB, which cuts about 0.6% of
// them (the run prints how many): the uncapped tail reaches 1.6 MB, and the
// few largest requests of a seed then set its step-time tail and peak memory.
// The server echoes each request byte-exact after a fixed handler compute. A
// pass sends every corpus request once, issued open-loop in virtual time at a
// fixed interval; a step is one fixed virtual-time slice of 200 calls, run to
// completion and checked.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/rpc/client.h"
#include "src/rpc/codec.h"
#include "src/rpc/server.h"
#include "src/wire/checksum.h"
#include "src/wire/cipher.h"
#include "src/wire/compressor.h"
#include "src/wire/message.h"

namespace rpcbench {
namespace {

using rpcscope::Payload;

constexpr rpcscope::MethodId kEcho = 1;
constexpr uint64_t kWireKey = 0x9a7bull;

struct Outcome {
  bool done = false;
  rpcscope::Status status;
  rpcscope::LatencyBreakdown latency;
  Payload response;
};

// The program objects of one pass: a system, an echo server and a client on
// two machines of the same cluster.
struct Endpoints {
  rpcscope::RpcSystem system;
  rpcscope::MachineId server_machine;
  rpcscope::Server server;
  rpcscope::Client client;

  explicit Endpoints(const rpcscope::RpcSystemOptions& options)
      : system(options),
        server_machine(system.topology().MachineAt(0, 0)),
        server(&system, server_machine, rpcscope::ServerOptions{}),
        client(&system, system.topology().MachineAt(0, 1)) {
    server.RegisterMethod(kEcho, "Echo", [](std::shared_ptr<rpcscope::ServerCall> call) {
      call->Compute(rpcscope::Micros(20),
                    [call] { call->Finish(rpcscope::Status::Ok(), call->request()); });
    });
  }
};

class RpcRealBytes final : public Workload {
 public:
  explicit RpcRealBytes(const Args& args)
      : calls_per_pass_(args.scale == Scale::kSmoke ? 1000 : 10000) {
    const FleetModel fleet(rpcscope::MethodCatalogOptions{});
    rpcscope::FleetSampler sampler = fleet.MakeSampler(rpcscope::Mix64(args.seed ^ 0xb17e5ull));
    rpcscope::Rng rng(rpcscope::Mix64(args.seed ^ 0xb17e6ull));
    corpus_.reserve(calls_per_pass_);
    std::vector<double> sizes;
    size_t capped = 0;
    for (size_t i = 0; i < calls_per_pass_; ++i) {
      const rpcscope::Span span = sampler.Sample().span;
      const size_t sampled = static_cast<size_t>(span.request_payload_bytes);
      const size_t bytes = std::min(sampled, kMaxRequestBytes);
      capped += sampled > bytes ? 1 : 0;
      sizes.push_back(static_cast<double>(bytes));
      corpus_.push_back(Payload::Real(rpcscope::Message::GeneratePayload(
          rng, bytes, fleet.methods.method(span.method_id).redundancy)));
    }
    const double total = std::accumulate(sizes.begin(), sizes.end(), 0.0);
    std::printf("corpus %zu requests, %.0f bytes: p50 %.0f, p90 %.0f, p99 %.0f; %zu capped\n",
                corpus_.size(), total, Percentile(sizes, 0.50), Percentile(sizes, 0.90),
                Percentile(sizes, 0.99), capped);
    options_.seed = rpcscope::Mix64(args.seed);
  }

  PassStats RunPass(Bench& bench) override {
    PassStats stats;
    Tracer& tracer = bench.tracer;
    std::optional<Endpoints> ends;
    {
      Tracer::Scope span = tracer.Span("rpc.system_build");
      const Stopwatch watch;
      ends.emplace(options_);
      stats.setup_s = watch.Seconds();
    }
    rpcscope::Simulator& sim = ends->system.sim();
    const size_t n = calls_per_pass_;
    std::vector<Outcome> outcomes(n);

    TimedPhase timed(bench);
    for (size_t first = 0; first < n; first += kCallsPerStep) {
      const size_t last = std::min(n, first + kCallsPerStep);
      bench.Step([&] {
        {
          Tracer::Scope span = tracer.Span("rpc.issue");
          for (size_t i = first; i < last; ++i) {
            const rpcscope::SimDuration at = static_cast<rpcscope::SimDuration>(i - first) *
                                             kCallInterval;
            sim.Schedule(at, [this, &ends, &outcomes, i] {
              ends->client.Call(ends->server_machine, kEcho, Request(i), rpcscope::CallOptions{},
                                [&outcomes, i](const rpcscope::CallResult& result,
                                               Payload response) {
                                  Outcome& o = outcomes[i];
                                  o.done = true;
                                  o.status = result.status;
                                  o.latency = result.latency;
                                  o.response = std::move(response);
                                });
            });
          }
        }
        {
          Tracer::Scope span = tracer.Span("sim.segment");
          const uint64_t events = sim.Run();
          span.Count("events", static_cast<double>(events));
        }
        Tracer::Scope span = tracer.Span("bench.check");
        for (size_t i = first; i < last; ++i) {
          Outcome& o = outcomes[i];
          const bool echoed = o.done && o.status.ok() && o.response.is_real() &&
                              o.response.message().Equals(Request(i).message());
          if (echoed) {
            bench.checks.Passed(1);
          } else {
            bench.checks.Expect(false, "call " + std::to_string(i) + " did not echo its request (" +
                                           o.status.ToString() + ")");
          }
          o.response = Payload();  // The bytes are checked; drop them.
        }
      });
    }
    timed.Finish(stats);
    stats.spans = static_cast<int64_t>(n);

    rpcscope::RpcSystem& system = ends->system;
    Fingerprint& fp = bench.fingerprint;
    fp.Set("sim.events", static_cast<double>(sim.events_executed()));
    fp.SetHex("sim.event_digest", sim.event_digest());
    fp.Set("rpc.completions_ok", system.MergedCounter("client.completions_ok"));
    fp.Set("rpc.completions_err", system.MergedCounter("client.completions_err"));
    fp.Set("rpc.retries", system.MergedCounter("client.retries"));
    fp.Set("rpc.attempt_timeouts", system.MergedCounter("client.attempt_timeouts"));
    fp.Set("rpc.shed", system.MergedCounter("server.shed"));
    RecordModel(fp, outcomes);

    if (tracer.enabled()) {
      const int32_t p = bench.pass;
      const double events = static_cast<double>(sim.events_executed());
      const double busy_ms = tracer.SumMs(p, "sim.segment");
      const double ok = system.MergedCounter("client.completions_ok");
      const double attempts = ok + system.MergedCounter("client.completions_err") +
                              system.MergedCounter("client.retries");
      bench.Layer("sim.segment_busy_ms", "ms", busy_ms);
      bench.Layer("sim.ns_per_event", "ns", busy_ms * 1e6 / events);
      bench.Layer("sim.events_per_s", "1/s", events / (busy_ms / 1e3));
      bench.Layer("rpc.host_us_per_call", "us", stats.timed_s * 1e6 / static_cast<double>(n));
      bench.Layer("rpc.goodput_base", "count", attempts);
      bench.Layer("rpc.goodput_frac", "ratio", attempts > 0 ? ok / attempts : 0);
      MeasureWire(bench);
    }
    return stats;
  }

 private:
  static constexpr size_t kCallsPerStep = 200;
  static constexpr size_t kMaxRequestBytes = size_t{128} << 10;
  static constexpr size_t kWireChunk = 500;

  // Call i of a pass sends corpus entry i.
  const Payload& Request(size_t i) const { return corpus_[i]; }
  static constexpr rpcscope::SimDuration kCallInterval = rpcscope::Micros(100);

  static void RecordModel(Fingerprint& fp, const std::vector<Outcome>& outcomes) {
    std::vector<double> rct_us;
    double tax = 0;
    double total = 0;
    int64_t errors = 0;
    for (const Outcome& o : outcomes) {
      const double t = static_cast<double>(o.latency.Total());
      rct_us.push_back(t / 1e3);
      total += t;
      tax += static_cast<double>(o.latency.Tax());
      errors += o.status.ok() ? 0 : 1;
    }
    std::sort(rct_us.begin(), rct_us.end());
    auto at = [&rct_us](double q) {
      return rct_us[static_cast<size_t>(q * static_cast<double>(rct_us.size() - 1))];
    };
    fp.Set("model.rct_p50_us", at(0.50));
    fp.Set("model.rct_p99_us", at(0.99));
    fp.Set("model.tax_frac", total > 0 ? tax / total : 0);
    fp.Set("model.error_frac", static_cast<double>(errors) / static_cast<double>(outcomes.size()));
  }

  // Times each wire stage over the whole corpus once, outside the timed
  // phase: serialize, compress, encrypt and checksum the bytes a request
  // frame carries, then the codec's full EncodeFrame/DecodeFrame. The corpus
  // goes through in chunks, so only one chunk's copies are live at a time.
  void MeasureWire(Bench& bench) const {
    Tracer& tracer = bench.tracer;
    Tracer::Scope root = tracer.Span("wire.corpus");
    auto timed_ms = [&tracer](const char* name, auto&& body) {
      const int64_t t0 = NowNs();
      {
        Tracer::Scope span = tracer.Span(name);
        body();
      }
      return static_cast<double>(NowNs() - t0) / 1e6;
    };
    double serialized_bytes = 0;
    double compressed_bytes = 0;
    double serialize_ms = 0;
    double compress_ms = 0;
    double cipher_ms = 0;
    double crc_ms = 0;
    double encode_ms = 0;
    double decode_ms = 0;
    uint32_t crc_fold = 0;
    rpcscope::RatelScratch lz;
    rpcscope::WireScratch scratch;
    for (size_t first = 0; first < corpus_.size(); first += kWireChunk) {
      const size_t m = std::min(kWireChunk, corpus_.size() - first);
      std::vector<std::vector<uint8_t>> serialized(m);
      std::vector<std::vector<uint8_t>> compressed(m);
      serialize_ms += timed_ms("wire.serialize", [&] {
        for (size_t k = 0; k < m; ++k) {
          corpus_[first + k].message().SerializeTo(serialized[k]);
          serialized_bytes += static_cast<double>(serialized[k].size());
        }
      });
      compress_ms += timed_ms("wire.compress", [&] {
        for (size_t k = 0; k < m; ++k) {
          rpcscope::RatelCompress(serialized[k], lz, compressed[k]);
          compressed_bytes += static_cast<double>(compressed[k].size());
        }
      });
      cipher_ms += timed_ms("wire.cipher", [&] {
        for (size_t k = 0; k < m; ++k) {
          rpcscope::StreamCipher(kWireKey, first + k).Apply(compressed[k]);
        }
      });
      crc_ms += timed_ms("wire.crc", [&] {
        for (size_t k = 0; k < m; ++k) {
          crc_fold ^= rpcscope::Crc32c(compressed[k]);
        }
      });
      std::vector<rpcscope::WireFrame> frames(m);
      encode_ms += timed_ms("wire.encode_frame", [&] {
        for (size_t k = 0; k < m; ++k) {
          frames[k] = rpcscope::EncodeFrame(corpus_[first + k], kWireKey, first + k, scratch);
        }
      });
      std::vector<std::optional<Payload>> decoded(m);
      decode_ms += timed_ms("wire.decode_frame", [&] {
        for (size_t k = 0; k < m; ++k) {
          rpcscope::Result<Payload> payload = rpcscope::DecodeFrame(frames[k], kWireKey, scratch);
          if (payload.ok()) {
            decoded[k] = std::move(*payload);
          }
        }
      });
      Tracer::Scope span = tracer.Span("bench.check");
      for (size_t k = 0; k < m; ++k) {
        bench.checks.Expect(decoded[k].has_value() && decoded[k]->is_real() &&
                                decoded[k]->message().Equals(corpus_[first + k].message()),
                            "frame " + std::to_string(first + k) + " did not decode to its message");
      }
    }
    root.Count("crc_fold", static_cast<double>(crc_fold));
    const double frames_n = static_cast<double>(corpus_.size());
    bench.Layer("wire.serialize_mb_per_s", "MB/s", serialized_bytes / 1e6 / (serialize_ms / 1e3));
    bench.Layer("wire.compress_mb_per_s", "MB/s", serialized_bytes / 1e6 / (compress_ms / 1e3));
    bench.Layer("wire.cipher_mb_per_s", "MB/s", compressed_bytes / 1e6 / (cipher_ms / 1e3));
    bench.Layer("wire.crc_mb_per_s", "MB/s", compressed_bytes / 1e6 / (crc_ms / 1e3));
    bench.Layer("wire.encode_frame_us", "us", encode_ms * 1e3 / frames_n);
    bench.Layer("wire.decode_frame_us", "us", decode_ms * 1e3 / frames_n);
    bench.Layer("wire.compression_ratio", "ratio", compressed_bytes / serialized_bytes);
  }

  size_t calls_per_pass_;
  rpcscope::RpcSystemOptions options_;
  std::vector<Payload> corpus_;
};

}  // namespace

std::unique_ptr<Workload> MakeRpcRealBytes(const Args& args) {
  return std::make_unique<RpcRealBytes>(args);
}

}  // namespace rpcbench
