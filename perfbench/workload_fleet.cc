// fleet_des and fleet_sharded: the Table-1 mini-fleet run in fixed virtual-
// time epochs through MiniFleet's public epoch protocol (ArmThrough,
// RunSegment, ResyncAt), then collected, merged, assembled into a trace
// forest and replayed into a fresh hub.
//
//  - fleet_des: one domain (shards:1, workers:1), streaming observability on,
//    no checkpoints — the event-queue / callback / rpc-stack / stream-fold
//    hot path on the executor's single-domain fast path.
//  - fleet_sharded: shards:8 on up to 4 workers, a fault plan (crash+restart,
//    gray slowdown, lossy link), a mid-run policy stage, a checkpoint every
//    10th epoch, and a final restore of the newest checkpoint into a fresh
//    MiniFleet whose digests must equal those recorded at the write.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <unistd.h>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/checkpoint/checkpoint.h"
#include "src/fault/fault_plan.h"
#include "src/fleet/mini_fleet.h"
#include "src/fleet/service_catalog.h"
#include "src/monitor/stream.h"
#include "src/trace/tree.h"

namespace rpcbench {
namespace {

namespace fs = std::filesystem;
using rpcscope::MiniFleet;
using rpcscope::SimDuration;
using rpcscope::SimTime;

struct FleetConfig {
  const char* name;
  SimDuration duration;
  SimDuration epoch;
  int shards;
  int workers;
  int checkpoint_every_epochs;  // 0: no checkpoints.
  bool chaos;                  // Fault plan + mid-run policy stage.
};

// The fleet_sharded chaos plan, scaled to the horizon: a crash+restart, a
// gray slowdown and lossy links on the three network-disk replicas (machines
// 0-2 in the sharded placement). The shape is fleet_study --chaos's, except
// that the lossy paths are those of a deployed replica, so the loss window
// sees traffic.
rpcscope::FaultPlan MakeChaosPlan(SimDuration duration) {
  rpcscope::FaultPlan plan;
  plan.crashes.push_back(
      {.machine = 1, .at = duration * 3 / 10, .restart_at = duration * 6 / 10});
  plan.gray_slowdowns.push_back(
      {.machine = 2, .factor = 40.0, .start = duration * 2 / 5, .end = duration * 7 / 10});
  plan.losses.push_back({.src = 0,
                         .dst = -1,
                         .loss_probability = 0.2,
                         .start = duration / 2,
                         .end = duration * 4 / 5});
  return plan;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const Args& args, const FleetConfig& config)
      : config_(config),
        services_(rpcscope::ServiceCatalog::BuildDefault()),
        store_(args.work_dir + "/ckpt-" + config.name + "-" + std::to_string(getpid())) {
    options_.duration = config.duration;
    options_.seed = args.seed;
    options_.num_shards = config.shards;
    options_.worker_threads = config.workers;
    // One-second Monarch windows so windows close during the run.
    options_.observability.window = rpcscope::Seconds(1);
    if (config.chaos) {
      plan_ = MakeChaosPlan(config.duration);
      options_.fault_plan = &plan_;
      // A mid-run rollout that arms a per-attempt watchdog and one retry on
      // every call. The watchdog sits above the fleet's cross-continent round
      // trips, so it catches lost frames instead of failing healthy calls. It
      // lands well before the loss window opens: a call issued without a
      // watchdog whose frame is lost would never conclude, and the next
      // checkpoint barrier would (rightly) refuse to snapshot it.
      rpcscope::PolicySnapshot stage;
      stage.defaults.attempt_timeout = rpcscope::Seconds(1);
      stage.defaults.max_retries = 1;
      options_.policy.AddStage(config.duration / 4, stage);
    }
  }

  ~FleetWorkload() override {
    std::error_code ec;
    fs::remove_all(store_, ec);
  }

  int workers() const override { return config_.workers; }

  PassStats RunPass(Bench& bench) override {
    PassStats stats;
    Tracer& tracer = bench.tracer;
    const bool traced = tracer.enabled();
    std::error_code ec;
    fs::remove_all(store_, ec);

    std::optional<MiniFleet> fleet;
    {
      Tracer::Scope span = tracer.Span("fleet.minifleet_build");
      const Stopwatch watch;
      fleet.emplace(services_, options_);
      stats.setup_s = watch.Seconds();
    }
    rpcscope::RpcSystem& system = fleet->system();
    const uint64_t config_hash = fleet->ConfigHash(config_.epoch);
    const uint64_t num_epochs =
        static_cast<uint64_t>((config_.duration + config_.epoch - 1) / config_.epoch);

    uint64_t rounds = 0;
    uint64_t cross_domain_events = 0;
    double segment_cpu_s = 0;
    int64_t status_failures = 0;
    int64_t status_checks = 0;
    auto expect_ok = [&](const rpcscope::Status& s, const char* what) {
      ++status_checks;
      if (!s.ok()) {
        ++status_failures;
        bench.checks.Expect(false, std::string(what) + ": " + s.ToString());
      }
    };
    // Digests recorded at each checkpoint write, by epoch.
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> written;
    uint64_t checkpoint_bytes = 0;
    std::optional<MiniFleet> restored;

    TimedPhase timed(bench);
    for (uint64_t k = 0; k < num_epochs; ++k) {
      const bool final_epoch = k + 1 == num_epochs;
      const SimTime end =
          final_epoch ? rpcscope::kMaxSimTime : static_cast<SimTime>(k + 1) * config_.epoch;
      bench.Step([&] {
        {
          Tracer::Scope span = tracer.Span("fleet.arm");
          expect_ok(fleet->ArmThrough(end), "ArmThrough");
        }
        {
          Tracer::Scope span = tracer.Span("sim.segment");
          const uint64_t events_before = traced ? system.TotalEventsExecuted() : 0;
          const double cpu_before = traced ? ProcessCpuSeconds() : 0;
          fleet->RunSegment(end);
          const uint64_t segment_rounds = system.last_rounds();
          rounds += segment_rounds;
          cross_domain_events += system.last_cross_domain_events();
          if (traced) {
            segment_cpu_s += ProcessCpuSeconds() - cpu_before;
            span.Count("events", static_cast<double>(system.TotalEventsExecuted() - events_before));
            span.Count("rounds", static_cast<double>(segment_rounds));
          }
        }
        if (!final_epoch) {
          Tracer::Scope span = tracer.Span("executor.resync");
          expect_ok(fleet->ResyncAt(end), "ResyncAt");
        }
      });
      const uint64_t epoch = k + 1;
      if (config_.checkpoint_every_epochs > 0 && !final_epoch &&
          epoch % static_cast<uint64_t>(config_.checkpoint_every_epochs) == 0) {
        {
          Tracer::Scope span = tracer.Span("checkpoint.write");
          expect_ok(fleet->WriteCheckpoint(store_, epoch, config_hash, config_.duration, 2),
                    "WriteCheckpoint");
        }
        Tracer::Scope span = tracer.Span("bench.check");
        written[epoch] = {system.ShardedEventDigest(), system.hub()->AggregateDigest()};
        const std::vector<std::string> committed = rpcscope::ListCheckpoints(store_);
        bench.checks.Expect(!committed.empty() &&
                                rpcscope::CheckpointEpochFromName(
                                    fs::path(committed.back()).filename().string()) ==
                                    static_cast<int64_t>(epoch),
                            "checkpoint for epoch " + std::to_string(epoch) + " not committed");
        if (!committed.empty()) {
          checkpoint_bytes += DirectoryBytes(committed.back());
        }
      }
    }

    std::optional<rpcscope::MiniFleetResult> result;
    {
      Tracer::Scope span = tracer.Span("monitor.collect");
      result.emplace(fleet->Collect());
    }
    std::vector<rpcscope::Span> merged;
    {
      Tracer::Scope span = tracer.Span("trace.merge");
      merged = system.MergedSpans();
    }
    std::optional<rpcscope::TraceForest> forest;
    {
      Tracer::Scope span = tracer.Span("trace.forest");
      forest.emplace(merged);
    }
    uint64_t replayed_digest = 0;
    {
      Tracer::Scope span = tracer.Span("monitor.replay");
      replayed_digest =
          rpcscope::ReplayIntoHub(merged, options_.observability).AggregateDigest();
    }
    uint64_t restored_epoch = 0;
    if (!written.empty()) {
      // Restore the newest checkpoint into a fresh fleet: its digests must
      // equal those recorded when that checkpoint was written.
      {
        Tracer::Scope span = tracer.Span("fleet.minifleet_build");
        restored.emplace(services_, options_);
      }
      const std::vector<std::string> committed = rpcscope::ListCheckpoints(store_);
      rpcscope::Result<uint64_t> epoch = rpcscope::NotFoundError("no committed checkpoint");
      if (!committed.empty()) {
        Tracer::Scope span = tracer.Span("checkpoint.restore");
        epoch = restored->RestoreCheckpoint(committed.back(), config_hash);
      }
      expect_ok(epoch.status(), "RestoreCheckpoint");
      if (epoch.ok()) {
        restored_epoch = *epoch;
        Tracer::Scope span = tracer.Span("bench.check");
        const auto it = written.find(*epoch);
        bench.checks.Expect(it != written.end() && *epoch == written.rbegin()->first,
                            "restored epoch is not the newest written");
        if (it != written.end()) {
          bench.checks.Expect(restored->system().ShardedEventDigest() == it->second.first,
                              "restored event digest differs from the digest at write");
          bench.checks.Expect(restored->system().hub()->AggregateDigest() == it->second.second,
                              "restored aggregate digest differs from the digest at write");
        }
      }
    }
    {
      Tracer::Scope span = tracer.Span("bench.check");
      CheckRun(bench, *result, merged, *forest, replayed_digest);
    }
    timed.Finish(stats);
    bench.checks.Passed(status_checks - status_failures);
    stats.spans = static_cast<int64_t>(merged.size());

    // Exact fingerprint: counts, digests and simulated-time model values.
    const double ok = system.MergedCounter("client.completions_ok");
    const double err = system.MergedCounter("client.completions_err");
    const double retries = system.MergedCounter("client.retries");
    Fingerprint& fp = bench.fingerprint;
    fp.Set("sim.events", static_cast<double>(result->events_executed));
    fp.SetHex("sim.event_digest", result->event_digest);
    fp.Set("executor.rounds", static_cast<double>(rounds));
    fp.Set("executor.cross_domain_events", static_cast<double>(cross_domain_events));
    fp.Set("trace.spans", static_cast<double>(merged.size()));
    fp.SetHex("monitor.streamed_digest", result->streamed_aggregate_digest);
    fp.SetHex("monitor.replayed_digest", replayed_digest);
    fp.Set("monitor.spans_streamed", static_cast<double>(result->spans_streamed));
    fp.Set("monitor.windows_closed", static_cast<double>(result->windows_closed));
    fp.Set("monitor.buffer_drops", static_cast<double>(result->span_buffer_drops));
    fp.Set("monitor.late_updates", static_cast<double>(result->late_window_updates));
    fp.Set("checkpoint.writes", static_cast<double>(written.size()));
    fp.Set("checkpoint.bytes", static_cast<double>(checkpoint_bytes));
    fp.Set("checkpoint.restored_epoch", static_cast<double>(restored_epoch));
    fp.Set("rpc.completions_ok", ok);
    fp.Set("rpc.completions_err", err);
    fp.Set("rpc.retries", retries);
    fp.Set("rpc.attempt_timeouts", system.MergedCounter("client.attempt_timeouts"));
    fp.Set("rpc.shed", system.MergedCounter("server.shed"));
    fp.Set("fault.crashes", system.MergedCounter("fault.crashes"));
    fp.Set("fault.loss_drops", system.MergedCounter("fault.loss_drops"));
    fp.Set("policy.stages_applied", static_cast<double>(result->policy_stages_applied));
    RecordModel(fp, result->spans);

    if (traced) {
      const int32_t p = bench.pass;
      const double events = static_cast<double>(result->events_executed);
      const double busy_ms = tracer.SumMs(p, "sim.segment");
      const double write_ms = tracer.SumMs(p, "checkpoint.write");
      bench.Layer("fleet.minifleet_build_ms", "ms", stats.setup_s * 1e3);
      bench.Layer("sim.segment_busy_ms", "ms", busy_ms);
      bench.Layer("sim.ns_per_event", "ns", busy_ms * 1e6 / events);
      bench.Layer("sim.events_per_s", "1/s", events / (busy_ms / 1e3));
      bench.Layer("executor.events_per_round", "count", events / static_cast<double>(rounds));
      bench.Layer("executor.resync_ms", "ms", tracer.SumMs(p, "executor.resync"));
      bench.Layer("executor.cpu_over_wall", "ratio", segment_cpu_s / (busy_ms / 1e3));
      bench.Layer("checkpoint.write_ms_p50", "ms",
                  Median(tracer.DurationsMs(p, "checkpoint.write")));
      bench.Layer("checkpoint.write_mb_per_s", "MB/s",
                  write_ms > 0 ? static_cast<double>(checkpoint_bytes) / 1e6 / (write_ms / 1e3)
                               : 0);
      bench.Layer("checkpoint.restore_ms", "ms", tracer.SumMs(p, "checkpoint.restore"));
      bench.Layer("trace.merge_ms", "ms", tracer.SumMs(p, "trace.merge"));
      bench.Layer("trace.forest_ms", "ms", tracer.SumMs(p, "trace.forest"));
      bench.Layer("monitor.collect_ms", "ms", tracer.SumMs(p, "monitor.collect"));
      bench.Layer("monitor.replay_ms", "ms", tracer.SumMs(p, "monitor.replay"));
      const double attempts = ok + err + retries;
      bench.Layer("rpc.goodput_base", "count", attempts);
      bench.Layer("rpc.goodput_frac", "ratio", attempts > 0 ? ok / attempts : 0);
    }
    return stats;
  }

 private:
  void CheckRun(Bench& bench, const rpcscope::MiniFleetResult& result,
                const std::vector<rpcscope::Span>& merged, const rpcscope::TraceForest& forest,
                uint64_t replayed_digest) const {
    bench.checks.Expect(result.streamed_aggregate_digest == result.replayed_aggregate_digest,
                        "streamed aggregate digest != replayed digest");
    bench.checks.Expect(replayed_digest == result.streamed_aggregate_digest,
                        "ReplayIntoHub(MergedSpans) digest != streamed digest");
    bench.checks.Expect(!merged.empty() && result.root_calls > 0, "fleet produced no spans");
    // Every span's parent exists: a child span the forest had to treat as a
    // root (ancestors == 0) lost its parent.
    std::vector<int64_t> ancestors(merged.size(), -1);
    for (const rpcscope::SpanShape& shape : forest.span_shapes()) {
      if (shape.span_index < ancestors.size()) {
        ancestors[shape.span_index] = shape.ancestors;
      }
    }
    int64_t orphans = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      const bool has_parent = merged[i].parent_span_id != 0;
      if (ancestors[i] < 0 || (has_parent && ancestors[i] < 1)) {
        ++orphans;
      }
    }
    bench.checks.Passed(static_cast<int64_t>(merged.size()) - orphans);
    if (orphans > 0) {
      bench.checks.Expect(false, std::to_string(orphans) + " spans without a parent in the forest");
    }
  }

  static void RecordModel(Fingerprint& fp, const std::vector<rpcscope::Span>& spans) {
    std::vector<double> rct_us;
    rct_us.reserve(spans.size());
    double tax = 0;
    double total = 0;
    int64_t errors = 0;
    for (const rpcscope::Span& s : spans) {
      const double t = static_cast<double>(s.latency.Total());
      rct_us.push_back(t / 1e3);
      total += t;
      tax += static_cast<double>(s.latency.Tax());
      errors += s.status == rpcscope::StatusCode::kOk ? 0 : 1;
    }
    auto exact_quantile = [&rct_us](double q) {
      if (rct_us.empty()) {
        return 0.0;
      }
      const size_t k = static_cast<size_t>(q * static_cast<double>(rct_us.size() - 1));
      std::nth_element(rct_us.begin(), rct_us.begin() + static_cast<ptrdiff_t>(k), rct_us.end());
      return rct_us[k];
    };
    fp.Set("model.rct_p50_us", exact_quantile(0.50));
    fp.Set("model.rct_p99_us", exact_quantile(0.99));
    fp.Set("model.tax_frac", total > 0 ? tax / total : 0);
    fp.Set("model.error_frac",
           spans.empty() ? 0 : static_cast<double>(errors) / static_cast<double>(spans.size()));
  }

  FleetConfig config_;
  rpcscope::ServiceCatalog services_;
  rpcscope::FaultPlan plan_;
  rpcscope::MiniFleetOptions options_;
  std::string store_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetDes(const Args& args) {
  const bool smoke = args.scale == Scale::kSmoke;
  const FleetConfig config{.name = "fleet_des",
                           .duration = rpcscope::Seconds(smoke ? 3 : 30),
                           .epoch = rpcscope::Millis(250),
                           .shards = 1,
                           .workers = 1,
                           .checkpoint_every_epochs = 0,
                           .chaos = false};
  return std::make_unique<FleetWorkload>(args, config);
}

std::unique_ptr<Workload> MakeFleetSharded(const Args& args) {
  const bool smoke = args.scale == Scale::kSmoke;
  const FleetConfig config{.name = "fleet_sharded",
                           .duration = rpcscope::Seconds(smoke ? 2 : 10),
                           .epoch = rpcscope::Millis(100),
                           .shards = 8,
                           .workers = std::min(4, HostCpus()),
                           .checkpoint_every_epochs = 10,
                           .chaos = true};
  return std::make_unique<FleetWorkload>(args, config);
}

}  // namespace rpcbench
