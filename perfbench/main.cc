// rpcbench: the repository's end-to-end + per-layer benchmark.
//
//   rpcbench --workload <catalog_scan|fleet_des|fleet_sharded|rpc_real_bytes>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--scale full|smoke] [--trace-out <file>] [--work-dir <dir>]
//
// A run repeats fixed-size passes of the workload until --seconds of host time
// are used (at least three passes and 100 steps). With --trace 0 every pass
// is untraced and the run reports the end-to-end metrics, each the median of
// its per-pass values. With --trace 1
// passes alternate untraced/traced: the traced ones record spans around every
// call into the program and report the per-layer metrics, and the difference
// between the two kinds is host.trace_overhead_frac. Every pass is checked;
// every pass of a run must produce the same exact fingerprint. The last line
// of stdout is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

#ifndef RPCBENCH_BUILD_TYPE
#define RPCBENCH_BUILD_TYPE "unknown"
#endif

namespace rpcbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A workload that does not exercise
// a layer reports 0 for it.
constexpr MetricDef kLayerMetrics[] = {
    {"fleet.catalog_build_ms", "ms"},
    {"fleet.minifleet_build_ms", "ms"},
    {"fleet.sampler_ns_per_rpc", "ns"},
    {"fleet.self_ms", "ms"},
    {"core.fold_ns_per_rpc", "ns"},
    {"core.analyze_ms", "ms"},
    {"core.scan_rss_mb", "MB"},
    {"core.self_ms", "ms"},
    {"sim.events", "count"},
    {"sim.segment_busy_ms", "ms"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_s", "1/s"},
    {"sim.self_ms", "ms"},
    {"executor.rounds", "count"},
    {"executor.events_per_round", "count"},
    {"executor.cross_domain_events", "count"},
    {"executor.resync_ms", "ms"},
    {"executor.cpu_over_wall", "ratio"},
    {"executor.self_ms", "ms"},
    {"checkpoint.writes", "count"},
    {"checkpoint.write_ms_p50", "ms"},
    {"checkpoint.bytes", "B"},
    {"checkpoint.write_mb_per_s", "MB/s"},
    {"checkpoint.restore_ms", "ms"},
    {"checkpoint.self_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.merge_ms", "ms"},
    {"trace.forest_ms", "ms"},
    {"trace.self_ms", "ms"},
    {"monitor.collect_ms", "ms"},
    {"monitor.replay_ms", "ms"},
    {"monitor.spans_streamed", "count"},
    {"monitor.windows_closed", "count"},
    {"monitor.buffer_drops", "count"},
    {"monitor.late_updates", "count"},
    {"monitor.self_ms", "ms"},
    {"rpc.completions_ok", "count"},
    {"rpc.completions_err", "count"},
    {"rpc.retries", "count"},
    {"rpc.attempt_timeouts", "count"},
    {"rpc.shed", "count"},
    {"rpc.goodput_frac", "ratio"},
    {"rpc.goodput_base", "count"},
    {"rpc.host_us_per_call", "us"},
    {"rpc.self_ms", "ms"},
    {"wire.serialize_mb_per_s", "MB/s"},
    {"wire.compress_mb_per_s", "MB/s"},
    {"wire.cipher_mb_per_s", "MB/s"},
    {"wire.crc_mb_per_s", "MB/s"},
    {"wire.encode_frame_us", "us"},
    {"wire.decode_frame_us", "us"},
    {"wire.compression_ratio", "ratio"},
    {"fault.crashes", "count"},
    {"fault.loss_drops", "count"},
    {"policy.stages_applied", "count"},
    {"model.rct_p50_us", "sim_us"},
    {"model.rct_p99_us", "sim_us"},
    {"model.tax_frac", "ratio"},
    {"model.error_frac", "ratio"},
    {"bench.self_ms", "ms"},
    {"host.timed_ms", "ms"},
    {"host.unattributed_ms", "ms"},
    {"host.unattributed_frac", "ratio"},
    {"host.steps_per_pass", "count"},
    {"host.ref_kernel_ms", "ms"},
    {"host.trace_overhead_frac", "ratio"},
};

// Reference-kernel time the end-to-end times are scaled to (its typical time
// on the 4-CPU host the benchmark was defined on).
constexpr double kRefNominalMs = 1.14;
// Steps on each side whose kernel samples are pooled to scale one step.
constexpr size_t kRefWindow = 4;

// Layers whose self time is reported as <layer>.self_ms.
constexpr const char* kSelfTimeLayers[] = {"fleet",      "core",  "sim",     "executor",
                                           "checkpoint", "trace", "monitor", "rpc",
                                           "bench"};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <catalog_scan|fleet_des|fleet_sharded|rpc_real_bytes> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale full|smoke] "
               "[--trace-out <file>] [--work-dir <dir>]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        return false;
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        return false;
      }
      args.scale = value == "smoke" ? Scale::kSmoke : Scale::kFull;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string Stamp(const Args& args, int workers) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"scale\": \"%s\", \"nproc\": %d, \"build_type\": \"%s\", \"ndebug\": true, "
                "\"workers\": %d}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.scale == Scale::kSmoke ? "smoke" : "full", HostCpus(),
                RPCBENCH_BUILD_TYPE, workers);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Per-layer values of one traced pass that come from the fingerprint (exact
// counts and model values) and from the span tree (self times).
void RecordTracedPass(Bench& bench, const PassStats& stats, int64_t steps_in_pass) {
  for (const MetricDef& def : kLayerMetrics) {
    if (bench.fingerprint.Has(def.name)) {
      bench.Layer(def.name, def.unit, bench.fingerprint.Get(def.name));
    }
  }
  const std::map<std::string, double> self = bench.tracer.SelfMsByLayer(bench.pass, "bench.timed");
  for (const char* layer : kSelfTimeLayers) {
    const auto it = self.find(layer);
    bench.Layer(std::string(layer) + ".self_ms", "ms", it == self.end() ? 0.0 : it->second);
  }
  const auto unattributed = self.find("unattributed");
  const double unattributed_ms = unattributed == self.end() ? 0.0 : unattributed->second;
  bench.Layer("host.timed_ms", "ms", stats.timed_s * 1e3);
  bench.Layer("host.unattributed_ms", "ms", unattributed_ms);
  bench.Layer("host.unattributed_frac", "ratio", unattributed_ms / (stats.timed_s * 1e3));
  bench.Layer("host.steps_per_pass", "count", static_cast<double>(steps_in_pass));
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string stamp = Stamp(args, workload->workers());
  std::printf("stamp %s\n", stamp.c_str());

  Bench bench;
  // Host speed drifts on a shared machine: the same step can take 1.75x as
  // long a few seconds later, and process CPU time moves with it. A fixed
  // reference kernel is therefore timed after every step, and end-to-end
  // times are reported at the reference speed: each step's time is scaled
  // by kRefNominalMs / (median kernel time over the nine steps around it), and
  // a pass's other times by the pass's time-weighted scale. Raw values are
  // printed beside them.
  RefKernelMs();  // Warm-up: the first call allocates the kernel's arena.
  struct PassRecord {
    PassStats stats;
    bool traced = false;
    double scale = 1;  // Reference-speed scale of the pass's times.
    double step_p50_ms = 0;
    double step_p90_ms = 0;
    double raw_p50_ms = 0;
    double raw_p90_ms = 0;
  };
  std::vector<PassRecord> records;
  Fingerprint first;
  const int64_t start = NowNs();
  for (int32_t pass = 0;; ++pass) {
    // Traced runs alternate untraced/traced passes, starting untraced so the
    // first (cold) pass never carries the tracer.
    const bool tracing = args.trace && pass % 2 == 1;
    bench.pass = pass;
    bench.fingerprint = Fingerprint();
    bench.tracer.set_enabled(tracing);
    bench.tracer.BeginPass(pass);
    const int64_t steps_before = bench.next_step;
    const size_t step_times_before = bench.steps_ms.size();
    PassRecord record;
    record.traced = tracing;
    record.stats = workload->RunPass(bench);
    const PassStats& stats = record.stats;
    const int64_t steps_in_pass = bench.next_step - steps_before;
    bench.tracer.set_enabled(false);
    ReleaseFreeMemory();
    if (pass == 0) {
      first = bench.fingerprint;
      std::printf("fingerprint %s\n", first.ToJson().c_str());
    } else {
      bench.checks.Expect(bench.fingerprint == first,
                          "pass " + std::to_string(pass) + " fingerprint differs from pass 0: " +
                              bench.fingerprint.ToJson());
    }
    if (tracing) {
      RecordTracedPass(bench, stats, steps_in_pass);
    } else {
      const std::vector<double> raw(
          bench.steps_ms.begin() + static_cast<std::ptrdiff_t>(step_times_before),
          bench.steps_ms.end());
      const std::vector<double> ref(
          bench.step_ref_ms.begin() + static_cast<std::ptrdiff_t>(step_times_before),
          bench.step_ref_ms.end());
      std::vector<double> scaled;
      double raw_sum = 0;
      double scaled_sum = 0;
      for (size_t i = 0; i < raw.size(); ++i) {
        const size_t lo = i < kRefWindow ? 0 : i - kRefWindow;
        const size_t hi = std::min(ref.size(), i + kRefWindow + 1);
        const double around =
            Median(std::vector<double>(ref.begin() + static_cast<std::ptrdiff_t>(lo),
                                       ref.begin() + static_cast<std::ptrdiff_t>(hi)));
        scaled.push_back(raw[i] * kRefNominalMs / around);
        raw_sum += raw[i];
        scaled_sum += scaled.back();
      }
      record.scale = scaled_sum / raw_sum;
      record.step_p50_ms = Percentile(scaled, 0.50);
      record.step_p90_ms = Percentile(scaled, 0.90);
      record.raw_p50_ms = Percentile(raw, 0.50);
      record.raw_p90_ms = Percentile(raw, 0.90);
    }
    records.push_back(record);
    std::fprintf(stderr, "pass %d (%s): setup %.4f s, timed %.4f s, %lld steps, scale %.3f\n",
                 pass, tracing ? "traced" : "untraced", stats.setup_s, stats.timed_s,
                 static_cast<long long>(steps_in_pass), record.scale);

    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    const int passes = pass + 1;
    const bool enough_passes = args.trace ? passes >= 2 && passes % 2 == 0 : passes >= 3;
    const bool enough_steps =
        args.trace || static_cast<int64_t>(bench.steps_ms.size()) >= 100;
    const double next_pass = elapsed / passes;
    if (enough_passes && enough_steps &&
        (elapsed + next_pass > args.seconds || bench.checks.failed() > 0)) {
      break;
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // End-to-end metrics: medians over passes, so a burst of host noise that
    // hits one pass does not move them.
    std::vector<double> setup, rate, p50, p90, cpu_us;
    std::vector<double> raw_setup, raw_rate, raw_p50, raw_p90, raw_cpu_us;
    int64_t spans = 0;
    for (const PassRecord& r : records) {
      const double pass_rate = static_cast<double>(r.stats.spans) / r.stats.timed_s;
      const double pass_cpu_us = r.stats.cpu_s * 1e6 / static_cast<double>(r.stats.spans);
      raw_setup.push_back(r.stats.setup_s);
      raw_rate.push_back(pass_rate);
      raw_p50.push_back(r.raw_p50_ms);
      raw_p90.push_back(r.raw_p90_ms);
      raw_cpu_us.push_back(pass_cpu_us);
      setup.push_back(r.stats.setup_s * r.scale);
      rate.push_back(pass_rate / r.scale);
      p50.push_back(r.step_p50_ms);
      p90.push_back(r.step_p90_ms);
      cpu_us.push_back(pass_cpu_us * r.scale);
      spans += r.stats.spans;
    }
    const double steps_per_pass = static_cast<double>(bench.steps_ms.size()) /
                                  static_cast<double>(records.size());
    metrics.push_back({"setup_s", "s", Median(setup)});
    metrics.push_back({"spans_per_s", "RPCs/s", Median(rate)});
    metrics.push_back({"step_ms_p50", "ms", Median(p50)});
    metrics.push_back({"step_ms_p90", "ms", Median(p90)});
    metrics.push_back({"cpu_us_per_span", "us", Median(cpu_us)});
    metrics.push_back({"peak_rss_mb", "MB", PeakRssMb()});
    std::printf("passes %zu, %.0f steps per pass (p90 has %.0f above it), %lld spans\n",
                records.size(), steps_per_pass, std::floor(steps_per_pass * 0.1),
                static_cast<long long>(spans));
    std::printf("host ref_kernel_ms %.4f (reference %.2f)\n", Median(bench.ref_ms), kRefNominalMs);
    std::printf("raw setup_s %.6g spans_per_s %.6g step_ms_p50 %.6g step_ms_p90 %.6g "
                "cpu_us_per_span %.6g\n",
                Median(raw_setup), Median(raw_rate), Median(raw_p50), Median(raw_p90),
                Median(raw_cpu_us));
  } else {
    std::vector<double> t_timed;
    std::vector<double> u_timed;
    for (const PassRecord& r : records) {
      (r.traced ? t_timed : u_timed).push_back(r.stats.timed_s);
    }
    bench.Layer("host.ref_kernel_ms", "ms", Median(bench.ref_ms));
    bench.Layer("host.trace_overhead_frac", "ratio", Median(t_timed) / Median(u_timed) - 1.0);
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = bench.layers.find(def.name);
      const double value = it == bench.layers.end() ? 0.0 : Median(it->second.second);
      if (it != bench.layers.end() && it->second.first != def.unit) {
        bench.checks.Expect(false, std::string("unit mismatch for ") + def.name);
      }
      metrics.push_back({def.name, def.unit, value});
    }
    for (const auto& [name, entry] : bench.layers) {
      bool known = false;
      for (const MetricDef& def : kLayerMetrics) {
        known = known || name == def.name;
      }
      bench.checks.Expect(known, "layer metric " + name + " is not declared");
    }
    if (!args.trace_out.empty() &&
        !bench.tracer.Dump(args.trace_out, "{\"stamp\": " + stamp + "}")) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }
  for (const Metric& m : metrics) {
    bench.checks.Expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::printf("ops %lld\nops_failed %lld\n", static_cast<long long>(bench.checks.attempted()),
              static_cast<long long>(bench.checks.failed()));
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = bench.checks.failed() == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(bench.checks.attempted());
  json += ", \"failed\": " + std::to_string(bench.checks.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "catalog_scan") {
    return MakeCatalogScan(args);
  }
  if (args.workload == "fleet_des") {
    return MakeFleetDes(args);
  }
  if (args.workload == "fleet_sharded") {
    return MakeFleetSharded(args);
  }
  if (args.workload == "rpc_real_bytes") {
    return MakeRpcRealBytes(args);
  }
  return nullptr;
}

}  // namespace rpcbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "rpcbench: refusing to record from a build without NDEBUG (configure with "
               "-DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#else
  rpcbench::Args args;
  if (!rpcbench::ParseArgs(argc, argv, args)) {
    return rpcbench::Usage(argv[0]);
  }
  if (args.work_dir.empty()) {
    args.work_dir = ".";
  }
  return rpcbench::Run(args);
#endif
}
