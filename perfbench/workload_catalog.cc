// catalog_scan: the analytic fleet path behind every fig* binary and
// offload_whatif. A pass builds the method catalog and samplers (set-up),
// then scans popularity-weighted and stratified FleetSampler RPCs into
// FleetScans in fixed batches (the steps), runs the per-method figure
// analyses and the offload what-if, and checks every sampled span and every
// figure quantile. No DES and no wire bytes run here.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/core/analyses.h"
#include "src/rpc/stage_model.h"

namespace rpcbench {
namespace {

using rpcscope::FleetSampler;
using rpcscope::FleetScan;
using rpcscope::SampledRpc;

struct CatalogSize {
  int num_methods;
  int steps;                  // Steps per pass.
  int64_t weighted_per_step;  // Popularity-weighted RPCs per step.
  int per_method;             // Stratified samples per method (spread over the steps).
  int whatif_per_method;      // Stratified samples kept for the offload what-if.
};

constexpr CatalogSize kFullSize{10000, 100, 10000, 100, 10};
constexpr CatalogSize kSmokeSize{1000, 10, 5000, 100, 5};

// Model statistics over the popularity-weighted sample (simulated time).
struct ModelStats {
  rpcscope::LogHistogram rct_us;
  double tax_sum = 0;
  double total_sum = 0;
  int64_t errors = 0;
  int64_t calls = 0;

  void Add(const SampledRpc& rpc) {
    const double total = static_cast<double>(rpc.span.latency.Total());
    rct_us.Add(total / 1e3);
    total_sum += total;
    tax_sum += static_cast<double>(rpc.span.latency.Tax());
    errors += rpc.span.status == rpcscope::StatusCode::kOk ? 0 : 1;
    ++calls;
  }
};

class CatalogScan final : public Workload {
 public:
  explicit CatalogScan(const Args& args)
      : seed_(args.seed), size_(args.scale == Scale::kSmoke ? kSmokeSize : kFullSize) {}

  PassStats RunPass(Bench& bench) override {
    PassStats stats;
    Tracer& tracer = bench.tracer;
    std::optional<FleetModel> fleet;  // Everything the program needs before it can sample.
    std::optional<FleetSampler> weighted;
    std::optional<FleetSampler> stratified;
    {
      Tracer::Scope span = tracer.Span("fleet.catalog_build");
      const Stopwatch watch;
      fleet.emplace(rpcscope::MethodCatalogOptions{.num_methods = size_.num_methods,
                                                   .seed = rpcscope::Mix64(seed_)});
      weighted.emplace(fleet->MakeSampler(rpcscope::Mix64(seed_ ^ 0x5eed0001ull)));
      stratified.emplace(fleet->MakeSampler(rpcscope::Mix64(seed_ ^ 0x5eed0002ull)));
      stats.setup_s = watch.Seconds();
    }
    if (tracer.enabled()) {
      bench.Layer("fleet.catalog_build_ms", "ms", stats.setup_s * 1e3);
    }

    const int32_t num_methods = fleet->methods.size();
    const int64_t stratified_per_step =
        static_cast<int64_t>(num_methods) * size_.per_method / size_.steps;
    const double rss_before = tracer.enabled() ? CurrentRssMb() : 0;
    FleetScan scan_w(num_methods);
    FleetScan scan_s(num_methods);
    ModelStats model;
    std::vector<SampledRpc> whatif_rpcs;
    whatif_rpcs.reserve(static_cast<size_t>(num_methods) *
                        static_cast<size_t>(size_.whatif_per_method));
    std::vector<SampledRpc> buffer;
    int64_t stratified_next = 0;  // Position in the stratified order.

    // Samples, checks and folds one batch. Untraced, each RPC goes straight
    // from the sampler through the check into its FleetScan; traced, the
    // batch is sampled, checked and folded in three spanned loops.
    auto scan_batch = [&](int64_t n, bool popularity_weighted) {
      FleetScan& scan = popularity_weighted ? scan_w : scan_s;
      const int64_t first = stratified_next;
      auto draw = [&]() -> SampledRpc {
        if (popularity_weighted) {
          return weighted->Sample();
        }
        const int64_t position = stratified_next++;
        return stratified->SampleMethod(static_cast<int32_t>(position / size_.per_method));
      };
      auto check = [&](const SampledRpc& rpc) {
        CheckRpc(bench, rpc, num_methods);
        if (popularity_weighted) {
          model.Add(rpc);
        }
      };
      auto fold = [&](const SampledRpc& rpc, int64_t i) {
        scan.Add(rpc);
        if (!popularity_weighted && (first + i) % size_.per_method < size_.whatif_per_method) {
          whatif_rpcs.push_back(rpc);
        }
      };
      if (!tracer.enabled()) {
        for (int64_t i = 0; i < n; ++i) {
          const SampledRpc rpc = draw();
          check(rpc);
          fold(rpc, i);
        }
        return;
      }
      buffer.clear();
      {
        Tracer::Scope span = tracer.Span("fleet.sample");
        for (int64_t i = 0; i < n; ++i) {
          buffer.push_back(draw());
        }
        span.Count("rpcs", static_cast<double>(n));
      }
      {
        Tracer::Scope span = tracer.Span("bench.check");
        for (const SampledRpc& rpc : buffer) {
          check(rpc);
        }
      }
      Tracer::Scope span = tracer.Span("core.fold");
      for (int64_t i = 0; i < n; ++i) {
        fold(buffer[static_cast<size_t>(i)], i);
      }
      span.Count("rpcs", static_cast<double>(n));
    };

    TimedPhase timed(bench);
    // Every step scans one batch of popularity-weighted RPCs (Figs. 3, 8, 20,
    // 23) and one batch of the stratified scan (Figs. 2, 6, 7, 11-13, 21:
    // per_method samples of every method, in id order), so all steps do the
    // same mix of work.
    for (int s = 0; s < size_.steps; ++s) {
      bench.Step([&] {
        scan_batch(size_.weighted_per_step, true);
        scan_batch(stratified_per_step, false);
      });
    }
    const double rss_after_scan = tracer.enabled() ? CurrentRssMb() : 0;

    std::vector<rpcscope::FigureReport> reports;
    {
      Tracer::Scope span = tracer.Span("core.analyze");
      reports.push_back(rpcscope::AnalyzeLatency(scan_s.agg));
      reports.push_back(rpcscope::AnalyzeSizes(scan_s.agg));
      reports.push_back(rpcscope::AnalyzeSizeRatio(scan_s.agg));
      reports.push_back(rpcscope::AnalyzeTaxRatio(scan_s.agg));
      reports.push_back(rpcscope::AnalyzeWireStack(scan_s.agg));
      reports.push_back(rpcscope::AnalyzeQueueing(scan_s.agg));
      reports.push_back(rpcscope::AnalyzeMethodCycles(scan_s.agg));
      reports.push_back(rpcscope::AnalyzePopularity(scan_w.agg, fleet->methods));
      reports.push_back(rpcscope::AnalyzeServiceMix(scan_w.agg, scan_w.profile, fleet->services));
      reports.push_back(rpcscope::AnalyzeCycleTax(scan_w.profile));
      reports.push_back(rpcscope::AnalyzeErrors(scan_w.error_counts, scan_w.error_cycles,
                                                scan_w.total_calls));
    }
    const rpcscope::ProfileCatalog profiles = rpcscope::BuiltinProfileCatalog();
    std::optional<rpcscope::OffloadWhatIf> whatif;
    {
      Tracer::Scope span = tracer.Span("core.offload");
      whatif.emplace(rpcscope::AnalyzeOffloadWhatIf(whatif_rpcs, fleet->costs, profiles));
    }
    {
      Tracer::Scope span = tracer.Span("bench.check");
      CheckFigures(bench, scan_s, reports, *whatif, profiles);
    }
    timed.Finish(stats);
    stats.spans = size_.steps * (size_.weighted_per_step + stratified_per_step);

    Fingerprint& fp = bench.fingerprint;
    fp.Set("scan.weighted_calls", static_cast<double>(scan_w.total_calls));
    fp.Set("scan.stratified_calls", static_cast<double>(scan_s.total_calls));
    fp.Set("scan.whatif_rpcs", static_cast<double>(whatif_rpcs.size()));
    fp.SetHex("scan.digest", ScanDigest(scan_w) ^ rpcscope::Mix64(ScanDigest(scan_s)));
    fp.Set("model.rct_p50_us", model.rct_us.Quantile(0.50));
    fp.Set("model.rct_p99_us", model.rct_us.Quantile(0.99));
    fp.Set("model.tax_frac", model.tax_sum / model.total_sum);
    fp.Set("model.error_frac",
           static_cast<double>(model.errors) / static_cast<double>(model.calls));
    fp.Set("model.offload_baseline_p99_ms", whatif->profiles.at(0).p99_ms);

    if (tracer.enabled()) {
      const double rpcs = static_cast<double>(stats.spans);
      bench.Layer("fleet.sampler_ns_per_rpc", "ns",
                  tracer.SumMs(bench.pass, "fleet.sample") * 1e6 / rpcs);
      bench.Layer("core.fold_ns_per_rpc", "ns", tracer.SumMs(bench.pass, "core.fold") * 1e6 / rpcs);
      bench.Layer("core.analyze_ms", "ms",
                  tracer.SumMs(bench.pass, "core.analyze") +
                      tracer.SumMs(bench.pass, "core.offload"));
      bench.Layer("core.scan_rss_mb", "MB", std::max(0.0, rss_after_scan - rss_before));
    }
    return stats;
  }

 private:
  // A sampled span is well-formed: known method, no negative component, and
  // a positive completion time.
  static void CheckRpc(Bench& bench, const SampledRpc& rpc, int32_t num_methods) {
    const rpcscope::Span& span = rpc.span;
    bool ok = span.method_id >= 0 && span.method_id < num_methods;
    for (const int64_t c : span.latency.components) {
      ok = ok && c >= 0;
    }
    ok = ok && span.latency.Total() > 0;
    if (ok) {
      bench.checks.Passed(1);
    } else {
      bench.checks.Expect(false, "malformed sampled span (method " +
                                     std::to_string(span.method_id) + ")");
    }
  }

  // Figure quantiles are monotone: per method p1 <= p50 <= p90 <= p99 for
  // each histogram a figure reads, every report has a table, and every
  // offload profile has p50 <= p99.
  static void CheckFigures(Bench& bench, const FleetScan& scan,
                           const std::vector<rpcscope::FigureReport>& reports,
                           const rpcscope::OffloadWhatIf& whatif,
                           const rpcscope::ProfileCatalog& profiles) {
    int64_t bad_methods = 0;
    const std::vector<const rpcscope::MethodAccum*> eligible = scan.agg.Eligible(100);
    for (const rpcscope::MethodAccum* m : eligible) {
      for (const rpcscope::LogHistogram* h : {&m->rct, &m->queue, &m->wire_stack, &m->req_size}) {
        const double p1 = h->Quantile(0.01);
        const double p50 = h->Quantile(0.50);
        const double p90 = h->Quantile(0.90);
        const double p99 = h->Quantile(0.99);
        if (!(p1 <= p50 && p50 <= p90 && p90 <= p99)) {
          ++bad_methods;
        }
      }
    }
    bench.checks.Expect(!eligible.empty(), "no method reached 100 stratified samples");
    bench.checks.Expect(bad_methods == 0, std::to_string(bad_methods) +
                                              " per-method quantile series not monotone");
    for (const rpcscope::FigureReport& report : reports) {
      bench.checks.Expect(!report.tables.empty(), "figure " + report.id + " has no table");
    }
    bench.checks.Expect(whatif.profiles.size() == profiles.size(),
                        "offload what-if skipped a profile");
    for (const rpcscope::OffloadProfileOutcome& p : whatif.profiles) {
      bench.checks.Expect(p.p50_ms > 0 && p.p50_ms <= p.p99_ms,
                          "offload profile " + p.name + " quantiles not monotone");
    }
  }

  // Order-sensitive fold of the per-method accumulators.
  static uint64_t ScanDigest(const FleetScan& scan) {
    uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](uint64_t v) { h = rpcscope::Mix64(h ^ v); };
    for (const rpcscope::MethodAccum& m : scan.agg.methods()) {
      fold(static_cast<uint64_t>(m.calls));
      fold(static_cast<uint64_t>(m.errors));
      fold(static_cast<uint64_t>(std::llround(m.total_time_us)));
    }
    fold(static_cast<uint64_t>(std::llround(scan.profile.total_cycles())));
    return h;
  }

  uint64_t seed_;
  CatalogSize size_;
};

}  // namespace

std::unique_ptr<Workload> MakeCatalogScan(const Args& args) {
  return std::make_unique<CatalogScan>(args);
}

}  // namespace rpcbench
