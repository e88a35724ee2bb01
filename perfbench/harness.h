// Shared machinery of the rpcbench benchmark: host clocks and resource
// probes, the host-speed reference kernel, the outside-in span tracer, output
// checks, and the step and timed-phase bookkeeping every workload pass uses.
//
// Everything here measures *host* time (std::chrono::steady_clock, getrusage,
// /proc/self/statm). Simulated time only ever reaches the output as the
// deterministic model.* fingerprints a workload records itself.
#ifndef RPCSCOPE_PERFBENCH_HARNESS_H_
#define RPCSCOPE_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rpcbench {

// Size of a run. kFull is what the benchmark records; kSmoke shrinks every
// workload so the benchmark's own tests finish in seconds.
enum class Scale { kFull, kSmoke };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string trace_out;  // Span dump written at exit (traced runs only).
  std::string work_dir;   // Scratch directory for checkpoint stores.
};

// --- Host probes ------------------------------------------------------------

int64_t NowNs();                 // steady_clock, ns.
double ProcessCpuSeconds();      // user + system time of every thread.
double PeakRssMb();              // ru_maxrss of the process.
double CurrentRssMb();           // resident set size right now.
void ReleaseFreeMemory();        // Hands freed heap pages back to the OS.
int HostCpus();
// A fixed reference kernel, timed in ms: 8,192 inserts into a fresh hash map,
// a log per entry and a sort (node allocation, cache misses, branches and
// libm, the mix the workloads spend their time in). Its work never changes.
// It allocates only from an arena of its own, allocated once and flushed from
// the caches before each call, so neither the program's heap nor its cache
// footprint can change the kernel's time, which tracks the host's speed alone.
// On the 4-CPU host this benchmark was defined on, it followed the swings of
// sampler and codec work (1.6-1.9x between slow and fast phases) as closely as
// a heap-allocating version did, and better than a DRAM-latency kernel.
double RefKernelMs();

double Percentile(std::vector<double> values, double p);  // Linear interpolation.
double Median(const std::vector<double>& values);

// --- Tracer -----------------------------------------------------------------

// One recorded span: a named interval around a call into the program, the
// span that encloses it, and the step it belongs to (-1 outside steps).
struct TraceSpan {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t pass = 0;
  int64_t step = -1;
  std::vector<std::pair<const char*, double>> counts;
};

// Records spans in memory while enabled; a disabled tracer reads no clock.
// Spans nest strictly (the benchmark is single-threaded on the host side),
// so a span's self time is its duration minus its direct children's.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Attaches a count measured at this span's boundary.
    void Count(const char* key, double value);
    // Closes the span before the scope ends (idempotent).
    void End();

   private:
    Tracer* tracer_;  // Null when tracing is off.
    int32_t index_ = -1;
  };

  Scope Span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void BeginPass(int32_t pass) { pass_ = pass; }
  void BeginStep(int64_t step) { step_ = step; }
  void EndStep() { step_ = -1; }

  const std::vector<TraceSpan>& spans() const { return spans_; }

  // Aggregates over the spans of one pass.
  double SumMs(int32_t pass, const std::string& name) const;
  std::vector<double> DurationsMs(int32_t pass, const std::string& name) const;
  // Self time per layer (the name's prefix before '.') over one pass's spans
  // inside `root_name` roots, in ms; the roots' own self time is reported
  // under the key "unattributed".
  std::map<std::string, double> SelfMsByLayer(int32_t pass, const std::string& root_name) const;

  // Writes every span as one JSON object per line after `header_line`.
  bool Dump(const std::string& path, const std::string& header_line) const;

 private:
  bool enabled_ = false;
  int32_t pass_ = 0;
  int64_t step_ = -1;
  int32_t open_ = -1;  // Innermost open span.
  std::vector<TraceSpan> spans_;
};

// --- Results ----------------------------------------------------------------

// Per-pass record every workload returns.
struct PassStats {
  double setup_s = 0;   // Construction before the timed phase.
  double timed_s = 0;   // Host wall time of the timed phase.
  double cpu_s = 0;     // Process CPU time over the timed phase.
  int64_t spans = 0;    // RPCs characterized in the timed phase.
};

// Exact, host-independent values of one pass: counts, digests and model.*
// fingerprints. Every pass of a run must produce identical fingerprints.
class Fingerprint {
 public:
  void Set(const std::string& name, double value);
  void SetHex(const std::string& name, uint64_t value);
  bool operator==(const Fingerprint& other) const { return entries_ == other.entries_; }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;
  std::string ToJson() const;

 private:
  std::map<std::string, std::string> entries_;
  std::map<std::string, double> values_;
};

// Output checks. A failed check is counted, reported on stderr (first few),
// and makes the run exit non-zero.
class Checks {
 public:
  bool Expect(bool ok, const std::string& what);
  // Counts `n` passing checks at once (hot loops that check every element
  // and report only failures individually).
  void Passed(int64_t n) { attempted_ += n; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Everything a workload pass touches.
struct Bench {
  Tracer tracer;
  Checks checks;
  int32_t pass = 0;
  int64_t next_step = 0;
  std::vector<double> steps_ms;     // Step times of untraced passes...
  std::vector<double> step_ref_ms;  // ...and the reference kernel after each.
  std::vector<double> ref_ms;       // Every reference-kernel sample.
  // Host time spent in reference kernels, kept out of the timed phases.
  int64_t excluded_ns = 0;
  double excluded_cpu_s = 0;
  // Per-layer values of traced passes: name -> (unit, one value per pass).
  std::map<std::string, std::pair<std::string, std::vector<double>>> layers;
  Fingerprint fingerprint;       // Filled by the current pass.

  // Runs `body` as one step: a step span sharing the step id with every span
  // inside it, and a step time recorded from untraced passes. A reference-
  // kernel sample follows every step, outside the step and the timed phase.
  template <typename F>
  void Step(F&& body) {
    const int64_t id = next_step++;
    tracer.BeginStep(id);
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span = tracer.Span("bench.step");
      body();
    }
    const int64_t t1 = NowNs();
    tracer.EndStep();
    const double ref = SampleRefKernel();
    if (!tracer.enabled()) {
      steps_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      step_ref_ms.push_back(ref);
    }
  }

  // Times one reference kernel and excludes its time from the timed phase.
  double SampleRefKernel();

  // Records a per-layer value for the current (traced) pass.
  void Layer(const std::string& name, const std::string& unit, double value);
};

// Times the timed phase of a pass: wall and process CPU between construction
// and Finish(), less the reference-kernel samples taken inside it.
class TimedPhase {
 public:
  explicit TimedPhase(Bench& bench);
  // Closes the phase into `stats`.
  void Finish(PassStats& stats);

 private:
  Bench& bench_;
  Tracer::Scope span_;
  int64_t t0_;
  double cpu0_;
  int64_t excluded0_;
  double excluded_cpu0_;
};

// Stopwatch for setup phases.
class Stopwatch {
 public:
  Stopwatch() : t0_(NowNs()) {}
  double Seconds() const { return static_cast<double>(NowNs() - t0_) / 1e9; }

 private:
  int64_t t0_;
};

}  // namespace rpcbench

#endif  // RPCSCOPE_PERFBENCH_HARNESS_H_
