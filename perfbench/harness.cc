#include "perfbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory_resource>
#include <unordered_map>

namespace rpcbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

int HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

// Memory of the reference kernel: allocated once, on the first call, and
// reused by every call through a pool resource of its own, so the kernel
// never allocates from the program's heap and how the program left that heap
// cannot change the kernel's time.
constexpr size_t kRefArenaBytes = size_t{2} << 20;

// Evicts the arena from every cache level, so each kernel starts from the
// same cold state whatever the program's last step left in the caches.
void FlushFromCaches(const std::vector<std::byte>& arena) {
#if defined(__x86_64__) || defined(__i386__)
  for (size_t offset = 0; offset < arena.size(); offset += 64) {
    _mm_clflush(arena.data() + offset);
  }
  _mm_mfence();
#else
  (void)arena;
#endif
}

}  // namespace

double RefKernelMs() {
  static std::vector<std::byte>* const arena = new std::vector<std::byte>(kRefArenaBytes);
  static uint64_t sink = 0;
  FlushFromCaches(*arena);
  const int64_t t0 = NowNs();
  double median = 0;
  {
    // Running out of the arena throws instead of falling back to the heap.
    std::pmr::monotonic_buffer_resource buffer(arena->data(), arena->size(),
                                               std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&buffer);
    uint64_t x = 0x9e3779b97f4a7c15ull ^ sink;
    std::pmr::unordered_map<uint64_t, uint64_t> counts(&pool);
    counts.reserve(8192);
    for (uint64_t i = 0; i < 8192; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      counts[x & 0x3ffff] += i;
    }
    std::pmr::vector<double> values(&pool);
    values.reserve(counts.size());
    for (const auto& [key, count] : counts) {
      values.push_back(static_cast<double>(count ^ x) + std::log(static_cast<double>(key + 1)));
    }
    std::sort(values.begin(), values.end());
    median = values[values.size() / 2];
  }
  const int64_t t1 = NowNs();
  sink ^= static_cast<uint64_t>(median) & 1;  // Keeps the work observable.
  return static_cast<double>(t1 - t0) / 1e6;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

// --- Tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  TraceSpan span;
  span.name = name;
  span.parent = tracer_->open_;
  span.pass = tracer_->pass_;
  span.step = tracer_->step_;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_ = index_;
  tracer_->spans_.back().start_ns = NowNs();
}

Tracer::Scope::~Scope() { End(); }

void Tracer::Scope::End() {
  if (tracer_ == nullptr) {
    return;
  }
  TraceSpan& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  tracer_->open_ = span.parent;
  tracer_ = nullptr;
}

void Tracer::Scope::Count(const char* key, double value) {
  if (tracer_ != nullptr) {
    tracer_->spans_[static_cast<size_t>(index_)].counts.emplace_back(key, value);
  }
}

double Tracer::SumMs(int32_t pass, const std::string& name) const {
  double total = 0;
  for (const TraceSpan& s : spans_) {
    if (s.pass == pass && name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return total;
}

std::vector<double> Tracer::DurationsMs(int32_t pass, const std::string& name) const {
  std::vector<double> out;
  for (const TraceSpan& s : spans_) {
    if (s.pass == pass && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer(int32_t pass,
                                                    const std::string& root_name) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const TraceSpan& s : spans_) {
    if (s.pass == pass && s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    if (s.pass != pass) {
      continue;
    }
    int32_t root = static_cast<int32_t>(i);
    while (spans_[static_cast<size_t>(root)].parent >= 0) {
      root = spans_[static_cast<size_t>(root)].parent;
    }
    if (root_name != spans_[static_cast<size_t>(root)].name) {
      continue;
    }
    const double self_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6 - child_ms[i];
    // The timed-phase root and the step envelopes are the benchmark's own
    // loop: their self time is what no layer span covers.
    const std::string name = s.name;
    if (name == "host.ref_kernel") {
      continue;  // Excluded from the timed phase.
    }
    const bool envelope = name == root_name || name == "bench.step";
    out[envelope ? "unattributed" : name.substr(0, name.find('.'))] += self_ms;
  }
  return out;
}

bool Tracer::Dump(const std::string& path, const std::string& header_line) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%s\n", header_line.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"parent\":%d,\"pass\":%d,\"step\":%" PRId64,
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.pass, s.step);
    if (!s.counts.empty()) {
      std::fprintf(f, ",\"counts\":{");
      for (size_t c = 0; c < s.counts.size(); ++c) {
        std::fprintf(f, "%s\"%s\":%.17g", c == 0 ? "" : ",", s.counts[c].first,
                     s.counts[c].second);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

// --- Fingerprint ------------------------------------------------------------

void Fingerprint::Set(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  entries_[name] = buf;
  values_[name] = value;
}

void Fingerprint::SetHex(const std::string& name, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", value);
  entries_[name] = buf;
}

double Fingerprint::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Fingerprint::ToJson() const {
  std::string out = "{";
  for (const auto& [name, value] : entries_) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += "\"" + name + "\": " + value;
  }
  return out + "}";
}

// --- Checks / Bench -----------------------------------------------------------

bool Checks::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 20) {
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
    ++failed_;
  }
  return ok;
}

void Bench::Layer(const std::string& name, const std::string& unit, double value) {
  auto& entry = layers[name];
  entry.first = unit;
  entry.second.push_back(value);
}

double Bench::SampleRefKernel() {
  Tracer::Scope span = tracer.Span("host.ref_kernel");
  const int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  const double ms = RefKernelMs();
  excluded_cpu_s += ProcessCpuSeconds() - cpu0;
  excluded_ns += NowNs() - t0;
  ref_ms.push_back(ms);
  return ms;
}

TimedPhase::TimedPhase(Bench& bench)
    : bench_(bench),
      span_(bench.tracer.Span("bench.timed")),
      t0_(NowNs()),
      cpu0_(ProcessCpuSeconds()),
      excluded0_(bench.excluded_ns),
      excluded_cpu0_(bench.excluded_cpu_s) {}

void TimedPhase::Finish(PassStats& stats) {
  const int64_t excluded = bench_.excluded_ns - excluded0_;
  stats.timed_s = static_cast<double>(NowNs() - t0_ - excluded) / 1e9;
  stats.cpu_s = ProcessCpuSeconds() - cpu0_ - (bench_.excluded_cpu_s - excluded_cpu0_);
  span_.End();
}

}  // namespace rpcbench
