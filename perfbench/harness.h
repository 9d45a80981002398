// Workload-independent pieces of the benchmark driver: seeded generation,
// percentiles, the in-memory span recorder, process memory, and the JSON
// result line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock (the only clock the benchmark reads).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: a bijective 64-bit mix. Operation i of a run is a
/// pure function of Mix(seed, i), so any client or the correctness gate can
/// regenerate it without replaying the sequence.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline uint64_t Mix(uint64_t seed, uint64_t i, uint64_t salt = 0) {
  return Mix(Mix(seed ^ (salt * 0xd1b54a32d192ed03ULL)) + i);
}

/// Unique draws from [0, n): the affine map i -> (a*i + c) mod n is a
/// bijection when gcd(a, n) = 1, so the first n draws never repeat.
class UniqueDraw {
 public:
  UniqueDraw(uint64_t seed, uint64_t salt, uint64_t n);
  uint64_t operator()(uint64_t i) const { return (a_ * (i % n_) + c_) % n_; }

 private:
  uint64_t n_, a_, c_;
};

/// q-quantile (q in [0,1]) by linear interpolation between the order
/// statistics at rank q*(n-1) — the "linear" method of numpy and of
/// Python's statistics.quantiles(method="inclusive"). 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Bit equality of two doubles (the engine's answer contract).
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// VmHWM of this process, in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// One traced interval. `parent` is the index of the enclosing span, or -1.
/// `reported` marks an interval the engine timed itself (a `*_seconds`
/// field): it is placed at the end of its parent, since only its length is
/// known.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  uint64_t op = 0;
  bool reported = false;
};

/// In-memory span recorder. Disabled, every call returns at once; enabled,
/// spans are appended under one mutex and written out after the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now and returns its index (-1 when disabled).
  int64_t Begin(const std::string& name, uint64_t op, int64_t parent = -1);
  /// Closes span `index` now (no-op for -1).
  void End(int64_t index);
  /// Records an engine-reported duration as a child of the already closed
  /// `parent`, ending `tail` seconds before the parent ends. Returns its
  /// index (-1 when disabled).
  int64_t Reported(const std::string& name, double seconds, int64_t parent,
                   uint64_t op, double tail = 0.0);

  /// Sum over spans named `name` of (duration - time covered by children).
  double SelfSeconds(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span on `tracer` from construction to Finish() or destruction.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, uint64_t op,
            int64_t parent = -1)
      : tracer_(tracer), index_(tracer->Begin(name, op, parent)) {}
  ~SpanScope() { Finish(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Ends the span (idempotent).
  void Finish() {
    if (!done_) tracer_->End(index_);
    done_ = true;
  }
  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
  bool done_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The driver's result contract: the last stdout line of every run.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

std::string ReportJson(const RunReport& report);

/// Shortest round-trip text for a double ("nan"/"inf" become null).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
